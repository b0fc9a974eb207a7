package tracing

import "testing"

// FuzzParseTraceparent covers the header sccserve parses at admission:
// parsing must never panic, and an accepted header must carry non-zero
// IDs that survive a format and re-parse unchanged.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-00",
		"cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-what-ever",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted a zero id: %s %s", h, tid, sid)
		}
		h2 := FormatTraceparent(tid, sid)
		tid2, sid2, ok := ParseTraceparent(h2)
		if !ok || tid2 != tid || sid2 != sid {
			t.Fatalf("ParseTraceparent(%q) = %s %s, but its formatting %q re-parses as %s %s %v",
				h, tid, sid, h2, tid2, sid2, ok)
		}
	})
}
