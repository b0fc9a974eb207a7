// Package pipeline implements the cycle-level out-of-order core simulator:
// the substrate standing in for the paper's gem5 O3 x86 model (Table I,
// Icelake-like), extended with the SCC front end.
//
// Modeling approach: execute-at-fetch with a dependence-driven back end.
// The functional oracle (internal/emu) advances architectural state as
// micro-ops are fetched; the timing back end charges each micro-op its
// dispatch, issue (operand readiness + functional-unit contention) and
// completion cycles under ROB/IQ/LSQ occupancy limits, with in-order
// commit. Branch mispredictions and SCC invariant violations stall fetch
// until the offending micro-op resolves in the back end plus a redirect
// penalty — the standard technique for front-end studies, which captures
// exactly the effects SCC's gains and losses flow through.
package pipeline

import (
	"fmt"

	"sccsim/internal/cache"
	"sccsim/internal/scc"
	"sccsim/internal/uopcache"
)

// Config is the full machine configuration.
type Config struct {
	// Core widths (Table I: 6 fused uops fetch; Icelake-like widths).
	FetchWidth  int // fused slots fetched per cycle from the uop cache
	DecodeWidth int // macro-ops decoded per cycle on the legacy path
	RenameWidth int // fused slots renamed/dispatched per cycle
	CommitWidth int // uops committed per cycle

	// Queue/window sizes.
	IDQSize int // instruction decode queue (Table I: 140 entries)
	ROBSize int
	IQSize  int
	LSQSize int

	// Functional units.
	IntALUs  int
	MulUnits int
	DivUnits int
	FPUnits  int
	MemPorts int

	// Latencies.
	DecodeLatency   int // extra pipe depth of the legacy decode path
	UopCacheLatency int // uop-cache-to-IDQ latency
	IntLatency      int
	MulLatency      int
	DivLatency      int // unpipelined
	FPLatency       int
	RedirectLatency int // resolve-to-refetch penalty on mispredict/squash

	// Predictors.
	ValuePredictor string // "eves", "h3vp", "lastvalue"
	// VPTrainConfThreshold: the baseline's value-predictor forwarding
	// confidence (the artifact runs the baseline with
	// predictionConfidenceThreshold=15, i.e. effectively validation-only).
	VPTrainConfThreshold int

	// Memory hierarchy and micro-op cache.
	Hier cache.HierarchyConfig
	UC   uopcache.Config

	// SCC.
	SCCEnabled bool
	SCC        scc.Config

	// Run length.
	MaxUops uint64
}

// Icelake returns the Table I baseline configuration (no SCC, unpartitioned
// 2304-uop micro-op cache).
func Icelake() Config {
	return Config{
		FetchWidth:  6,
		DecodeWidth: 5,
		RenameWidth: 5,
		CommitWidth: 8,
		IDQSize:     140,
		ROBSize:     352,
		IQSize:      160,
		LSQSize:     128,

		IntALUs:  4,
		MulUnits: 1,
		DivUnits: 1,
		FPUnits:  2,
		MemPorts: 3,

		DecodeLatency:   5,
		UopCacheLatency: 1,
		IntLatency:      1,
		MulLatency:      3,
		DivLatency:      18,
		FPLatency:       4,
		RedirectLatency: 6,

		ValuePredictor:       "eves",
		VPTrainConfThreshold: 15,

		Hier: cache.DefaultHierarchyConfig(),
		UC:   uopcache.BaselineConfig(),

		SCCEnabled: false,
		SCC:        scc.ConfigForLevel(scc.LevelBaseline),

		MaxUops: 500_000,
	}
}

// IcelakeSCC returns the full-SCC configuration: the partitioned micro-op
// cache (24 unoptimized + 24 optimized sets, matching the artifact's
// uopCacheNumSets=24 / specCacheNumSets=24) and the SCC unit at the given
// optimization level.
func IcelakeSCC(level scc.Level) Config {
	c := Icelake()
	if level >= scc.LevelPartitioned {
		c.UC = uopcache.DefaultConfig()
	}
	if level >= scc.LevelMoveElim {
		c.SCCEnabled = true
		c.SCC = scc.ConfigForLevel(level)
	}
	return c
}

// WithPartitionSplit reallocates the micro-op cache sets between the
// unoptimized and optimized partitions out of a 48-set total (Figure 10:
// 12/36, 24/24, 36/12 optimized/unoptimized splits).
func (c Config) WithPartitionSplit(optSets int) Config {
	c.UC.OptSets = optSets
	c.UC.UnoptSets = 48 - optSets
	return c
}

// WithValuePredictor switches the value predictor (Figure 9).
func (c Config) WithValuePredictor(name string) Config {
	c.ValuePredictor = name
	return c
}

// WithConstWidth restricts SCC constant widths (Figure 11).
func (c Config) WithConstWidth(bits int) Config {
	c.SCC.ConstWidthBits = bits
	return c
}

// ConfigError names a Config field whose value no machine can run with.
type ConfigError struct {
	Field string // path of the field within Config, e.g. "Hier.L1D.Sets"
	Value int
	Want  string // what the field accepts
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("pipeline: invalid config: %s = %d (want %s)", e.Field, e.Value, e.Want)
}

// Validate returns a *ConfigError for the first field a machine cannot
// run with, or nil. Zero widths and queues never make progress, a zero
// functional-unit count spins forever inside one cycle, zero-sized or
// non-power-of-two cache geometries panic or index wrongly, and a
// negative optimized-partition size is no partition at all.
func (c Config) Validate() error {
	for _, f := range []struct {
		field string
		v     int
	}{
		{"FetchWidth", c.FetchWidth}, {"DecodeWidth", c.DecodeWidth},
		{"RenameWidth", c.RenameWidth}, {"CommitWidth", c.CommitWidth},
		{"IDQSize", c.IDQSize}, {"ROBSize", c.ROBSize},
		{"IQSize", c.IQSize}, {"LSQSize", c.LSQSize},
		{"IntALUs", c.IntALUs}, {"MulUnits", c.MulUnits}, {"DivUnits", c.DivUnits},
		{"FPUnits", c.FPUnits}, {"MemPorts", c.MemPorts},
		{"UC.UnoptSets", c.UC.UnoptSets},
	} {
		if f.v < 1 {
			return &ConfigError{Field: f.field, Value: f.v, Want: ">= 1"}
		}
	}
	if c.UC.OptSets < 0 {
		return &ConfigError{Field: "UC.OptSets", Value: c.UC.OptSets, Want: ">= 0"}
	}
	for _, l := range []struct {
		name string
		cfg  cache.Config
	}{{"L1I", c.Hier.L1I}, {"L1D", c.Hier.L1D}, {"L2", c.Hier.L2}, {"L3", c.Hier.L3}} {
		switch {
		case !powerOfTwo(l.cfg.Sets):
			return &ConfigError{Field: "Hier." + l.name + ".Sets", Value: l.cfg.Sets, Want: "a power of two"}
		case l.cfg.Ways < 1:
			return &ConfigError{Field: "Hier." + l.name + ".Ways", Value: l.cfg.Ways, Want: ">= 1"}
		case !powerOfTwo(l.cfg.LineBytes):
			return &ConfigError{Field: "Hier." + l.name + ".LineBytes", Value: l.cfg.LineBytes, Want: "a power of two"}
		}
	}
	return nil
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }
