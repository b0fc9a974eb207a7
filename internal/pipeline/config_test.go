package pipeline

import (
	"errors"
	"testing"
	"time"

	"sccsim/internal/asm"
	"sccsim/internal/cache"
	"sccsim/internal/scc"
)

// TestValidateRejectsUnrunnableConfigs has one case per field Validate
// checks: each bad value must come back from Validate and from New as a
// *ConfigError naming that field and value.
func TestValidateRejectsUnrunnableConfigs(t *testing.T) {
	type tc struct {
		field string
		value int
		set   func(c *Config, v int)
	}
	cases := []tc{
		{"FetchWidth", 0, func(c *Config, v int) { c.FetchWidth = v }},
		{"DecodeWidth", 0, func(c *Config, v int) { c.DecodeWidth = v }},
		{"RenameWidth", -1, func(c *Config, v int) { c.RenameWidth = v }},
		{"CommitWidth", 0, func(c *Config, v int) { c.CommitWidth = v }},
		{"IDQSize", 0, func(c *Config, v int) { c.IDQSize = v }},
		{"ROBSize", 0, func(c *Config, v int) { c.ROBSize = v }},
		{"IQSize", 0, func(c *Config, v int) { c.IQSize = v }},
		{"LSQSize", 0, func(c *Config, v int) { c.LSQSize = v }},
		{"IntALUs", 0, func(c *Config, v int) { c.IntALUs = v }},
		{"MulUnits", 0, func(c *Config, v int) { c.MulUnits = v }},
		{"DivUnits", 0, func(c *Config, v int) { c.DivUnits = v }},
		{"FPUnits", 0, func(c *Config, v int) { c.FPUnits = v }},
		{"MemPorts", -2, func(c *Config, v int) { c.MemPorts = v }},
		// sccsim -specCacheNumSets 48 and 60.
		{"UC.UnoptSets", 0, func(c *Config, v int) { *c = c.WithPartitionSplit(48 - v) }},
		{"UC.UnoptSets", -12, func(c *Config, v int) { *c = c.WithPartitionSplit(48 - v) }},
		// sccsim -specCacheNumSets -1.
		{"UC.OptSets", -1, func(c *Config, v int) { *c = c.WithPartitionSplit(v) }},
	}
	for _, lvl := range []struct {
		name  string
		level func(c *Config) *cache.Config
	}{
		{"L1I", func(c *Config) *cache.Config { return &c.Hier.L1I }},
		{"L1D", func(c *Config) *cache.Config { return &c.Hier.L1D }},
		{"L2", func(c *Config) *cache.Config { return &c.Hier.L2 }},
		{"L3", func(c *Config) *cache.Config { return &c.Hier.L3 }},
	} {
		prefix := "Hier." + lvl.name + "."
		cases = append(cases,
			tc{prefix + "Sets", 0, func(c *Config, v int) { lvl.level(c).Sets = v }},
			tc{prefix + "Sets", 48, func(c *Config, v int) { lvl.level(c).Sets = v }},
			tc{prefix + "Ways", 0, func(c *Config, v int) { lvl.level(c).Ways = v }},
			tc{prefix + "LineBytes", 96, func(c *Config, v int) { lvl.level(c).LineBytes = v }},
		)
	}
	prog := asm.MustAssemble(hotLoop)
	for _, tc := range cases {
		cfg := IcelakeSCC(scc.LevelFull)
		tc.set(&cfg, tc.value)
		var ce *ConfigError
		if err := cfg.Validate(); !errors.As(err, &ce) || ce.Field != tc.field || ce.Value != tc.value {
			t.Errorf("%s = %d: Validate() = %v, want a ConfigError for that field and value",
				tc.field, tc.value, err)
		}
		if _, err := New(cfg, prog); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s = %d: New error = %v, want the ConfigError", tc.field, tc.value, err)
		}
	}
}

// TestValidateAcceptsPaperConfigs: the baseline (no optimized partition),
// every rung of the SCC ladder and the Figure 10 partition splits run.
func TestValidateAcceptsPaperConfigs(t *testing.T) {
	cfgs := []Config{Icelake()}
	for _, l := range scc.Levels() {
		cfgs = append(cfgs, IcelakeSCC(l))
	}
	for _, opt := range []int{12, 24, 36} {
		cfgs = append(cfgs, IcelakeSCC(scc.LevelFull).WithPartitionSplit(opt))
	}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %d: %v", i, err)
		}
	}
}

// TestZeroIntALUsFailsFast: with no integer ALUs the backend used to spin
// forever inside one cycle, out of reach of the no-progress watchdog. The
// run must now end in an error; the deadline turns a regression into a
// failure instead of a hung test binary.
func TestZeroIntALUsFailsFast(t *testing.T) {
	cfg := Icelake()
	cfg.IntALUs = 0
	cfg.MaxUops = 1000
	done := make(chan error, 1)
	go func() {
		m, err := New(cfg, asm.MustAssemble(hotLoop))
		if err == nil {
			_, err = m.Run()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a machine with IntALUs = 0 ran without error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a machine with IntALUs = 0 did not return within 10s")
	}
}
