package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins CPU profiling to cpuPath and arranges a heap
// profile at memPath; either (or both) may be "" to skip that profile.
// The returned stop function ends the CPU profile and writes the heap
// profile — call it exactly once, on every exit path (it is what the
// -cpuprofile/-memprofile flags of sccsim and sccbench run through).
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("obs: mem profile: %w", err)
			}
			runtime.GC() // flush garbage so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("obs: mem profile: %w", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}
