// Package cli declares the flags every sccsim command shares and owns
// their setup and teardown: -version prints the banner, -log-level and
// -log-format build the structured logger, -metrics-dump writes the
// Prometheus exposition at exit, and -cpuprofile/-memprofile profile the
// process.
package cli

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"sccsim/internal/obs"
	"sccsim/internal/telemetry"
)

// Common is one command's shared flags, declared on flag.CommandLine.
type Common struct {
	tool                string
	version             *bool
	logLevel, logFormat *string
	// nil when the command does not declare the flag
	metricsDump, cpuProfile, memProfile *string
}

// New declares -version, -log-level (defaulting to logLevel) and
// -log-format for the named command.
func New(tool, logLevel string) *Common {
	return &Common{
		tool:      tool,
		version:   flag.Bool("version", false, "print the simulator version and exit"),
		logLevel:  flag.String("log-level", logLevel, "structured log threshold on stderr: "+telemetry.LogLevels),
		logFormat: flag.String("log-format", "text", "structured log encoding: "+telemetry.LogFormats),
	}
}

// WithMetricsDump declares -metrics-dump.
func (c *Common) WithMetricsDump() *Common {
	c.metricsDump = flag.String("metrics-dump", "",
		"write the Prometheus metrics exposition to this path at exit (\"-\" = stdout)")
	return c
}

// WithProfiles declares -cpuprofile and -memprofile; what names the
// profiled code in their help text.
func (c *Common) WithProfiles(what string) *Common {
	c.cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the "+what+" to this path")
	c.memProfile = flag.String("memprofile", "", "write a heap profile of the "+what+" to this path")
	return c
}

// Run parses the command line, runs body with the logger and returns
// body's exit status. -version prints the banner and returns 0, an
// unknown log level or format is a usage error (2), and a profile that
// cannot start returns 1. Once body returns, Run stops the profiles and
// writes the metrics dump; their failures are reported on stderr without
// changing the status.
func (c *Common) Run(body func(logger *slog.Logger) int) int {
	flag.Parse()
	if *c.version {
		fmt.Println(obs.VersionString(c.tool))
		return 0
	}
	logger, err := telemetry.NewLogger(os.Stderr, *c.logLevel, *c.logFormat)
	if err != nil {
		c.report(err)
		return 2
	}
	if c.metricsDump != nil && *c.metricsDump != "" {
		defer func() { c.report(telemetry.DumpMetrics(*c.metricsDump, telemetry.Default())) }()
	}
	if c.cpuProfile != nil {
		stop, err := obs.StartProfiles(*c.cpuProfile, *c.memProfile)
		if err != nil {
			return c.Fail(err)
		}
		defer func() { c.report(stop()) }()
	}
	return body(logger)
}

// Fail reports err on stderr under the command's name and returns exit
// status 1, for a run that fails after its flags were accepted.
func (c *Common) Fail(err error) int {
	c.report(err)
	return 1
}

// report prints a non-nil err on stderr under the command's name.
func (c *Common) report(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.tool, err)
	}
}
