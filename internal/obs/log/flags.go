package log

import (
	"flag"
	"os"

	"github.com/demon-mining/demon/internal/obs"
)

// CLI holds the observability flag values shared by the cmd/ binaries:
// -log-level, -log-format and -trace-sample on all of them, -metrics-out and
// -pprof-addr on the ones that run miners in-process. Register on a FlagSet
// before Parse, then Apply once after.
type CLI struct {
	Level       string
	Format      string
	TraceSample float64
	MetricsOut  string
	PprofAddr   string
}

// RegisterFlags binds the shared logging and tracing flags to fs and returns
// the holder to Apply after parsing.
func RegisterFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.StringVar(&c.Level, "log-level", "info", "minimum log level: debug|info|warn|error")
	fs.StringVar(&c.Format, "log-format", "text", "log encoding: text|json")
	fs.Float64Var(&c.TraceSample, "trace-sample", 0,
		"fraction of requests to trace when no X-Demon-Trace-Id is supplied (0..1; explicit IDs always trace)")
	return c
}

// RegisterMetricsOut additionally binds -metrics-out; Apply's finish step
// writes the file.
func (c *CLI) RegisterMetricsOut(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write the metrics-registry snapshot (JSON) to this file on exit")
}

// RegisterPprofAddr additionally binds -pprof-addr; Apply starts the
// listener. demon-serve does not: its own -addr serves both endpoints.
func (c *CLI) RegisterPprofAddr(fs *flag.FlagSet) {
	fs.StringVar(&c.PprofAddr, "pprof-addr", "", "serve /metricsz and /debug/pprof on this address while running (e.g. localhost:6060)")
}

// Apply configures the process-global logger from the parsed flag values
// and, when reg is non-nil, installs a request tracer on it, turns it on if
// -metrics-out or -pprof-addr was given, and starts the -pprof-addr
// listener. The returned finish step writes the -metrics-out snapshot (a
// no-op without the flag); call it once the work is done.
func (c *CLI) Apply(reg *obs.Registry) (finish func() error, err error) {
	level, err := ParseLevel(c.Level)
	if err != nil {
		return nil, err
	}
	format, err := ParseFormat(c.Format)
	if err != nil {
		return nil, err
	}
	SetDefault(New(os.Stderr, level, format))
	if reg == nil {
		return func() error { return nil }, nil
	}
	reg.SetTracer(obs.NewTracer(obs.DefaultTraceCapacity, c.TraceSample))
	if c.MetricsOut != "" || c.PprofAddr != "" {
		reg.SetEnabled(true)
	}
	if c.PprofAddr != "" {
		if err := obs.Serve(c.PprofAddr, reg); err != nil {
			return nil, err
		}
	}
	return func() error {
		if c.MetricsOut == "" {
			return nil
		}
		return obs.Dump(c.MetricsOut, reg)
	}, nil
}
