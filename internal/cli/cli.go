// Package cli is the process edge of the cmd/ binaries, written once: flag
// parsing, -version, the structured-log flags, the SIGTERM/SIGINT context,
// the observability flags, "name: err" on stderr and the exit codes. A
// command's main is
//
//	func main() { cli.Main("demon-x", setup) }
//
// where setup declares the command's own flags and returns the run function.
// Everything a test needs is reachable without a process: the run function
// directly, or Run for the parsing and exit-code behaviour.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/obs/log"
	"github.com/demon-mining/demon/internal/version"
)

// FlagSet is a command's flag set. Every command gets -version, -log-level
// and -log-format; the methods add the observability flags only some take.
type FlagSet struct {
	*flag.FlagSet
	metricsOut  string
	pprofAddr   string
	traceSample float64
	tracing     bool
}

// MetricsOutFlag adds -metrics-out: the registry is turned on and its
// snapshot written once the run function returned without error.
func (fs *FlagSet) MetricsOutFlag() {
	fs.StringVar(&fs.metricsOut, "metrics-out", "", "write the metrics-registry snapshot (JSON) to this file on exit")
}

// PprofAddrFlag adds -pprof-addr: the registry is turned on and a debug
// listener started before the run function. demon-serve does not take it:
// its own -addr serves both endpoints.
func (fs *FlagSet) PprofAddrFlag() {
	fs.StringVar(&fs.pprofAddr, "pprof-addr", "", "serve /metricsz and /debug/pprof on this address while running (e.g. localhost:6060)")
}

// TraceSampleFlag adds -trace-sample and installs a request tracer on the
// registry. Only a command that starts traces (demon-serve) takes it.
func (fs *FlagSet) TraceSampleFlag() {
	fs.tracing = true
	fs.Float64Var(&fs.traceSample, "trace-sample", 0,
		"fraction of requests to trace when no X-Demon-Trace-Id is supplied (0..1; explicit IDs always trace)")
}

// Setup declares a command's flags on fs and returns its run function, which
// is called after parsing with a context cancelled by SIGTERM or SIGINT.
type Setup func(fs *FlagSet) (run func(ctx context.Context) error)

// usageError marks an error as the caller's mistake: exit code 2, not 1.
type usageError struct{ error }

// Usagef returns an error that makes the command exit 2, as a flag the flag
// package rejects does.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// Main runs the command on the process's arguments and exits with its code.
func Main(name string, setup Setup) {
	os.Exit(Run(context.Background(), name, os.Args[1:], os.Stderr, setup))
}

// Run is Main without the process: it returns the exit code — 0, 1 for a
// failed run, 2 for a usage error — and writes diagnostics and the log to
// stderr.
func Run(ctx context.Context, name string, args []string, stderr io.Writer, setup Setup) int {
	fs := &FlagSet{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError)}
	fs.SetOutput(stderr)
	showVersion := fs.Bool("version", false, "print the build identity and exit")
	level := fs.String("log-level", "info", "minimum log level: debug|info|warn|error")
	format := fs.String("log-format", "text", "log encoding: text|json")
	run := setup(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has already said why
	}
	code := -1
	version.PrintAndExitIf(*showVersion, name, func(c int) { code = c }, os.Stdout)
	if code >= 0 {
		return code
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		if errors.As(err, &usageError{}) {
			return 2
		}
		return 1
	}
	lv, err := log.ParseLevel(*level)
	if err != nil {
		return fail(usageError{err})
	}
	lf, err := log.ParseFormat(*format)
	if err != nil {
		return fail(usageError{err})
	}
	defer log.SetDefault(log.SetDefault(log.New(stderr, lv, lf)))

	reg := obs.Default()
	if fs.tracing {
		reg.SetTracer(obs.NewTracer(obs.DefaultTraceCapacity, fs.traceSample))
	}
	if fs.metricsOut != "" || fs.pprofAddr != "" {
		reg.SetEnabled(true)
	}
	if fs.pprofAddr != "" {
		if err := obs.Serve(fs.pprofAddr, reg); err != nil {
			return fail(usageError{err})
		}
	}

	// The first signal cancels ctx and restores the default disposition, so
	// a second one kills immediately; the stores' recovery handles the rest.
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	context.AfterFunc(ctx, stop)
	if err := run(ctx); err != nil {
		return fail(err)
	}
	if fs.metricsOut != "" {
		if err := obs.Dump(fs.metricsOut, reg); err != nil {
			return fail(err)
		}
	}
	return 0
}
