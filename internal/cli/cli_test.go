package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/obs/log"
)

// withRegistry installs a fresh process-global registry, off as the real one
// starts, for the duration of the test.
func withRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	reg.SetEnabled(false)
	prev := obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(prev) })
	return reg
}

// TestExitCodes: 0 for a clean run, -version and -h; 1 for a failed run; 2
// for everything that is the caller's mistake, each with "name: err" on
// stderr.
func TestExitCodes(t *testing.T) {
	withRegistry(t)
	setup := func(fs *FlagSet) func(context.Context) error {
		mode := fs.String("mode", "ok", "")
		return func(context.Context) error {
			switch *mode {
			case "fail":
				return errors.New("disk on fire")
			case "usage":
				return Usagef("no %s given", "files")
			}
			return nil
		}
	}
	for _, tc := range []struct {
		args   string
		code   int
		stderr string
	}{
		{"", 0, ""},
		{"-version", 0, ""},
		{"-h", 0, "Usage of demon-test"},
		{"-mode fail", 1, "demon-test: disk on fire\n"},
		{"-mode usage", 2, "demon-test: no files given\n"},
		{"-no-such-flag", 2, "flag provided but not defined"},
		{"-log-level loud", 2, "demon-test: log: unknown level"},
		{"-log-format xml", 2, "demon-test: log: unknown format"},
	} {
		var stderr bytes.Buffer
		code := Run(context.Background(), "demon-test", strings.Fields(tc.args), &stderr, setup)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) || (tc.stderr == "") != (stderr.Len() == 0) {
			t.Errorf("args %q: exit %d, stderr %q; want exit %d, stderr containing %q", tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}

// TestLogFlags: -log-level and -log-format configure the process-global
// logger for the run, on stderr, and the previous one comes back after.
func TestLogFlags(t *testing.T) {
	withRegistry(t)
	before := log.Default()
	var stderr bytes.Buffer
	code := Run(context.Background(), "demon-test", []string{"-log-level", "debug", "-log-format", "json"}, &stderr,
		func(*FlagSet) func(context.Context) error {
			return func(context.Context) error {
				log.Default().Debug("hello", "n", 1)
				return nil
			}
		})
	var rec map[string]any
	if err := json.Unmarshal(stderr.Bytes(), &rec); code != 0 || err != nil || rec["level"] != "DEBUG" || rec["msg"] != "hello" {
		t.Errorf("exit %d, stderr %q (%v): want one JSON debug record", code, stderr.String(), err)
	}
	if log.Default() != before {
		t.Error("Run left its logger installed")
	}
}

// TestRunContextIsCancellable: the run function's context descends from the
// caller's, so what cancels one (in production: SIGTERM) ends the other.
func TestRunContextIsCancellable(t *testing.T) {
	withRegistry(t)
	ctx, cancel := context.WithCancel(context.Background())
	code := Run(ctx, "demon-test", nil, &bytes.Buffer{}, func(*FlagSet) func(context.Context) error {
		return func(ctx context.Context) error {
			if ctx.Err() != nil {
				return errors.New("cancelled before the run started")
			}
			cancel()
			<-ctx.Done()
			return nil
		}
	})
	if code != 0 {
		t.Errorf("exit %d, want 0", code)
	}
}

// TestObservabilityFlags: -metrics-out and -pprof-addr turn the registry on
// and the snapshot is written after a clean run only; without them the
// registry stays off; -trace-sample installs a tracer; and a command that
// registers none of the three does not accept them.
func TestObservabilityFlags(t *testing.T) {
	all := func(fs *FlagSet) func(context.Context) error {
		fs.MetricsOutFlag()
		fs.PprofAddrFlag()
		fs.TraceSampleFlag()
		fail := fs.Bool("fail", false, "")
		return func(context.Context) error {
			obs.Default().Counter("serve.test.total").Add(3)
			if *fail {
				return errors.New("failed")
			}
			return nil
		}
	}
	run := func(setup Setup, args ...string) int {
		return Run(context.Background(), "demon-test", args, &bytes.Buffer{}, setup)
	}

	reg := withRegistry(t)
	if code := run(all); code != 0 || reg.Enabled() {
		t.Errorf("exit %d, registry enabled = %v with neither -metrics-out nor -pprof-addr", code, reg.Enabled())
	}
	if reg.Tracer() == nil {
		t.Error("TraceSampleFlag installed no tracer")
	}

	reg = withRegistry(t)
	out := filepath.Join(t.TempDir(), "metrics.json")
	if code := run(all, "-metrics-out", out, "-pprof-addr", "127.0.0.1:0", "-trace-sample", "0.5"); code != 0 || !reg.Enabled() {
		t.Fatalf("exit %d, registry enabled = %v with -metrics-out", code, reg.Enabled())
	}
	if got := reg.Tracer().SampleRate(); got != 0.5 {
		t.Errorf("tracer samples %v, want 0.5", got)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil || snap.Counters["serve.test.total"] != 3 {
		t.Errorf("snapshot = %s (%v), want serve.test.total = 3", raw, err)
	}

	withRegistry(t)
	out = filepath.Join(t.TempDir(), "metrics.json")
	if code := run(all, "-metrics-out", out, "-fail"); code != 1 {
		t.Errorf("failed run exits %d, want 1", code)
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("a failed run wrote its -metrics-out snapshot")
	}
	if code := run(all, "-pprof-addr", "not an address"); code != 2 {
		t.Errorf("unusable -pprof-addr exits %d, want 2", code)
	}

	reg = withRegistry(t)
	none := func(*FlagSet) func(context.Context) error {
		return func(context.Context) error { return nil }
	}
	for _, flag := range []string{"-metrics-out", "-pprof-addr", "-trace-sample"} {
		if code := run(none, flag, "1"); code != 2 {
			t.Errorf("a command without %s accepted it (exit %d)", flag, code)
		}
	}
	if run(none); reg.Tracer() != nil {
		t.Error("a command without -trace-sample got a tracer")
	}
}
