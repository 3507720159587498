package log

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/demon-mining/demon/internal/obs"
)

func TestParseLevelAndFormat(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, "Error": LevelError, "": LevelInfo,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) accepted")
	}
	if f, err := ParseFormat("JSON"); err != nil || f != FormatJSON {
		t.Errorf("ParseFormat(JSON) = %v, %v", f, err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat(xml) accepted")
	}
}

func TestLevelFiltering(t *testing.T) {
	var sb strings.Builder
	l := New(&sb, LevelWarn, FormatText)
	l.Debug("no")
	l.Info("no")
	l.Warn("yes")
	l.Error("also")
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "level=WARN") || !strings.Contains(lines[1], "level=ERROR") {
		t.Errorf("filtered output:\n%s", sb.String())
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelError) {
		t.Error("Enabled disagrees with filtering")
	}
	l.SetLevel(LevelDebug)
	if !l.Enabled(LevelDebug) {
		t.Error("SetLevel did not lower the threshold")
	}
}

// TestJSONRecordsParse feeds hostile values — quotes, newlines, control
// bytes, non-string keys — and requires every emitted line to be valid JSON
// with the attrs intact.
func TestJSONRecordsParse(t *testing.T) {
	var sb strings.Builder
	l := New(&sb, LevelDebug, FormatJSON)
	l.Info(`msg with "quotes" and`+"\nnewline",
		"str", "tab\there", "ctl", string([]byte{0x01, 0x1f}),
		"n", 42, "f", 1.5, "b", true, "dur", 250*time.Millisecond,
		"err", errors.New(`boom "quoted"`), "nil", nil, 7, "non-string-key")
	l.With("ns", "retail").Warn("child")

	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line is not valid JSON: %v\n%s", err, line)
		}
		switch rec["level"] {
		case "INFO":
			if rec["str"] != "tab\there" || rec["ctl"] != "\x01\x1f" {
				t.Errorf("string attrs mangled: %v", rec)
			}
			if rec["n"] != float64(42) || rec["b"] != true || rec["dur"] != "250ms" {
				t.Errorf("scalar attrs mangled: %v", rec)
			}
			if rec["err"] != `boom "quoted"` || rec["nil"] != nil || rec["7"] != "non-string-key" {
				t.Errorf("edge attrs mangled: %v", rec)
			}
		case "WARN":
			if rec["ns"] != "retail" || rec["msg"] != "child" {
				t.Errorf("With attrs missing: %v", rec)
			}
		}
		if _, err := time.Parse(time.RFC3339Nano, rec["ts"].(string)); err != nil {
			t.Errorf("bad ts %v: %v", rec["ts"], err)
		}
	}
}

func TestTextQuoting(t *testing.T) {
	var sb strings.Builder
	l := New(&sb, LevelInfo, FormatText)
	l.Info("plain", "a", "bare", "b", "needs quoting", "c", "eq=sign")
	line := sb.String()
	if !strings.Contains(line, "a=bare") {
		t.Errorf("bare value quoted: %s", line)
	}
	if !strings.Contains(line, `b="needs quoting"`) || !strings.Contains(line, `c="eq=sign"`) {
		t.Errorf("unsafe values not quoted: %s", line)
	}
}

func TestTraceStamping(t *testing.T) {
	reg := obs.NewRegistry()
	tc := obs.NewTracer(4, 0)
	reg.SetTracer(tc)
	tr := tc.StartTrace("trace-42", "test")
	ctx := obs.ContextWithTrace(context.Background(), tr)

	var sb strings.Builder
	l := New(&sb, LevelInfo, FormatJSON)
	l.InfoCtx(ctx, "traced")
	l.InfoCtx(context.Background(), "untraced")

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	var first, second map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first["trace"] != "trace-42" {
		t.Errorf("trace not stamped: %v", first)
	}
	if _, ok := second["trace"]; ok {
		t.Errorf("untraced record carries a trace field: %v", second)
	}
}

// TestErrorRateLimit drives a stubbed clock: 25 errors in one window emit 10,
// the window rolls, and the next emitted error reports suppressed=15.
func TestErrorRateLimit(t *testing.T) {
	var sb strings.Builder
	l := New(&sb, LevelInfo, FormatText)
	now := time.Unix(1000, 0)
	l.clock = func() time.Time { return now }

	for i := 0; i < 25; i++ {
		l.Error("boom")
	}
	if got := strings.Count(sb.String(), "level=ERROR"); got != maxErrorsPerWindow {
		t.Fatalf("window emitted %d errors, want %d", got, maxErrorsPerWindow)
	}
	// Warn and below are not budgeted.
	l.Warn("not limited")
	if !strings.Contains(sb.String(), "level=WARN") {
		t.Error("warn suppressed by the error budget")
	}

	now = now.Add(errorWindow)
	sb.Reset()
	l.Error("after window")
	out := sb.String()
	if !strings.Contains(out, "suppressed=15") {
		t.Errorf("suppressed count not reported: %s", out)
	}
	sb.Reset()
	l.Error("second in new window")
	if strings.Contains(sb.String(), "suppressed") {
		t.Errorf("suppressed count reported twice: %s", sb.String())
	}
}

// TestWithSharesErrorBudget: a With-derived child draws from the root's
// window, so a flooding subsystem cannot dodge the limit via l.With(...).
func TestWithSharesErrorBudget(t *testing.T) {
	var sb strings.Builder
	root := New(&sb, LevelInfo, FormatText)
	now := time.Unix(2000, 0)
	root.clock = func() time.Time { return now }
	child := root.With("ns", "retail")

	for i := 0; i < maxErrorsPerWindow; i++ {
		root.Error("root")
	}
	sb.Reset()
	child.Error("child over budget")
	if sb.String() != "" {
		t.Errorf("child escaped the shared error budget: %s", sb.String())
	}
}

// TestDisabledCallAllocatesNothing mirrors the obs zero-alloc tests: a
// filtered-out record costs an atomic load, even with scalar attrs.
func TestDisabledCallAllocatesNothing(t *testing.T) {
	l := New(nil, LevelError, FormatText)
	if allocs := testing.AllocsPerRun(100, func() {
		l.Debug("dropped")
	}); allocs != 0 {
		t.Errorf("disabled no-attr call allocates %v per op", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		l.Info("dropped", "k", 1, "ok", true)
	}); allocs != 0 {
		t.Errorf("disabled attr call allocates %v per op", allocs)
	}
	var nilLogger *Logger
	if allocs := testing.AllocsPerRun(100, func() {
		nilLogger.Error("dropped")
	}); allocs != 0 {
		t.Errorf("nil logger allocates %v per op", allocs)
	}
}

func TestSetDefaultSwapRestore(t *testing.T) {
	var sb strings.Builder
	mine := New(&sb, LevelInfo, FormatText)
	prev := SetDefault(mine)
	defer SetDefault(prev)
	if Default() != mine {
		t.Fatal("SetDefault did not install")
	}
	Default().Info("hello")
	if !strings.Contains(sb.String(), "msg=hello") {
		t.Errorf("default logger did not write: %q", sb.String())
	}
	SetDefault(nil) // nil degrades to a discard logger, never panics
	Default().Info("discarded")
	SetDefault(mine)
}
