// Package log is the repository's leveled structured logger: log/slog's text
// and JSON handlers behind a thin wrapper. The serving layer needs
// machine-readable, trace-stamped diagnostics (one line per event, JSON or
// logfmt-style text) that can be filtered by level and correlated with the
// request traces in internal/obs; slog encodes the records, and the wrapper
// adds the four things slog does not do:
//
//   - Records logged via the *Ctx variants carry the trace ID of the request
//     context, tying log lines to /tracez entries.
//   - Error-level records are rate-limited per (root logger, second) window
//     so a failing dependency cannot flood the sink; suppressed counts are
//     reported as suppressed=N on the next emitted error, and With-derived
//     children draw from their root's budget.
//   - The clock is injectable, so the window is testable.
//   - A nil *Logger is a no-op, so optional loggers need no guards.
//
// A disabled call (level above the call's) is one atomic load and a branch
// and allocates nothing. Attrs are flat alternating key/value pairs ("ns",
// name, "block", 7); a non-string key is printed, not reported as a bad key.
// Every line reads ts, level, msg, then trace and suppressed when present,
// then the attrs; durations are written as strings in both formats.
package log

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/demon-mining/demon/internal/obs"
)

// Level is the severity of a record: slog's, so its names and numeric values.
type Level = slog.Level

const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// ParseLevel maps a flag string ("debug", "info", "warn", "error",
// case-insensitive) to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("log: unknown level %q (want debug|info|warn|error)", s)
}

// Format selects the wire encoding of records.
type Format int

const (
	// FormatText emits logfmt-style lines: ts=... level=... msg=... k=v.
	FormatText Format = iota
	// FormatJSON emits one JSON object per line.
	FormatJSON
)

// ParseFormat maps a flag string ("text" or "json") to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "text", "":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	}
	return FormatText, fmt.Errorf("log: unknown format %q (want text|json)", s)
}

// errorWindow is the rate-limit window for error-level records.
const errorWindow = time.Second

// maxErrorsPerWindow caps error-level records emitted per window; the rest
// are counted and reported as suppressed=N on the next emitted error.
const maxErrorsPerWindow = 10

// Logger writes leveled structured records to one sink. Safe for concurrent
// use; nil-receiver-safe so optional loggers degrade to no-ops.
type Logger struct {
	// sink is shared by a root logger and every With-derived child: one
	// level, one handler, one error budget.
	*sink
	// attrs are stamped on every record (from With).
	attrs []slog.Attr
}

type sink struct {
	level   slog.LevelVar
	handler slog.Handler

	// clock is stubbed in tests.
	clock func() time.Time

	mu         sync.Mutex // guards the rate-limit state
	winStart   time.Time
	winCount   int
	suppressed int64
}

// New returns a logger writing to w at the given level and format.
func New(w io.Writer, level Level, format Format) *Logger {
	s := &sink{clock: time.Now}
	opts := &slog.HandlerOptions{Level: &s.level, ReplaceAttr: replaceAttr}
	if format == FormatJSON {
		s.handler = slog.NewJSONHandler(w, opts)
	} else {
		s.handler = slog.NewTextHandler(w, opts)
	}
	s.level.Set(level)
	return &Logger{sink: s}
}

// replaceAttr holds slog's output to the line contract: the timestamp is
// "ts" in UTC at nanosecond precision, and a duration is its String() in
// JSON too (slog would write integer nanoseconds).
func replaceAttr(groups []string, a slog.Attr) slog.Attr {
	switch a.Value.Kind() {
	case slog.KindTime:
		if a.Key == slog.TimeKey && len(groups) == 0 {
			return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
		}
	case slog.KindDuration:
		a.Value = slog.StringValue(a.Value.Duration().String())
	}
	return a
}

// defaultLogger is the process-global logger: stderr, info, text.
var defaultLogger atomic.Pointer[Logger]

func init() {
	defaultLogger.Store(New(os.Stderr, LevelInfo, FormatText))
}

// Default returns the process-global logger.
func Default() *Logger { return defaultLogger.Load() }

// SetDefault replaces the process-global logger and returns the previous
// one, so tests can install their own and restore on exit.
func SetDefault(l *Logger) (prev *Logger) {
	if l == nil {
		l = New(io.Discard, LevelError, FormatText)
	}
	return defaultLogger.Swap(l)
}

// SetLevel changes the minimum emitted level.
func (l *Logger) SetLevel(level Level) {
	if l == nil {
		return
	}
	l.level.Set(level)
}

// Level returns the minimum emitted level.
func (l *Logger) Level() Level {
	if l == nil {
		return LevelError + 1
	}
	return l.level.Level()
}

// Enabled reports whether a record at the given level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level.Level()
}

// With returns a logger that stamps the given alternating key/value pairs on
// every record. The child shares the parent's sink, level, and error budget.
func (l *Logger) With(attrs ...any) *Logger {
	if l == nil || len(attrs) == 0 {
		return l
	}
	return &Logger{sink: l.sink, attrs: appendAttrs(slices.Clip(l.attrs), attrs)}
}

// appendAttrs converts alternating key/value pairs; a trailing key without a
// value is dropped.
func appendAttrs(dst []slog.Attr, kv []any) []slog.Attr {
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		dst = append(dst, slog.Any(key, kv[i+1]))
	}
	return dst
}

// Debug logs at debug level.
func (l *Logger) Debug(msg string, attrs ...any) { l.log(nil, LevelDebug, msg, attrs) }

// Info logs at info level.
func (l *Logger) Info(msg string, attrs ...any) { l.log(nil, LevelInfo, msg, attrs) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, attrs ...any) { l.log(nil, LevelWarn, msg, attrs) }

// Error logs at error level (rate-limited; see package docs).
func (l *Logger) Error(msg string, attrs ...any) { l.log(nil, LevelError, msg, attrs) }

// DebugCtx logs at debug level, stamping the trace ID carried by ctx.
func (l *Logger) DebugCtx(ctx context.Context, msg string, attrs ...any) {
	l.log(ctx, LevelDebug, msg, attrs)
}

// InfoCtx logs at info level, stamping the trace ID carried by ctx.
func (l *Logger) InfoCtx(ctx context.Context, msg string, attrs ...any) {
	l.log(ctx, LevelInfo, msg, attrs)
}

// WarnCtx logs at warn level, stamping the trace ID carried by ctx.
func (l *Logger) WarnCtx(ctx context.Context, msg string, attrs ...any) {
	l.log(ctx, LevelWarn, msg, attrs)
}

// ErrorCtx logs at error level, stamping the trace ID carried by ctx.
func (l *Logger) ErrorCtx(ctx context.Context, msg string, attrs ...any) {
	l.log(ctx, LevelError, msg, attrs)
}

func (l *Logger) log(ctx context.Context, level Level, msg string, attrs []any) {
	if !l.Enabled(level) {
		return
	}
	now := l.clock()
	suppressed, ok := l.admit(level, now)
	if !ok {
		return
	}
	rec := slog.NewRecord(now, level, msg, 0)
	if ctx == nil {
		ctx = context.Background()
	}
	if id := obs.SpanContextFrom(ctx).TraceID(); id != "" {
		rec.AddAttrs(slog.String("trace", id))
	}
	if suppressed > 0 {
		rec.AddAttrs(slog.Int64("suppressed", suppressed))
	}
	rec.AddAttrs(l.attrs...)
	rec.AddAttrs(appendAttrs(nil, attrs)...)
	l.handler.Handle(ctx, rec) //nolint:errcheck // a failing log sink must not fail the caller
}

// admit charges an error-level record to the window's budget. It reports
// whether the record may be emitted and, if so, how many were suppressed
// since the last emitted one.
func (s *sink) admit(level Level, now time.Time) (suppressed int64, ok bool) {
	if level < LevelError {
		return 0, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if now.Sub(s.winStart) >= errorWindow {
		s.winStart = now
		s.winCount = 0
	}
	s.winCount++
	if s.winCount > maxErrorsPerWindow {
		s.suppressed++
		return 0, false
	}
	suppressed, s.suppressed = s.suppressed, 0
	return suppressed, true
}
