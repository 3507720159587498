package diskio

import (
	"errors"
	"syscall"
	"testing"
	"time"
)

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrNotFound, false},
		{ErrCorrupt, false},
		{ErrInjected, false},
		{MarkTransient(ErrInjected), true},
		{MarkTransient(errors.New("disk hiccup")), true},
		{syscall.EAGAIN, true},
		{syscall.EINTR, true},
		{syscall.ENOSPC, false},
		// Corruption stays permanent even when something wrapped it as
		// transient: retrying cannot repair a torn record.
		{MarkTransient(ErrCorrupt), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// flakyStore fails the first n calls of each operation with a transient
// error, then recovers.
func newFlakyStack(failures int) (*FaultStore, *RetryStore) {
	fault := NewFaultStore(NewMemStore())
	fault.Transient = true
	retry := NewRetryStore(fault)
	retry.Sleep = func(time.Duration) {}
	if failures > 0 {
		fault.FailAfter(0)
	}
	return fault, retry
}

func TestRetryStoreRecoversFromTransientFault(t *testing.T) {
	fault, retry := newFlakyStack(1)
	// The first op fires the one-shot fault; the retry succeeds.
	if err := retry.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put with one transient fault: %v", err)
	}
	got, err := retry.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	fault.FailAfter(0)
	if got, err := retry.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("Get with one transient fault = %q, %v", got, err)
	}
	fault.FailAfter(0)
	if keys, err := retry.Keys(""); err != nil || len(keys) != 1 {
		t.Fatalf("Keys with one transient fault = %v, %v", keys, err)
	}
}

func TestRetryStorePermanentErrorPropagatesImmediately(t *testing.T) {
	fault := NewFaultStore(NewMemStore())
	retry := NewRetryStore(fault)
	retry.Sleep = func(time.Duration) { t.Fatal("slept on a permanent error") }
	fault.FailKey = func(key string) bool { return key == "bad" }
	if err := retry.Put("bad", nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if _, err := retry.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("not-found err = %v", err)
	}
}

func TestRetryStoreGivesUpAfterMaxAttempts(t *testing.T) {
	fault := NewFaultStore(NewMemStore())
	fault.Transient = true
	fault.FailKey = func(string) bool { return true } // never heals
	retry := NewRetryStore(fault)
	retry.MaxAttempts = 3
	var sleeps []time.Duration
	retry.Sleep = func(d time.Duration) { sleeps = append(sleeps, d) }

	err := retry.Put("k", nil)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, ErrTransient) {
		t.Fatalf("give-up err = %v", err)
	}
	if len(sleeps) != 2 {
		t.Fatalf("slept %d times for 3 attempts", len(sleeps))
	}
	// Backoff grows (jitter keeps each sleep within [d/2, d] of an
	// exponentially growing d, so the second sleep exceeds the first's
	// lower bound scale).
	for _, d := range sleeps {
		if d <= 0 || d > 200*time.Millisecond {
			t.Fatalf("sleep %v out of range", d)
		}
	}
}

func TestRetryStoreBackoffIsCapped(t *testing.T) {
	retry := NewRetryStore(NewMemStore())
	retry.BaseDelay = time.Millisecond
	retry.MaxDelay = 4 * time.Millisecond
	for try := 0; try < 40; try++ {
		if d := retry.backoff(try); d > retry.MaxDelay {
			t.Fatalf("backoff(%d) = %v exceeds cap", try, d)
		}
	}
}

func TestRetryStoreRetriesApply(t *testing.T) {
	fault, retry := newFlakyStack(1)
	if err := retry.Apply([]KV{{"a", []byte("1")}, {"b", []byte("2")}}, nil); err != nil {
		t.Fatalf("Apply with one transient fault: %v", err)
	}
	if keys, _ := fault.Inner.Keys(""); len(keys) != 2 {
		t.Fatalf("keys after the retried Apply = %v", keys)
	}
	if fault.Ops() != 2 {
		t.Fatalf("Apply reached the store %d times, want the failure and the retry", fault.Ops())
	}
}
