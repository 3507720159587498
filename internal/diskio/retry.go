package diskio

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"

	"github.com/demon-mining/demon/internal/obs"
)

// ErrTransient marks an error as transient: the operation may succeed if
// simply retried (momentary resource exhaustion, an interrupted syscall, a
// flaky device). Wrap with MarkTransient; classify with IsTransient.
var ErrTransient = errors.New("diskio: transient")

// MarkTransient wraps err so IsTransient reports true for it.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// IsTransient classifies an error as transient (retryable) or permanent.
// Errors explicitly marked with MarkTransient are transient, as are the
// classic momentary syscall failures. Corruption and not-found are always
// permanent: retrying cannot repair a torn record or invent a missing key.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound) {
		return false
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	for _, errno := range []syscall.Errno{
		syscall.EAGAIN, syscall.EINTR, syscall.EBUSY,
		syscall.EMFILE, syscall.ENFILE, syscall.ETIMEDOUT,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// RetryStore wraps a Store and retries transient failures with capped
// exponential backoff plus jitter — the self-healing layer between the
// miners and a flaky device. Permanent errors (not-found, corruption,
// anything IsTransient rejects) propagate immediately. Retry traffic is
// visible under the obs counters
//
//	diskio.retry.attempts   retries performed (beyond the first attempt)
//	diskio.retry.ok         operations that succeeded after retrying
//	diskio.retry.giveup     operations that exhausted MaxAttempts
//
// RetryStore is safe for concurrent use to the extent the wrapped store is.
type RetryStore struct {
	// Inner is the wrapped store.
	Inner Store
	// MaxAttempts bounds the total tries per operation (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 1ms); each retry doubles
	// it up to MaxDelay (default 100ms). The actual sleep is uniformly
	// jittered in [delay/2, delay] so colliding retriers spread out.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Classify overrides the transient test (default IsTransient).
	Classify func(error) bool
	// Sleep overrides the backoff sleep, for tests (default time.Sleep).
	Sleep func(time.Duration)

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewRetryStore wraps inner with the default retry policy.
func NewRetryStore(inner Store) *RetryStore {
	return &RetryStore{Inner: inner}
}

// Unwrap returns the wrapped store.
func (s *RetryStore) Unwrap() Store { return s.Inner }

func (s *RetryStore) attempts() int {
	if s.MaxAttempts > 0 {
		return s.MaxAttempts
	}
	return 4
}

func (s *RetryStore) classify(err error) bool {
	if s.Classify != nil {
		return s.Classify(err)
	}
	return IsTransient(err)
}

func (s *RetryStore) backoff(try int) time.Duration {
	base := s.BaseDelay
	if base <= 0 {
		base = time.Millisecond
	}
	maxd := s.MaxDelay
	if maxd <= 0 {
		maxd = 100 * time.Millisecond
	}
	d := base << uint(try)
	if d > maxd || d <= 0 {
		d = maxd
	}
	// Jitter: uniform in [d/2, d].
	s.rngMu.Lock()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	j := d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
	s.rngMu.Unlock()
	return j
}

// do runs op with the retry policy.
func (s *RetryStore) do(op func() error) error {
	reg := obs.Default()
	var err error
	for try := 0; try < s.attempts(); try++ {
		if try > 0 {
			reg.Counter("diskio.retry.attempts").Inc()
			sleep := s.Sleep
			if sleep == nil {
				sleep = time.Sleep
			}
			sleep(s.backoff(try - 1))
		}
		if err = op(); err == nil {
			if try > 0 {
				reg.Counter("diskio.retry.ok").Inc()
			}
			return nil
		}
		if !s.classify(err) {
			return err
		}
	}
	reg.Counter("diskio.retry.giveup").Inc()
	return fmt.Errorf("diskio: giving up after %d attempts: %w", s.attempts(), err)
}

// Put implements Store.
func (s *RetryStore) Put(key string, data []byte) error {
	return s.do(func() error { return s.Inner.Put(key, data) })
}

// CanApply reports whether the wrapped store batches; see AsBatcher.
func (s *RetryStore) CanApply() bool { return canApply(s.Inner) }

// Apply implements Batcher over a batching store. A batch is all-or-nothing,
// so retrying a failed one is as safe as retrying a Put.
func (s *RetryStore) Apply(puts []KV, dels []string) error {
	b, ok := AsBatcher(s.Inner)
	if !ok {
		return errNoBatch(s.Inner)
	}
	return s.do(func() error { return b.Apply(puts, dels) })
}

// Get implements Store.
func (s *RetryStore) Get(key string) (data []byte, err error) {
	err = s.do(func() error {
		data, err = s.Inner.Get(key)
		return err
	})
	return data, err
}

// Size implements Store.
func (s *RetryStore) Size(key string) (n int64, err error) {
	err = s.do(func() error {
		n, err = s.Inner.Size(key)
		return err
	})
	return n, err
}

// Delete implements Store.
func (s *RetryStore) Delete(key string) error {
	return s.do(func() error { return s.Inner.Delete(key) })
}

// Keys implements Store.
func (s *RetryStore) Keys(prefix string) (keys []string, err error) {
	err = s.do(func() error {
		keys, err = s.Inner.Keys(prefix)
		return err
	})
	return keys, err
}

// Stats implements Store.
func (s *RetryStore) Stats() Stats { return s.Inner.Stats() }

// ResetStats implements Store.
func (s *RetryStore) ResetStats() { s.Inner.ResetStats() }
