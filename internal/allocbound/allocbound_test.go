package allocbound

import "testing"

// recorder is a testing.TB that records a failure instead of stopping.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Helper()               {}
func (r *recorder) Fatalf(string, ...any) { r.failed = true }

var (
	sink []byte
	list *cell
)

// cell is a 64-byte object: small objects count when their span leaves a
// P's cache, not one by one.
type cell struct {
	next *cell
	_    [56]byte
}

func TestCheck(t *testing.T) {
	for _, c := range []struct {
		name  string
		alloc func()
		fail  bool
	}{
		{"nothing", func() {}, false},
		{"within the slack", func() { sink = make([]byte, 32<<10) }, false},
		{"one large object", func() { sink = make([]byte, 1<<20) }, true},
		{"many small objects", func() {
			list = nil
			for range 1 << 14 {
				list = &cell{next: list}
			}
		}, true},
	} {
		r := &recorder{TB: t}
		Check(r, 16, c.alloc)
		if r.failed != c.fail {
			t.Errorf("%s: failed = %v, want %v", c.name, r.failed, c.fail)
		}
	}
}
