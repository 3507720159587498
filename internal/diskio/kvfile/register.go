package kvfile

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/demon-mining/demon/internal/diskio"
)

// The kvfile: store URL scheme. Options:
//
//	sync=N         fsync-batch every N mutations (default 1)
//
// Importing this package (a blank import is enough) makes
// diskio.Open("kvfile:PATH") work.
func init() {
	diskio.RegisterScheme("kvfile", func(path string, opts map[string]string) (diskio.Store, error) {
		if path == "" {
			return nil, fmt.Errorf("kvfile: store URL needs a file path")
		}
		var o Options
		for k, v := range opts {
			switch k {
			case "sync":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("kvfile: bad sync option %q (want integer >= 1)", v)
				}
				o.SyncEvery = n
			default:
				return nil, fmt.Errorf("kvfile: unknown store option %q", k)
			}
		}
		// Parent directories are created like FileStore creates its root,
		// so "kvfile:DIR/store.kv" works on a fresh data directory.
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("kvfile: %w", err)
			}
		}
		return Open(path, o)
	})
}
