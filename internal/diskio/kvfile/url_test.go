package kvfile

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
)

// TestOpenURLOptions: the kvfile: scheme takes a path and sync=N, and
// refuses every other option, compact among them.
func TestOpenURLOptions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "store.kv")
	s, err := diskio.Open("kvfile:" + path + "?sync=4")
	if err != nil {
		t.Fatalf("Open(kvfile:…?sync=4): %v", err)
	}
	if err := diskio.CloseStore(s); err != nil {
		t.Fatal(err)
	}
	for url, want := range map[string]string{
		"kvfile:":                         "needs a file path",
		"kvfile:" + path + "?sync=0":      "bad sync option",
		"kvfile:" + path + "?compact=off": "unknown store option \"compact\"",
	} {
		if s, err := diskio.Open(url); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Open(%q) = %T, %v; want an error naming %q", url, s, err, want)
		}
	}
}
