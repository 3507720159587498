package diskio

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// storeImpls returns one of each Store implementation for table-driven tests.
func storeImpls(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":  NewMemStore(),
		"file": fs,
	}
}

func TestStorePutGet(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("blocks/b1", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("blocks/b1")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "hello" {
				t.Fatalf("Get = %q, want hello", got)
			}
			// Overwrite.
			if err := s.Put("blocks/b1", []byte("world!")); err != nil {
				t.Fatal(err)
			}
			got, _ = s.Get("blocks/b1")
			if string(got) != "world!" {
				t.Fatalf("Get after overwrite = %q", got)
			}
			n, err := s.Size("blocks/b1")
			if err != nil || n != 6 {
				t.Fatalf("Size = %d, %v; want 6, nil", n, err)
			}
		})
	}
}

func TestStoreNotFound(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get missing err = %v, want ErrNotFound", err)
			}
			if _, err := s.Size("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Size missing err = %v, want ErrNotFound", err)
			}
			if err := s.Delete("missing"); err != nil {
				t.Fatalf("Delete missing err = %v, want nil", err)
			}
		})
	}
}

func TestStoreDelete(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after delete err = %v", err)
			}
		})
	}
}

func TestStoreKeys(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"tid/b1/i3", "tid/b1/i1", "tid/b2/i1", "blk/b1"} {
				if err := s.Put(k, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.Keys("tid/b1/")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"tid/b1/i1", "tid/b1/i3"}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Keys = %v, want %v", got, want)
			}
			all, err := s.Keys("")
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != 4 {
				t.Fatalf("Keys(\"\") returned %d keys, want 4", len(all))
			}
		})
	}
}

func TestStoreStats(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			payload := make([]byte, 100)
			if err := s.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("k"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("k"); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.BytesWritten != 100 || st.Writes != 1 {
				t.Fatalf("write stats = %+v", st)
			}
			if st.BytesRead != 200 || st.Reads != 2 {
				t.Fatalf("read stats = %+v", st)
			}
			// Size must not count as a read.
			if _, err := s.Size("k"); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().Reads; got != 2 {
				t.Fatalf("Size counted as read: Reads = %d", got)
			}
			s.ResetStats()
			if st := s.Stats(); st != (Stats{}) {
				t.Fatalf("after ResetStats: %+v", st)
			}
		})
	}
}

func TestStoreEmptyKeyRejected(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("", []byte("x")); err == nil {
				t.Fatal("Put with empty key succeeded")
			}
		})
	}
}

func TestFileStoreRejectsTraversal(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"../evil", "a/../b", "a//b", "sp ace"} {
		if err := fs.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q) succeeded, want error", k)
		}
	}
}

// TestFileStorePutSyncsNewDirectories: a Put that creates directories
// fsyncs the parent of each one it creates, so that a failing fsync there
// fails the Put; a Put into a directory the handle knows syncs only the
// directory its file lands in.
func TestFileStorePutSyncsNewDirectories(t *testing.T) {
	root := t.TempDir()
	var synced []string
	prev := syncDir
	t.Cleanup(func() { syncDir = prev })
	syncDir = func(dir string) error {
		rel, _ := filepath.Rel(root, dir)
		if synced = append(synced, filepath.ToSlash(rel)); rel == "x" {
			return errors.New("injected fsync failure")
		}
		return prev(dir)
	}
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a/b/k", "a/b/l"} {
		if err := s.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{".", "a", "a/b", "a/b"}; !slices.Equal(synced, want) {
		t.Errorf("fsynced %v, want %v", synced, want)
	}
	if err := s.Put("x/y/k", []byte("v")); err == nil {
		t.Error("a Put whose new directory's parent failed to fsync succeeded")
	}
}

// TestFileStorePutReusesLeftoverTemp: a crash between a Put's temp-file
// write and its rename leaves <key>.tmp behind. A reopened store's next Put
// of the key truncates and renames that same file, so a crash leaves at
// most one temp file per key.
func TestFileStorePutReusesLeftoverTemp(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "a"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "a", "k.tmp"), []byte("torn write of a longer value"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a/k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("a/k"); err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v; want \"v\"", got, err)
	}
	ents, err := os.ReadDir(filepath.Join(root, "a"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if want := []string{"k"}; !slices.Equal(names, want) {
		t.Errorf("directory holds %v after the Put, want %v", names, want)
	}
}

func TestMemStoreGetReturnsCopy(t *testing.T) {
	s := NewMemStore()
	if err := s.Put("k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("k")
	got[0] = 'X'
	again, _ := s.Get("k")
	if string(again) != "abc" {
		t.Fatal("mutating Get result corrupted stored value")
	}
}

func TestMemStoreTotalSize(t *testing.T) {
	s := NewMemStore()
	s.Put("tid/a", make([]byte, 10))
	s.Put("tid/b", make([]byte, 20))
	s.Put("blk/a", make([]byte, 40))
	if got := s.TotalSize("tid/"); got != 30 {
		t.Fatalf("TotalSize(tid/) = %d, want 30", got)
	}
	if got := s.TotalSize(""); got != 70 {
		t.Fatalf("TotalSize(\"\") = %d, want 70", got)
	}
}
