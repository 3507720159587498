package diskio

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// The byte-identity oracles — crash sweeps, restart digests, the lab's
// scaling table — all compare "every key and value of a store"; these are
// the one reading of that phrase. They live here rather than beside the
// conformance suite because this package's own tests use them too, and a
// package's tests cannot import a package that imports it.

// each visits every key and value of the store in sorted key order.
func each(s Store, visit func(key string, val []byte)) error {
	keys, err := s.Keys("")
	if err != nil {
		return fmt.Errorf("diskio: listing store: %w", err)
	}
	for _, k := range keys {
		v, err := s.Get(k)
		if err != nil {
			return fmt.Errorf("diskio: reading %s: %w", k, err)
		}
		visit(k, v)
	}
	return nil
}

// Dump snapshots every key and value of the store for exact comparison.
func Dump(s Store) (map[string]string, error) {
	dump := make(map[string]string)
	err := each(s, func(k string, v []byte) { dump[k] = string(v) })
	return dump, err
}

// Digest hashes every key and value of the store in sorted key order.
func Digest(s Store) (string, error) {
	h := sha256.New()
	err := each(s, func(k string, v []byte) {
		fmt.Fprintf(h, "%s\x00%d\x00", k, len(v))
		h.Write(v)
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// DiffDumps describes how two dumps differ, for failure messages; it is
// empty exactly when they are equal.
func DiffDumps(got, want map[string]string) string {
	var lines []string
	for k := range want {
		if _, ok := got[k]; !ok {
			lines = append(lines, "missing key "+k)
		}
	}
	for k, v := range got {
		w, ok := want[k]
		switch {
		case !ok:
			lines = append(lines, "extra key "+k)
		case v != w:
			lines = append(lines, fmt.Sprintf("key %s differs (%d vs %d bytes)", k, len(v), len(w)))
		}
	}
	sort.Strings(lines)
	if len(lines) > 12 {
		lines = append(lines[:12], fmt.Sprintf("... and %d more", len(lines)-12))
	}
	return strings.Join(lines, "\n")
}
