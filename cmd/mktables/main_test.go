package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunDeterministic: two runs at the same seed into fresh directories
// write byte-identical trees, gold standard included.
func TestRunDeterministic(t *testing.T) {
	for _, wiki := range []bool{false, true} {
		a, b := t.TempDir(), t.TempDir()
		na, err := run(a, 5, wiki)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := run(b, 5, wiki)
		if err != nil {
			t.Fatal(err)
		}
		if na != nb || na == 0 {
			t.Fatalf("wiki=%v: runs wrote %d and %d tables", wiki, na, nb)
		}
		entries, err := os.ReadDir(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != na+1 {
			t.Fatalf("wiki=%v: %d files, want %d tables plus gold.tsv", wiki, len(entries), na)
		}
		for _, e := range entries {
			da, err := os.ReadFile(filepath.Join(a, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			db, err := os.ReadFile(filepath.Join(b, e.Name()))
			if err != nil {
				t.Fatalf("wiki=%v: second run did not write %s: %v", wiki, e.Name(), err)
			}
			if !bytes.Equal(da, db) {
				t.Fatalf("wiki=%v: %s differs between runs at the same seed", wiki, e.Name())
			}
		}
	}
}
