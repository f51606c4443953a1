package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoSleepsOrPacing keeps devices and load honest: nothing in the
// benchmark may wait on a timer, so every measured delay is real work.
func TestNoSleepsOrPacing(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := []string{"time.Sleep", "time.Tick", "time.After", "time.NewTimer", "time.NewTicker"}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, word := range banned {
			if strings.Contains(string(b), word) {
				t.Errorf("%s uses %s", f, word)
			}
		}
	}
}
