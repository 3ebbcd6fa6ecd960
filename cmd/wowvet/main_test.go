package main

import (
	"os"
	"testing"
)

func TestPatternArgumentIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"./..."}, {"./internal/..."}, {"help", "./..."}} {
		if got := run(args); got != 2 {
			t.Errorf("run(%q) = %d, want 2", args, got)
		}
	}
}

func TestOutsideModuleRootIsError(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	if got := run(nil); got != 2 {
		t.Errorf("run from a directory without go.mod = %d, want 2", got)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if got := run([]string{"help"}); got != 0 {
		t.Errorf("run(help) = %d, want 0", got)
	}
}
