package lockorder_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockorder"
)

func TestOrdering(t *testing.T) {
	analysistest.Run(t, "testdata/ordering", []*analysis.Analyzer{lockorder.Analyzer},
		"internal/txn", "b", "base", "top", "locks", "p", "q", "app")
}
