package deadapi_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/deadapi"
)

func TestDeadAPI(t *testing.T) {
	analysistest.Run(t, "testdata/deadapi", []*analysis.Analyzer{deadapi.Analyzer}, "lib", "app", "bench")
}

func TestDeadAPIClean(t *testing.T) {
	analysistest.Run(t, "testdata/clean", []*analysis.Analyzer{deadapi.Analyzer}, "lib", "app")
}
