package analysis_test

import (
	"testing"

	"granulock/internal/analysis"
	"granulock/internal/analysis/analysistest"
)

// Each analyzer runs over a deliberately broken fixture package under
// testdata/src/ and must produce exactly the findings its `// want`
// comments declare — no more, no fewer.

func TestAtomicWord(t *testing.T) { analysistest.Run(t, analysis.AtomicWord, "atomicword") }

func TestHotPath(t *testing.T) { analysistest.Run(t, analysis.HotPath, "hotpath") }

func TestErrTaxonomy(t *testing.T) { analysistest.Run(t, analysis.ErrTaxonomy, "errtaxonomy") }

func TestMetricName(t *testing.T) { analysistest.Run(t, analysis.MetricName, "metricname") }

func TestByName(t *testing.T) {
	for _, a := range analysis.All {
		got, ok := analysis.ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) = %v, %v; want the registered analyzer", a.Name, got, ok)
		}
	}
	if _, ok := analysis.ByName("nosuch"); ok {
		t.Error(`ByName("nosuch") succeeded`)
	}
}
