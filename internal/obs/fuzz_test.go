package obs

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
)

// FuzzParseText feeds arbitrary bytes to the Prometheus text parser,
// the one decoder in the repository whose input comes from an HTTP
// response body (the lockd admin smoke test scrapes /metrics through
// it). It must never panic, and whatever it accepts must survive the
// registry's own rendering: the samples written back out with
// writeSample and formatFloat, the functions behind WriteTo, must parse
// again to the same names, labels and values. Seeds:
// testdata/fuzz/FuzzParseText — a scrape of a running lockd's /metrics
// after a few claims, one of them timed out, whole and cut to its
// histogram family, plus the lines TestParseTextRejectsMalformed and the
// exposition golden construct.
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		samples, err := ParseText(bytes.NewReader(in))
		if err != nil {
			return
		}
		var b strings.Builder
		for _, s := range samples {
			names := make([]string, 0, len(s.Labels))
			for name := range s.Labels {
				names = append(names, name)
			}
			sort.Strings(names)
			values := make([]string, len(names))
			for i, name := range names {
				values[i] = s.Labels[name]
			}
			writeSample(&b, s.Name, names, values, "", "", formatFloat(s.Value))
		}
		again, err := ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("accepted input re-serialised to text ParseText rejects: %v\n%s", err, b.String())
		}
		if len(again) != len(samples) {
			t.Fatalf("%d samples re-serialised to %d", len(samples), len(again))
		}
		for i, want := range samples {
			got := again[i]
			same := got.Value == want.Value || math.IsNaN(got.Value) && math.IsNaN(want.Value)
			if got.Name != want.Name || !same || len(got.Labels) != len(want.Labels) {
				t.Fatalf("sample %d: %+v re-serialised to %+v", i, want, got)
			}
			for name, v := range want.Labels {
				if got.Labels[name] != v {
					t.Fatalf("sample %d label %s: %q re-serialised to %q", i, name, v, got.Labels[name])
				}
			}
		}
	})
}
