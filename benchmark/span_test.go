package main

import (
	"slices"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	sp := func(parent int32, start, end int64) span { return span{parent: parent, start: start, end: end} }
	for _, tc := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"no spans", nil, []int64{}},
		{"lone span", []span{sp(-1, 10, 50)}, []int64{40}},
		{"empty span", []span{sp(-1, 10, 10)}, []int64{0}},
		{"sequential children", []span{sp(-1, 0, 100), sp(0, 10, 30), sp(0, 40, 90)}, []int64{30, 20, 50}},
		{"nested", []span{sp(-1, 0, 100), sp(0, 10, 90), sp(1, 20, 30)}, []int64{20, 70, 10}},
		{"overlapping children count once", []span{sp(-1, 0, 100), sp(0, 10, 60), sp(0, 40, 80)}, []int64{30, 50, 40}},
		{"child inside another child", []span{sp(-1, 0, 100), sp(0, 10, 60), sp(0, 20, 30)}, []int64{50, 50, 10}},
		{"child clipped to parent", []span{sp(-1, 10, 50), sp(0, 0, 20), sp(0, 40, 70)}, []int64{20, 20, 30}},
		{"empty child", []span{sp(-1, 0, 10), sp(0, 5, 5)}, []int64{10, 0}},
		{"children recorded out of order", []span{sp(-1, 0, 100), sp(0, 50, 70), sp(0, 10, 20)}, []int64{70, 20, 10}},
		{"child covers parent", []span{sp(-1, 10, 20), sp(0, 0, 30)}, []int64{0, 30}},
	} {
		if got := selfTimes(tc.spans); !slices.Equal(got, tc.want) {
			t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTimesByKindKeepsTheWindow(t *testing.T) {
	l := &spanLog{spans: []span{
		{kind: spExecute, parent: -1, start: 0, end: 9},    // ends before the window
		{kind: spExecute, parent: -1, start: 5, end: 40},   // inside
		{kind: spAcquire, parent: 1, start: 10, end: 30},   // inside, child
		{kind: spExecute, parent: -1, start: 50, end: 100}, // ends at the window's close
	}}
	st := timesByKind([]*spanLog{l}, 10, 100)
	if !slices.Equal(st.total[spExecute], []int64{35}) || !slices.Equal(st.self[spExecute], []int64{15}) {
		t.Errorf("execute: total %v self %v, want [35] and [15]", st.total[spExecute], st.self[spExecute])
	}
	if !slices.Equal(st.total[spAcquire], []int64{20}) {
		t.Errorf("acquire: total %v, want [20]", st.total[spAcquire])
	}
}

func TestCutAssignsSamplesToSlices(t *testing.T) {
	bounds := []usage{{at: 100}, {at: 200, cpu: 50, allocBytes: 1000}, {at: 300, cpu: 80, allocBytes: 1600}}
	w := cut([]sample{
		{end: 250, lat: 7}, {end: 99, lat: 1}, {end: 100, lat: 2}, {end: 199, lat: 3, failed: true}, {end: 300, lat: 9},
	}, bounds)
	if w.attempted != 3 || w.failed != 1 || w.recorded != 5 || len(w.slices) != 2 {
		t.Fatalf("window %+v", w)
	}
	if s := w.slices[0]; s.ops != 2 || s.failed != 1 || !slices.Equal(s.lats, []int64{2, 3}) || s.cpu != 50 || s.allocBytes != 1000 {
		t.Errorf("first slice %+v", s)
	}
	if s := w.slices[1]; s.ops != 1 || !slices.Equal(s.lats, []int64{7}) || s.cpu != 30 || s.allocBytes != 600 {
		t.Errorf("second slice %+v", s)
	}
}
