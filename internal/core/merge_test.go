package core_test

import (
	"slices"
	"testing"

	"pde/internal/core"
	"pde/internal/detection"
	"pde/internal/graph"
	"pde/internal/oracle"
)

// handBuilt assembles a core.Result from explicit per-instance detection
// lists (lists[i][v] is instance i's list at node v) and fills its output
// lists with Run's combine.
func handBuilt(bases []float64, lists [][][]detection.Entry, sigma int) *core.Result {
	n := len(lists[0])
	res := &core.Result{Params: core.Params{Sigma: sigma}}
	for i, b := range bases {
		res.Instances = append(res.Instances, &core.Instance{Base: b, Det: &detection.Result{Lists: lists[i]}})
	}
	res.Lists = core.OutputLists(res, n, sigma)
	return res
}

// TestMergeKernelCases pins the merge kernel's tie-break and truncation
// rules on hand-built results, and checks that its two consumers — Run's
// σ-capped output lists and oracle.Compile — agree with the legacy
// Result.Estimate scan on every (node, source) pair.
func TestMergeKernelCases(t *testing.T) {
	cases := []struct {
		name  string
		bases []float64
		lists [][][]detection.Entry
		sigma int
		want  []core.Estimate // node 0's output list
	}{
		{
			name:  "equal product across instances: lowest instance wins",
			bases: []float64{1, 2, 4},
			lists: [][][]detection.Entry{
				{{{Dist: 4, Src: 3, Via: 1, Flag: 5}}, nil, nil, nil},
				{{{Dist: 2, Src: 3, Via: 2, Flag: 5}}, nil, nil, nil},
				{{{Dist: 1, Src: 3, Via: 3, Flag: 5}}, nil, nil, nil},
			},
			sigma: 4,
			want:  []core.Estimate{{Dist: 4, Src: 3, Via: 1, Instance: 0, Flag: 5}},
		},
		{
			name:  "strictly smaller value in a later instance wins",
			bases: []float64{1, 2, 4},
			lists: [][][]detection.Entry{
				{{{Dist: 5, Src: 2, Via: 1}}, nil, nil, nil},
				{{{Dist: 2, Src: 2, Via: 3}}, nil, nil, nil},
				{{{Dist: 2, Src: 2, Via: 1}}, nil, nil, nil},
			},
			sigma: 4,
			want:  []core.Estimate{{Dist: 4, Src: 2, Via: 3, Instance: 1}},
		},
		{
			name:  "duplicate source inside one instance: first entry wins",
			bases: []float64{1, 2},
			lists: [][][]detection.Entry{
				{{{Dist: 2, Src: 1, Via: 1}, {Dist: 2, Src: 1, Via: 2}, {Dist: 3, Src: 1, Via: 3}}, nil, nil, nil},
				{{{Dist: 1, Src: 1, Via: 3}}, nil, nil, nil},
			},
			sigma: 4,
			want:  []core.Estimate{{Dist: 2, Src: 1, Via: 1, Instance: 0}},
		},
		{
			name:  "sigma truncation keeps the (Dist, Src) smallest",
			bases: []float64{1, 2},
			lists: [][][]detection.Entry{
				{{{Dist: 1, Src: 1, Via: 1}, {Dist: 2, Src: 2, Via: 2}, {Dist: 3, Src: 3, Via: 3}},
					{{Dist: 0, Src: 1, Via: -1}}, nil, nil},
				{{{Dist: 1, Src: 3, Via: 3}}, nil, nil, nil},
			},
			sigma: 2,
			// Source 3 merges to 2.0 (instance 1), tying source 2; the
			// tie goes to the smaller Src and σ = 2 drops source 3.
			want: []core.Estimate{{Dist: 1, Src: 1, Via: 1}, {Dist: 2, Src: 2, Via: 2}},
		},
	}
	g := graph.NewBuilder(4).AddEdge(0, 1, 1).AddEdge(0, 2, 1).AddEdge(0, 3, 1).
		AddEdge(1, 2, 1).AddEdge(1, 3, 1).AddEdge(2, 3, 1).MustBuild()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := handBuilt(tc.bases, tc.lists, tc.sigma)
			if !slices.Equal(res.Lists[0], tc.want) {
				t.Fatalf("Lists[0] = %+v, want %+v", res.Lists[0], tc.want)
			}
			o := oracle.Compile(res)
			legacy := core.NewRouter(g, res)
			for v := 0; v < g.N(); v++ {
				for s := int32(0); s < int32(g.N()); s++ {
					le, lok := res.Estimate(v, s)
					oe, ook := o.Estimate(v, s)
					if lok != ook || (lok && le != oe) {
						t.Errorf("Estimate(%d,%d): oracle %+v/%v, scan %+v/%v", v, s, oe, ook, le, lok)
					}
					ll, llok := res.Lookup(v, s)
					ol, olok := o.Lookup(v, s)
					if llok != olok || ll != ol {
						t.Errorf("Lookup(%d,%d): oracle %+v/%v, Lists %+v/%v", v, s, ol, olok, ll, llok)
					}
					lh, lhok := legacy.NextHop(v, s)
					oh, ohok := o.NextHop(v, s)
					if lh != oh || lhok != ohok {
						t.Errorf("NextHop(%d,%d): oracle %d/%v, scan %d/%v", v, s, oh, ohok, lh, lhok)
					}
				}
			}
		})
	}
}
