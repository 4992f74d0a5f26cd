package core

import (
	"cmp"
	"slices"
)

// Merger is the min-over-instances combine w̃d(v,s) = min_i b(i)·hd_i(v,s)
// of §3, computed one node at a time. It is the single implementation
// behind both consumers of the combine: Run, which keeps each node's σ
// smallest estimates as its output list, and oracle.Compile, which indexes
// every detected source.
//
// For node v it walks the instances in ascending order and keeps, per
// source, the first estimate with the strictly smallest float64(dist)·b(i)
// product — minimum distance, ties to the lowest instance (and, within
// one instance, to the earliest list entry, as detection.Result.Lookup
// does). The scratch is dense over source ids (best value, seen mark and
// a touched list), so a merge costs O(Σ_i |L_i(v)|) with no hashing and no
// allocation once the touched list has grown to the widest node.
//
// A Merger is not safe for concurrent use.
type Merger struct {
	best    []Estimate
	seen    []bool
	touched []int32
}

// NewMerger returns a Merger for results over n nodes; every source id
// must lie in [0, n), as node ids do.
func NewMerger(n int) *Merger {
	return &Merger{best: make([]Estimate, n), seen: make([]bool, n)}
}

// Merge combines node v's per-instance lists of r and returns the
// detected sources in first-detection order; Best reports each one's
// winning estimate. The returned slice is the Merger's scratch: the
// caller may reorder it, and it is overwritten by the next Merge.
func (m *Merger) Merge(r *Result, v int) []int32 {
	for _, s := range m.touched {
		m.seen[s] = false
	}
	m.touched = m.touched[:0]
	for i, inst := range r.Instances {
		for _, e := range inst.Det.Lists[v] {
			d := float64(e.Dist) * inst.Base
			if !m.seen[e.Src] {
				m.seen[e.Src] = true
				m.touched = append(m.touched, e.Src)
			} else if d >= m.best[e.Src].Dist {
				continue
			}
			m.best[e.Src] = Estimate{Dist: d, Src: e.Src, Via: e.Via, Instance: int32(i), Flag: e.Flag}
		}
	}
	return m.touched
}

// Best returns the winning estimate for a source the last Merge returned.
func (m *Merger) Best(s int32) Estimate { return m.best[s] }

// outputLists is Run's combine: for each of r's n nodes, the merged
// estimates sorted by (Dist, Src) and capped at σ — the lists L_v of
// Definition 2.2. Src is unique among a node's winners, so (Dist, Src)
// is a total order and the lists do not depend on the merge order.
func outputLists(r *Result, n, sigma int) [][]Estimate {
	lists := make([][]Estimate, n)
	m := NewMerger(n)
	var winners []Estimate
	for v := 0; v < n; v++ {
		winners = winners[:0]
		for _, s := range m.Merge(r, v) {
			winners = append(winners, m.Best(s))
		}
		slices.SortFunc(winners, func(a, b Estimate) int {
			return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Src, b.Src))
		})
		lists[v] = make([]Estimate, min(len(winners), sigma))
		copy(lists[v], winners)
	}
	return lists
}
