package main

import (
	"fmt"
	"math"
	"math/rand"

	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/server"
	"pde/internal/wire"
)

// Operation kinds a workload issues.
const (
	kEstimate     uint8 = iota // binary /v1/estimate or a PDE2 Estimate frame
	kNextHop                   // binary /v1/nexthop
	kRoute                     // JSON /v1/route, one pair
	kEstimateJSON              // JSON /v1/estimate
)

var kindNames = []string{"estimate", "nexthop", "route", "estimate_json"}

// reply is what one read returned, reduced to the answering generation
// and a digest of the answers; it is checked against the in-process
// reference after the timed window, so checking costs the window almost
// nothing.
type reply struct {
	kind uint8
	pool int32
	fp   uint64
	hash uint64
	got  bool // a reply arrived (failed requests leave it false)
}

func mix(h, x uint64) uint64 {
	h ^= x
	h *= 0x9E3779B97F4A7C15
	return h ^ h>>29
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func hashAnswers(as []oracle.Answer) uint64 {
	h := uint64(len(as))
	for i := range as {
		a := &as[i]
		h = mix(h, math.Float64bits(a.Est.Dist))
		h = mix(h, uint64(uint32(a.Est.Src))<<32|uint64(uint32(a.Est.Via)))
		h = mix(h, uint64(uint32(a.Est.Instance))<<16|uint64(a.Est.Flag)<<8|b2u(a.OK))
	}
	return h
}

func hashHops(hs []wire.Hop) uint64 {
	h := uint64(len(hs))
	for _, x := range hs {
		h = mix(h, uint64(uint32(x.Next))<<8|b2u(x.OK))
	}
	return h
}

func hashRoute(ok bool, path []int, w graph.Weight) uint64 {
	h := mix(uint64(len(path)), b2u(ok))
	for _, v := range path {
		h = mix(h, uint64(v))
	}
	return mix(h, uint64(w))
}

// pools holds a workload's seeded request bodies. Requests draw from
// fixed pools so answers can be checked per (generation, pool entry).
type pools struct {
	batches [][]oracle.Query // estimate / nexthop batches (or PDE2 frames)
	pairs   []server.WirePair
}

// uniformBatches draws count batches of size uniform (v, s) pairs.
func uniformBatches(r *rand.Rand, n, count, size int) [][]oracle.Query {
	out := make([][]oracle.Query, count)
	for i := range out {
		b := make([]oracle.Query, size)
		for j := range b {
			b[j] = oracle.Query{V: int32(r.Intn(n)), S: int32(r.Intn(n))}
		}
		out[i] = b
	}
	return out
}

// listBatches draws (v, s) with s taken from v's PDE output list, the
// pairs a partial sweep actually holds.
func listBatches(r *rand.Rand, res *core.Result, count, size int) [][]oracle.Query {
	n := len(res.Lists)
	out := make([][]oracle.Query, count)
	for i := range out {
		b := make([]oracle.Query, size)
		for j := range b {
			v := r.Intn(n)
			l := res.Lists[v]
			s := int32(v)
			if len(l) > 0 {
				s = l[r.Intn(len(l))].Src
			}
			b[j] = oracle.Query{V: int32(v), S: s}
		}
		out[i] = b
	}
	return out
}

// deriveHops applies the daemon's next-hop convention to answers.
func deriveHops(qs []oracle.Query, as []oracle.Answer) []wire.Hop {
	hs := make([]wire.Hop, len(qs))
	for i, q := range qs {
		switch {
		case q.V == q.S:
			hs[i] = wire.Hop{Next: q.V, OK: true}
		case as[i].OK && as[i].Est.Via >= 0:
			hs[i] = wire.Hop{Next: as[i].Est.Via, OK: true}
		default:
			hs[i] = wire.Hop{Next: -1}
		}
	}
	return hs
}

// checker verifies replies against in-process reference generations.
// gens is the ordered generation sequence the daemons should publish;
// fingerprints may repeat when an update leaves every table unchanged.
type checker struct {
	gens []*generation
	p    *pools
	memo map[[3]int]uint64
	// maxGen is the newest generation index the client has seen; a
	// reply stamped only with older generations is stale.
	maxGen int

	wrong, stale, unknown, checked int
}

func newChecker(gens []*generation, p *pools) *checker {
	return &checker{gens: gens, p: p, memo: make(map[[3]int]uint64)}
}

func (c *checker) expect(gen int, kind uint8, pool int) uint64 {
	key := [3]int{gen, int(kind), pool}
	if h, ok := c.memo[key]; ok {
		return h
	}
	g := c.gens[gen]
	var h uint64
	switch kind {
	case kEstimate, kEstimateJSON, kNextHop:
		qs := c.p.batches[pool]
		as := make([]oracle.Answer, len(qs))
		g.o.AnswerAll(qs, as)
		if kind == kNextHop {
			h = hashHops(deriveHops(qs, as))
		} else {
			h = hashAnswers(as)
		}
	case kRoute:
		pr := c.p.pairs[pool]
		rt, err := g.rtr.Route(int(pr.From), pr.To)
		if err != nil {
			h = hashRoute(false, nil, 0)
		} else {
			h = hashRoute(true, rt.Path, rt.Weight)
		}
	}
	c.memo[key] = h
	return h
}

// check verifies one reply, in the order the client received them.
// Requests that got no reply are already counted as failed by their
// phase.
func (c *checker) check(r *reply) {
	if !r.got {
		return
	}
	c.checked++
	gen := -1
	for i := c.maxGen; i < len(c.gens); i++ {
		if c.gens[i].fp == r.fp {
			gen = i
			break
		}
	}
	if gen < 0 {
		for i := 0; i < c.maxGen && i < len(c.gens); i++ {
			if c.gens[i].fp == r.fp {
				c.stale++
				return
			}
		}
		c.unknown++
		return
	}
	c.maxGen = gen
	if c.expect(gen, r.kind, int(r.pool)) != r.hash {
		c.wrong++
	}
}

func (c *checker) bad() int { return c.wrong + c.stale + c.unknown }

func (c *checker) String() string {
	return fmt.Sprintf("%d replies checked: %d wrong, %d stale generation, %d unknown fingerprint", c.checked, c.wrong, c.stale, c.unknown)
}
