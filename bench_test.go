package pde

import (
	"testing"

	"pde/internal/bench"
)

// One benchmark per reproduced table/figure. Each iteration regenerates
// the experiment's table at Quick scale; `go run ./cmd/pde-experiments`
// prints the Full-scale tables as markdown on stdout.

func BenchmarkE1APSPTheorem41(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E1APSP(bench.Quick)
	}
}

func BenchmarkE1bAPSPBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E1Baselines(bench.Quick)
	}
}

func BenchmarkE2PDESweepCorollary35(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E2PDESweep(bench.Quick)
	}
}

func BenchmarkE3Figure1LowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E3Figure1(bench.Quick)
	}
}

func BenchmarkE4MessageCapLemma34(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E4Messages(bench.Quick)
	}
}

func BenchmarkE5RTCTheorem45(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E5RTC(bench.Quick)
	}
}

func BenchmarkE6CompactHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E6Compact(bench.Quick)
	}
}

func BenchmarkE7TreeStatsLemma44(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E7Trees(bench.Quick)
	}
}

func BenchmarkE8SpannerBaswanaSen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E8Spanner(bench.Quick)
	}
}

func BenchmarkE9SchedulingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E9Ablation(bench.Quick)
	}
}
