package main

import (
	"math"
	"slices"
	"testing"
)

// One native machine's timeline, shaped like the driver emits it: a
// spill span inside its scatter, a steal sweep that stole a gather,
// and gaps nothing covers (waiting outside any span).
func machineTimeline() []interval {
	return []interval{
		{Label: "preprocess", Start: 0, End: 100},
		{Label: "scatter", Start: 100, End: 400},
		{Label: "spill", Start: 250, End: 380}, // inside scatter
		{Label: "steal", Start: 400, End: 420},
		{Label: "gather", Start: 430, End: 600},
		{Label: "steal", Start: 600, End: 800},
		{Label: "gather", Start: 650, End: 750}, // stolen, inside the sweep
		{Label: "apply", Start: 800, End: 850},
	}
}

func TestNestedSelfTimesSubtractChildren(t *testing.T) {
	self := selfByLabel([][]interval{machineTimeline()})
	want := map[string]int64{
		"preprocess": 100,
		"scatter":    300 - 130,
		"spill":      130,
		"steal":      20 + (200 - 100),
		"gather":     170 + 100,
		"apply":      50,
	}
	for label, w := range want {
		if self[label] != w {
			t.Errorf("%s self = %d, want %d", label, self[label], w)
		}
	}
}

// The parts of a timeline must add up to no more than its wall: summed
// raw durations double-count the nested spans (the native-spill
// coverage above 1 that motivated self time), self times do not.
func TestSelfTimesSumToBusyTime(t *testing.T) {
	tl := machineTimeline()
	var raw, self int64
	for _, iv := range tl {
		raw += iv.dur()
	}
	for _, st := range nestedSelfTimes(tl) {
		self += st
	}
	const wall, idle = 850, 10 // the 420..430 gap
	if self != wall-idle {
		t.Errorf("self times sum to %d, want busy time %d", self, wall-idle)
	}
	if raw <= wall {
		t.Fatalf("fixture lost its nesting: raw sum %d <= wall %d", raw, wall)
	}
}

// A service job's run span holds its checkpoint (the result-store
// write); the engine tier is the run's self time.
func TestCheckpointInsideRun(t *testing.T) {
	run := interval{Label: "run", Start: 1_000, End: 51_000}
	kids := []interval{{Label: "checkpoint", Start: 49_000, End: 50_500}}
	if got := selfTime(run, kids); got != 48_500 {
		t.Errorf("run self = %d, want 48500", got)
	}
	// Overlapping and out-of-range children are counted once and
	// clipped to the parent.
	kids = append(kids, interval{Start: 50_000, End: 52_000}, interval{Start: 0, End: 500})
	if got := selfTime(run, kids); got != 48_000 {
		t.Errorf("run self with overlaps = %d, want 48000", got)
	}
}

func TestPartsShare(t *testing.T) {
	// Preprocess 0.10 s, iterations ending at 0.30, 0.45, 0.60 s, call
	// wall 0.62 s: parts 0.60 s, iteration walls 0.20, 0.15, 0.15.
	iters, share := partsShare(0.10, []float64{0.30, 0.45, 0.60}, 0.62)
	want := []float64{0.20, 0.15, 0.15}
	for i := range want {
		if math.Abs(iters[i]-want[i]) > 1e-12 {
			t.Errorf("iteration %d wall = %g, want %g", i, iters[i], want[i])
		}
	}
	if math.Abs(share-0.60/0.62) > 1e-12 {
		t.Errorf("share = %g, want %g", share, 0.60/0.62)
	}
	if share < 0.95 || share > 1.05 {
		t.Errorf("share %g is outside the 5%% parts-sum tolerance", share)
	}
}

func TestQuantileAndSpread(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("p25 = %g, want 2", got)
	}
	if got := spread(xs); got != (4.0-2.0)/3.0 {
		t.Errorf("spread = %g, want %g", got, 2.0/3.0)
	}
}

func TestScheduleIsSeededAndHitsResubmitOlderJobs(t *testing.T) {
	w := serveWorkloads["serve-mixed"]
	a, b := schedule(w, 7, 10, 100, nil), schedule(w, 7, 10, 100, nil)
	if len(a) != 40 || len(a) != len(b) {
		t.Fatalf("schedule lengths %d and %d, want 40 (4 jobs/s for 10 s)", len(a), len(b))
	}
	freshAt := map[int64]float64{}
	hits := 0
	for i, j := range a {
		if j != b[i] {
			t.Fatalf("job %d differs between equal seeds: %+v vs %+v", i, j, b[i])
		}
		if !j.hit {
			if _, dup := freshAt[j.seed]; dup {
				t.Fatalf("fresh job %d reuses seed %d", i, j.seed)
			}
			freshAt[j.seed] = j.at
			continue
		}
		hits++
		at, ok := freshAt[j.seed]
		if !ok || at > j.at-hitMinAge {
			t.Fatalf("hit %d resubmits seed %d, want a fresh job due %gs earlier", i, j.seed, hitMinAge)
		}
	}
	if hits == 0 {
		t.Fatal("no hits scheduled")
	}
}

func TestHitScheduleResubmitsPrimedJobs(t *testing.T) {
	primed := []int64{1, 2, 3, 4}
	jobs := schedule(serveWorkloads["serve-hits"], 3, 5, 100, primed)
	if len(jobs) != 100 {
		t.Fatalf("%d jobs, want 100 (20 jobs/s for 5 s)", len(jobs))
	}
	for i, j := range jobs {
		if !j.hit || !slices.Contains(primed, j.seed) {
			t.Fatalf("job %d = %+v, want a hit on a primed seed", i, j)
		}
	}
}
