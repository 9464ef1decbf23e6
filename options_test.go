package chaos

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"PR", "PR"}, {"pr", "PR"}, {"pagerank", "PR"},
		{"bfs", "BFS"}, {"Sssp", "SSSP"}, {"cond", "Cond"},
		{"conductance", "Cond"}, {"spmv", "SpMV"}, {"bp", "BP"},
	}
	for _, c := range cases {
		got, err := ParseAlgorithm(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseAlgorithm(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	if _, err := ParseAlgorithm("dijkstra"); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("ParseAlgorithm(dijkstra) err = %v, want unknown-algorithm error", err)
	}
}

func TestParseStorageAndNetwork(t *testing.T) {
	if s, err := ParseStorage(""); err != nil || s != SSD {
		t.Errorf("ParseStorage(\"\") = %v, %v", s, err)
	}
	if s, err := ParseStorage("HDD"); err != nil || s != HDD {
		t.Errorf("ParseStorage(HDD) = %v, %v", s, err)
	}
	if _, err := ParseStorage("tape"); err == nil {
		t.Error("ParseStorage(tape) should error")
	}
	if n, err := ParseNetwork("1g"); err != nil || n != Net1GigE {
		t.Errorf("ParseNetwork(1g) = %v, %v", n, err)
	}
	if n, err := ParseNetwork("40gige"); err != nil || n != Net40GigE {
		t.Errorf("ParseNetwork(40gige) = %v, %v", n, err)
	}
	if _, err := ParseNetwork("10g"); err == nil {
		t.Error("ParseNetwork(10g) should error")
	}
}

func TestParseOptionsAppliesHardware(t *testing.T) {
	alg, opt, err := ParseOptions("pagerank", "hdd", "1g", Options{Machines: 4})
	if err != nil {
		t.Fatal(err)
	}
	if alg != "PR" || opt.Storage != HDD || opt.Network != Net1GigE || opt.Machines != 4 {
		t.Errorf("got %q %+v", alg, opt)
	}
	// Empty algorithm is allowed (hardware-only callers).
	if _, _, err := ParseOptions("", "", "", Options{}); err != nil {
		t.Errorf("empty spec should parse: %v", err)
	}
	if _, _, err := ParseOptions("PR", "floppy", "", Options{}); err == nil {
		t.Error("bad storage should error")
	}
	if _, _, err := ParseOptions("nope", "", "", Options{}); err == nil {
		t.Error("bad algorithm should error")
	}
}

func TestCanonicalMakesDefaultsExplicit(t *testing.T) {
	zero := Options{}.Canonical()
	explicit := Options{
		Machines: 1, Cores: 16, ChunkBytes: 4 << 20, VertexChunkBytes: 4 << 20,
		BatchK: 5, Alpha: 1, MaxIterations: 1000, LatencyScale: 1, Seed: 1,
	}.Canonical()
	if !reflect.DeepEqual(zero, explicit) {
		t.Errorf("zero canonical %+v != explicit defaults %+v", zero, explicit)
	}
	if zero.Fingerprint() != explicit.Fingerprint() {
		t.Error("fingerprints of equivalent options differ")
	}
	if (Options{}).Fingerprint() == (Options{Machines: 2}).Fingerprint() {
		t.Error("distinct configurations share a fingerprint")
	}
}

// TestFingerprintCoversAllFields reflects over Options and checks that
// the explicit field-by-field Fingerprint encoder covers exactly the
// struct's fields: adding an Options field without teaching Fingerprint
// about it must fail this test, not silently fall out of the cache key.
func TestFingerprintCoversAllFields(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	covered := make(map[string]bool, len(fingerprintFields))
	for _, name := range fingerprintFields {
		if covered[name] {
			t.Errorf("fingerprintFields lists %s twice", name)
		}
		covered[name] = true
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("fingerprintFields lists %s, which Options does not have", name)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !covered[name] {
			t.Errorf("Options.%s is not covered by Fingerprint; extend fingerprintFields and the encoder", name)
		}
	}
	// computeWorkers and nativeBarrier are emitted as fixed literals for
	// options that no longer exist, so no field backs them.
	const retired = 2
	if len(fingerprintFields)+retired != strings.Count(Options{}.Fingerprint(), ";") {
		t.Errorf("encoder emits %d components, fingerprintFields lists %d plus %d retired",
			strings.Count(Options{}.Fingerprint(), ";"), len(fingerprintFields), retired)
	}
}

// TestFingerprintSensitivity flips every canonical-visible field away
// from its default and checks the fingerprint moves (and that the
// erased-by-canonicalization knobs don't).
func TestFingerprintSensitivity(t *testing.T) {
	base := Options{}.Fingerprint()
	cases := map[string]Options{
		"Machines":          {Machines: 3},
		"Storage":           {Storage: HDD},
		"Network":           {Network: Net1GigE},
		"Cores":             {Cores: 8},
		"ChunkBytes":        {ChunkBytes: 1 << 10},
		"VertexChunkBytes":  {VertexChunkBytes: 1 << 9},
		"MemBudgetBytes":    {MemBudgetBytes: 1 << 20},
		"BatchK":            {BatchK: 7},
		"WindowOverride":    {WindowOverride: 9},
		"Alpha":             {Alpha: 2.5},
		"DisableStealing":   {DisableStealing: true},
		"AlwaysSteal":       {AlwaysSteal: true},
		"CheckpointEvery":   {CheckpointEvery: 2},
		"FailAtIteration":   {FailAtIteration: 3, CheckpointEvery: 1},
		"CentralDirectory":  {CentralDirectory: true},
		"CombineUpdates":    {CombineUpdates: true},
		"RewriteEdges":      {RewriteEdges: true},
		"ReplicateVertices": {ReplicateVertices: true},
		"MaxIterations":     {MaxIterations: 42},
		"LatencyScale":      {LatencyScale: 0.25},
		"Seed":              {Seed: 99},
	}
	for field, opt := range cases {
		if opt.Fingerprint() == base {
			t.Errorf("changing %s does not change the fingerprint", field)
		}
	}
}

func TestCanonicalFoldsStealingKnobs(t *testing.T) {
	disabled := Options{DisableStealing: true, AlwaysSteal: true, Alpha: 3}.Canonical()
	if !disabled.DisableStealing || disabled.AlwaysSteal || disabled.Alpha != 0 {
		t.Errorf("DisableStealing canonical = %+v", disabled)
	}
	always := Options{AlwaysSteal: true, Alpha: 3}.Canonical()
	if !always.AlwaysSteal || always.Alpha != 0 {
		t.Errorf("AlwaysSteal canonical = %+v", always)
	}
	if (Options{}).Canonical().Alpha != 1 {
		t.Error("default alpha should canonicalize to 1")
	}
}

// TestCanonicalRunEquivalence checks the contract that running the
// canonical form behaves exactly like running the original options.
// Each case leaves most fields zero so that a drift between Canonical's
// explicit values and the engine defaults (cluster.SSD,
// core.DefaultConfig, Config.normalize) shows up as diverging reports.
func TestCanonicalRunEquivalence(t *testing.T) {
	edges := GenerateRMAT(6, false, 42)
	lab := Options{ChunkBytes: 1 << 10, LatencyScale: 1.0 / 4096}
	cases := map[string]Options{
		"zero-heavy":  {Machines: 2, ChunkBytes: 1 << 10, LatencyScale: 1.0 / 4096, Seed: 7},
		"defaults":    {},
		"hdd-1g":      {Storage: HDD, Network: Net1GigE, ChunkBytes: lab.ChunkBytes, LatencyScale: lab.LatencyScale},
		"no-stealing": {DisableStealing: true, Machines: 2, ChunkBytes: lab.ChunkBytes, LatencyScale: lab.LatencyScale},
		"always":      {AlwaysSteal: true, Machines: 2, ChunkBytes: lab.ChunkBytes, LatencyScale: lab.LatencyScale},
		"checkpoint":  {CheckpointEvery: 2, Machines: 2, ChunkBytes: lab.ChunkBytes, LatencyScale: lab.LatencyScale},
	}
	for name, opt := range cases {
		rep1, err := RunByName("PR", edges, 1<<6, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep2, err := RunByName("PR", edges, 1<<6, opt.Canonical())
		if err != nil {
			t.Fatalf("%s canonical: %v", name, err)
		}
		if !reflect.DeepEqual(rep1, rep2) {
			t.Errorf("%s: canonical run diverged:\n%+v\n%+v", name, rep1, rep2)
		}
	}
}

func TestViewForAndApply(t *testing.T) {
	edges := GenerateRMAT(5, false, 1)
	for _, alg := range Algorithms() {
		v, err := ViewFor(alg)
		if err != nil {
			t.Fatalf("ViewFor(%s): %v", alg, err)
		}
		switch alg {
		case "BFS", "WCC", "MCST", "MIS", "SSSP":
			if v != ViewUndirected {
				t.Errorf("ViewFor(%s) = %v, want undirected", alg, v)
			}
		case "SCC":
			if v != ViewAugmented {
				t.Errorf("ViewFor(%s) = %v, want augmented", alg, v)
			}
		default:
			if v != ViewDirected {
				t.Errorf("ViewFor(%s) = %v, want directed", alg, v)
			}
		}
	}
	if _, err := ViewFor("nope"); err == nil {
		t.Error("ViewFor(nope) should error")
	}
	// Every non-loop edge gains a reverse; self-loops are emitted once.
	loops := 0
	for _, e := range edges {
		if e.Src == e.Dst {
			loops++
		}
	}
	if got := ViewUndirected.Apply(edges); len(got) != 2*len(edges)-loops {
		t.Errorf("undirected view has %d edges, want %d", len(got), 2*len(edges)-loops)
	}
	if got := ViewDirected.Apply(edges); len(got) != len(edges) {
		t.Error("directed view must be the identity")
	}
}

// TestRunPreparedMatchesRunByName checks that dispatching through a
// pre-applied view (the job-service path) reproduces RunByName exactly.
func TestRunPreparedMatchesRunByName(t *testing.T) {
	opt := Options{ChunkBytes: 1 << 10, LatencyScale: 1.0 / 4096, Seed: 3}
	for _, alg := range []string{"BFS", "PR", "SCC"} {
		edges := GenerateRMAT(5, NeedsWeights(alg), 42)
		res1, rep1, err := RunByNameResult(alg, edges, 1<<5, opt)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		view, _ := ViewFor(alg)
		res2, rep2, err := RunPrepared(alg, view.Apply(edges), 1<<5, opt)
		if err != nil {
			t.Fatalf("%s prepared: %v", alg, err)
		}
		if !reflect.DeepEqual(res1, res2) || !reflect.DeepEqual(rep1, rep2) {
			t.Errorf("%s: prepared run diverged from RunByName", alg)
		}
	}
}

func TestRunByNameResultSummaries(t *testing.T) {
	opt := Options{ChunkBytes: 1 << 10, LatencyScale: 1.0 / 4096, Seed: 3}
	edges := GenerateRMAT(5, false, 42)
	res, _, err := RunByNameResult("BFS", edges, 1<<5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "BFS" || res.Vertices != 1<<5 {
		t.Errorf("result header %+v", res)
	}
	if res.Summary["reachable"] < 1 || res.Summary["reachable"] > 1<<5 {
		t.Errorf("implausible reachable count %v", res.Summary["reachable"])
	}
	levels, _, err := RunBFS(edges, 1<<5, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	reachable := 0
	for _, l := range levels {
		if l != ^uint32(0) {
			reachable++
		}
	}
	if float64(reachable) != res.Summary["reachable"] {
		t.Errorf("summary reachable %v != recomputed %d", res.Summary["reachable"], reachable)
	}

	// n = 0 means "infer": every algorithm, including the scalar-valued
	// Cond, must still report the inferred vertex count (one past the
	// largest vertex ID present), not 0.
	cond, _, err := RunByNameResult("Cond", edges, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(NumVertices(edges)); cond.Vertices != want || cond.Vertices == 0 {
		t.Errorf("Cond with inferred n: Vertices = %d, want %d", cond.Vertices, want)
	}
}
