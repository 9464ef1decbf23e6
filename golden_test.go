package chaos

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden corpus pins the observable outputs that must not move when
// the engine's internals are refactored: the result-cache fingerprint of
// a table of option shapes (the disk result store and the WAL are keyed
// by it), the DES Result and full Report of every algorithm — simulated
// seconds and the Figure-17 breakdown included — and the native plane's
// seed-deterministic outputs (result summaries, iterations, byte
// counters; wall-clock and steal counters vary run to run and are left
// out). Regenerate deliberately with
//
//	go test -run TestGoldenCorpus -update-golden .
//
// and explain every changed entry in the commit that changes it.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current tree")

const goldenPath = "testdata/golden.json"

// goldenCorpus is the on-disk shape of testdata/golden.json. Entries are
// kept as raw JSON so a comparison is byte-for-byte.
type goldenCorpus struct {
	Fingerprints map[string]string          `json:"fingerprints"`
	DES          map[string]json.RawMessage `json:"des"`
	Native       map[string]json.RawMessage `json:"native"`
}

// goldenFingerprintCases covers the defaults, every option away from its
// default, the hdd/1g hardware pair, the native engine and a nonzero seed.
func goldenFingerprintCases() map[string]Options {
	return map[string]Options{
		"defaults":          {},
		"lab4":              labOptions(4),
		"hdd-1g":            {Storage: HDD, Network: Net1GigE},
		"native":            {Engine: EngineNative},
		"native-lab4":       {Engine: EngineNative, Machines: 4, ChunkBytes: 4 << 10, Seed: 1},
		"engine-alias-des":  {Engine: "des"},
		"seed":              {Seed: 99},
		"machines":          {Machines: 3},
		"cores":             {Cores: 8},
		"chunkBytes":        {ChunkBytes: 1 << 10},
		"vertexChunkBytes":  {VertexChunkBytes: 1 << 9},
		"memBudgetBytes":    {MemBudgetBytes: 1 << 20},
		"memoryBudgetMB":    {MemoryBudgetMB: 12},
		"batchK":            {BatchK: 7},
		"windowOverride":    {WindowOverride: 9},
		"alpha":             {Alpha: 2.5},
		"disableStealing":   {DisableStealing: true},
		"alwaysSteal":       {AlwaysSteal: true},
		"checkpointEvery":   {CheckpointEvery: 2},
		"failAtIteration":   {FailAtIteration: 3, CheckpointEvery: 1},
		"centralDirectory":  {CentralDirectory: true},
		"combineUpdates":    {CombineUpdates: true},
		"rewriteEdges":      {RewriteEdges: true},
		"replicateVertices": {ReplicateVertices: true},
		"maxIterations":     {MaxIterations: 42},
		"latencyScale":      {LatencyScale: 0.25},
	}
}

// goldenRun is one pinned engine run.
type goldenRun struct {
	alg string
	opt Options
}

// goldenRuns lists every algorithm under the lab options (with a memory
// budget small enough for several partitions per machine, so stealing
// and multi-partition streaming are exercised) plus the extension
// shapes: update combining, edge rewriting, and checkpoint with an
// injected failure and rollback.
func goldenRuns(engine string) map[string]goldenRun {
	base := labOptions(4)
	base.MemBudgetBytes = 1 << 8
	base.Engine = engine
	runs := make(map[string]goldenRun)
	for _, alg := range Algorithms() {
		runs[alg] = goldenRun{alg, base}
	}
	combine := base
	combine.CombineUpdates = true
	runs["PR+combine"] = goldenRun{"PR", combine}
	rewrite := base
	rewrite.RewriteEdges = true
	runs["MCST+rewrite"] = goldenRun{"MCST", rewrite}
	ckpt := base
	ckpt.CheckpointEvery, ckpt.FailAtIteration = 2, 3
	runs["PR+ckpt+fail"] = goldenRun{"PR", ckpt}
	return runs
}

// nativeGolden is the seed-deterministic part of a native run.
type nativeGolden struct {
	Result          *Result `json:"result"`
	Iterations      int     `json:"iterations"`
	BytesRead       int64   `json:"bytesRead"`
	BytesWritten    int64   `json:"bytesWritten"`
	CheckpointBytes int64   `json:"checkpointBytes"`
	Recoveries      int     `json:"recoveries"`
}

// computeGolden runs the whole corpus on the current tree.
func computeGolden(t *testing.T) goldenCorpus {
	t.Helper()
	c := goldenCorpus{
		Fingerprints: make(map[string]string),
		DES:          make(map[string]json.RawMessage),
		Native:       make(map[string]json.RawMessage),
	}
	for name, opt := range goldenFingerprintCases() {
		c.Fingerprints[name] = opt.Fingerprint()
	}
	edges := make(map[string][]Edge)
	graphFor := func(alg string) []Edge {
		if _, ok := edges[alg]; !ok {
			edges[alg] = GenerateRMAT(6, NeedsWeights(alg), 42)
		}
		return edges[alg]
	}
	mustJSON := func(v any) json.RawMessage {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for name, r := range goldenRuns(EngineSim) {
		res, rep, err := RunByNameResult(r.alg, graphFor(r.alg), 0, r.opt)
		if err != nil {
			t.Fatalf("des %s: %v", name, err)
		}
		c.DES[name] = mustJSON(struct {
			Result *Result `json:"result"`
			Report *Report `json:"report"`
		}{res, rep})
	}
	for name, r := range goldenRuns(EngineNative) {
		res, rep, err := RunByNameResult(r.alg, graphFor(r.alg), 0, r.opt)
		if err != nil {
			t.Fatalf("native %s: %v", name, err)
		}
		c.Native[name] = mustJSON(nativeGolden{
			Result: res, Iterations: rep.Iterations,
			BytesRead: rep.BytesRead, BytesWritten: rep.BytesWritten,
			CheckpointBytes: rep.CheckpointBytes, Recoveries: rep.Recoveries,
		})
	}
	return c
}

// TestGoldenCorpus compares the current tree against the committed
// corpus entry by entry.
func TestGoldenCorpus(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading corpus (regenerate with -update-golden): %v", err)
	}
	var want goldenCorpus
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	t.Run("fingerprints", func(t *testing.T) {
		checkKeys(t, want.Fingerprints, got.Fingerprints)
		for name, fp := range want.Fingerprints {
			if g, ok := got.Fingerprints[name]; ok && g != fp {
				t.Errorf("%s: fingerprint moved:\n got %s\nwant %s", name, g, fp)
			}
		}
	})
	for _, section := range []struct {
		name      string
		want, got map[string]json.RawMessage
	}{
		{"des", want.DES, got.DES},
		{"native", want.Native, got.Native},
	} {
		t.Run(section.name, func(t *testing.T) {
			checkKeys(t, section.want, section.got)
			for name, w := range section.want {
				g, ok := section.got[name]
				if !ok {
					continue
				}
				var compact bytes.Buffer
				if err := json.Compact(&compact, w); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(compact.Bytes(), g) {
					t.Errorf("%s moved:\n got %s\nwant %s", name, g, compact.Bytes())
				}
			}
		})
	}
}

// checkKeys reports entries present on only one side.
func checkKeys[T any](t *testing.T, want, got map[string]T) {
	t.Helper()
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in the corpus but not produced", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: produced but not in the corpus", name)
		}
	}
}
