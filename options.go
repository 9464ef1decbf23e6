package chaos

import (
	"fmt"
	"strconv"
	"strings"
)

// String returns the flag/API spelling of the storage device ("ssd" or
// "hdd"), the inverse of ParseStorage.
func (s Storage) String() string {
	if s == HDD {
		return "hdd"
	}
	return "ssd"
}

// String returns the flag/API spelling of the network ("40g" or "1g"),
// the inverse of ParseNetwork.
func (n Network) String() string {
	if n == Net1GigE {
		return "1g"
	}
	return "40g"
}

// ParseAlgorithm resolves a case-insensitive algorithm name to its
// canonical Table 1 spelling ("pagerank" and "pr" both mean "PR").
func ParseAlgorithm(name string) (string, error) {
	aliases := map[string]string{
		"pagerank": "PR", "conductance": "Cond",
	}
	if canon, ok := aliases[strings.ToLower(name)]; ok {
		return canon, nil
	}
	for _, a := range Algorithms() {
		if strings.EqualFold(a, name) {
			return a, nil
		}
	}
	return "", errUnknownAlgorithm(name)
}

// ParseStorage resolves a storage-device name; the empty string means the
// default SSD.
func ParseStorage(name string) (Storage, error) {
	switch strings.ToLower(name) {
	case "", "ssd":
		return SSD, nil
	case "hdd":
		return HDD, nil
	}
	return SSD, fmt.Errorf("chaos: unknown storage %q (want ssd or hdd)", name)
}

// ParseNetwork resolves a network name; the empty string means the
// default 40 GigE.
func ParseNetwork(name string) (Network, error) {
	switch strings.ToLower(name) {
	case "", "40g", "40gige":
		return Net40GigE, nil
	case "1g", "1gige":
		return Net1GigE, nil
	}
	return Net40GigE, fmt.Errorf("chaos: unknown network %q (want 40g or 1g)", name)
}

// ParseEngine resolves an execution-engine name; the empty string and
// "des" mean the default discrete-event-simulation driver. Every front
// end (-engine flags, the job API's "engine" option) routes through it
// so the names and error messages match everywhere.
func ParseEngine(name string) (string, error) {
	switch strings.ToLower(name) {
	case "", "sim", "des":
		return EngineSim, nil
	case "native":
		return EngineNative, nil
	}
	return "", fmt.Errorf("chaos: unknown engine %q (want sim or native)", name)
}

// ParseOptions validates the string-typed knobs shared by the CLIs and
// the job service — algorithm, storage and network names — and returns
// the canonical algorithm name plus base with the parsed hardware
// applied. An empty algorithm skips algorithm resolution (for callers
// that only need the hardware), and empty storage/network strings leave
// the paper defaults. Routing every front end through this one helper
// keeps their validation and error messages identical.
func ParseOptions(alg, storage, network string, base Options) (string, Options, error) {
	canon := ""
	if alg != "" {
		var err error
		canon, err = ParseAlgorithm(alg)
		if err != nil {
			return "", base, err
		}
	}
	st, err := ParseStorage(storage)
	if err != nil {
		return "", base, err
	}
	net, err := ParseNetwork(network)
	if err != nil {
		return "", base, err
	}
	base.Storage = st
	base.Network = net
	return canon, base, nil
}

// Canonical returns o with every implied default made explicit, such that
// two Options produce identical runs over the same input if and only if
// their canonical forms are equal, and running the canonical form behaves
// exactly like running o. The job service keys its result cache on the
// canonical form so that, e.g., {Seed: 0} and {Seed: 1} share one entry.
//
// The explicit values must stay in lockstep with the engine defaults
// (cluster.SSD, core.DefaultConfig, Config.normalize): if a default
// changes there without changing here, equal fingerprints would no
// longer imply equal runs. TestCanonicalRunEquivalence sweeps option
// shapes to catch such drift.
func (o Options) Canonical() Options {
	c := o
	if c.Machines <= 0 {
		c.Machines = 1
	}
	if c.Storage != HDD {
		c.Storage = SSD
	}
	if c.Network != Net1GigE {
		c.Network = Net40GigE
	}
	if c.Cores <= 0 {
		c.Cores = 16
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 4 << 20
	}
	if c.VertexChunkBytes <= 0 {
		c.VertexChunkBytes = c.ChunkBytes
	}
	if c.MemBudgetBytes < 0 {
		c.MemBudgetBytes = 0
	}
	if c.MemoryBudgetMB < 0 {
		c.MemoryBudgetMB = 0
	}
	if c.BatchK <= 0 {
		c.BatchK = 5
	}
	if c.WindowOverride < 0 {
		c.WindowOverride = 0
	}
	// Fold the three stealing knobs into one canonical triple: the
	// engine resolves DisableStealing, then AlwaysSteal, then Alpha, with
	// alpha = 1 the paper default when none is set.
	switch {
	case c.DisableStealing:
		c.Alpha, c.AlwaysSteal = 0, false
	case c.AlwaysSteal:
		c.Alpha = 0
	case c.Alpha <= 0:
		c.Alpha = 1
	}
	if c.CheckpointEvery < 0 {
		c.CheckpointEvery = 0
	}
	// CentralDirectory, CombineUpdates, RewriteEdges and
	// ReplicateVertices are pure feature toggles with no implied
	// defaults: their canonical form is themselves. Named here so the
	// fingerprint analyzer proves no field was forgotten instead of
	// assuming the `c := o` copy was intentional.
	_, _, _, _ = c.CentralDirectory, c.CombineUpdates, c.RewriteEdges, c.ReplicateVertices
	if c.FailAtIteration < 0 {
		c.FailAtIteration = 0
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 1000
	}
	if c.LatencyScale <= 0 {
		c.LatencyScale = 1
	}
	// Engine aliases fold to their canonical spelling; an unknown name
	// is left as-is (Canonical cannot fail) and rejected when the run
	// starts. The two engines never share a cache entry: their reports
	// differ (virtual vs wall time) and float folds may differ too.
	if eng, err := ParseEngine(c.Engine); err == nil {
		c.Engine = eng
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// fingerprintFields lists, in encoding order, the Options field each
// Fingerprint component is derived from. TestFingerprintCoversAllFields
// reflects over Options and fails when a field is added without extending
// both this table and the encoder below — the guard that keeps new fields
// from silently falling out of the result-cache key.
var fingerprintFields = []string{
	"Machines", "Storage", "Network", "Cores", "ChunkBytes",
	"VertexChunkBytes", "MemBudgetBytes", "MemoryBudgetMB", "BatchK",
	"WindowOverride",
	"Alpha", "DisableStealing", "AlwaysSteal", "CheckpointEvery",
	"FailAtIteration", "CentralDirectory", "CombineUpdates",
	"RewriteEdges", "ReplicateVertices", "MaxIterations", "LatencyScale",
	"Engine", "Seed",
}

// Fingerprint returns a deterministic string identifying the effective
// configuration. Two Options share a fingerprint exactly when their
// canonical forms are equal; the job service hashes it (together with the
// graph and algorithm) to content-address cached results.
//
// Every field is encoded explicitly, field by field. The previous
// implementation rendered the struct with fmt's %#v, which would have
// poisoned cache keys with memory addresses the moment Options grew a
// pointer, slice or map field.
func (o Options) Fingerprint() string {
	c := o.Canonical()
	var b strings.Builder
	app := func(name, val string) {
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(val)
		b.WriteByte(';')
	}
	itoa := strconv.Itoa
	ftoa := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	btoa := strconv.FormatBool
	app("machines", itoa(c.Machines))
	app("storage", c.Storage.String())
	app("network", c.Network.String())
	app("cores", itoa(c.Cores))
	app("chunkBytes", itoa(c.ChunkBytes))
	app("vertexChunkBytes", itoa(c.VertexChunkBytes))
	app("memBudgetBytes", strconv.FormatInt(c.MemBudgetBytes, 10))
	app("memoryBudgetMB", strconv.FormatInt(c.MemoryBudgetMB, 10))
	app("batchK", itoa(c.BatchK))
	app("windowOverride", itoa(c.WindowOverride))
	app("alpha", ftoa(c.Alpha))
	app("disableStealing", btoa(c.DisableStealing))
	app("alwaysSteal", btoa(c.AlwaysSteal))
	app("checkpointEvery", itoa(c.CheckpointEvery))
	app("failAtIteration", itoa(c.FailAtIteration))
	app("centralDirectory", btoa(c.CentralDirectory))
	app("combineUpdates", btoa(c.CombineUpdates))
	app("rewriteEdges", btoa(c.RewriteEdges))
	app("replicateVertices", btoa(c.ReplicateVertices))
	app("maxIterations", itoa(c.MaxIterations))
	app("latencyScale", ftoa(c.LatencyScale))
	// computeWorkers and nativeBarrier are retired options: fixed literals keep existing cache keys valid.
	app("computeWorkers", "0")
	app("engine", c.Engine)
	app("nativeBarrier", "false")
	app("seed", strconv.FormatInt(c.Seed, 10))
	return b.String()
}
