package chaos

import (
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
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

// MarshalText encodes the storage device by its flag/API name, the form
// the job API, the journal and the -storage flag carry.
func (s Storage) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText is the inverse of MarshalText (see ParseStorage).
func (s *Storage) UnmarshalText(text []byte) (err error) {
	*s, err = ParseStorage(string(text))
	return err
}

// UnmarshalJSON accepts the name or a legacy integer (see decodeHardware).
func (s *Storage) UnmarshalJSON(data []byte) (err error) {
	*s, err = decodeHardware(data, ParseStorage)
	return err
}

// MarshalText encodes the network by its flag/API name, the form the job
// API, the journal and the -network flag carry.
func (n Network) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// UnmarshalText is the inverse of MarshalText (see ParseNetwork).
func (n *Network) UnmarshalText(text []byte) (err error) {
	*n, err = ParseNetwork(string(text))
	return err
}

// UnmarshalJSON accepts the name or a legacy integer (see decodeHardware).
func (n *Network) UnmarshalJSON(data []byte) (err error) {
	*n, err = decodeHardware(data, ParseNetwork)
	return err
}

// decodeHardware decodes a Storage or Network JSON value: its name as a
// string, or one of the integers 0 and 1 that journals and snapshots
// stored before these types had a text form. Any other JSON value is no
// valid name, so parse rejects its raw text with the usual message.
func decodeHardware[T ~int](data []byte, parse func(string) (T, error)) (T, error) {
	switch string(data) {
	case "0", "1":
		return T(data[0] - '0'), nil
	}
	var name string
	if json.Unmarshal(data, &name) != nil {
		name = string(data)
	}
	return parse(name)
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
	// defaults: their canonical form is themselves.
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

// retiredFingerprint holds the components of options that no longer
// exist, keyed by the tag of the field they followed. Emitting them as
// fixed literals keeps the cache keys of existing result stores valid.
var retiredFingerprint = map[string]string{
	"latencyScale": "computeWorkers=0;",
	"engine":       "nativeBarrier=false;",
}

var textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()

// Fingerprint returns a deterministic string identifying the effective
// configuration. Two Options share a fingerprint exactly when their
// canonical forms are equal; the job service hashes it (together with the
// graph and algorithm) to content-address cached results.
//
// It walks the canonical form's fields in declaration order and emits
// "tag=value;" for each, the tag being the field's JSON name, so no field
// can be left out of the cache key. Values are spelled as on the wire
// (MarshalText) or with strconv by kind, never with %#v, which would put
// memory addresses into cache keys once Options had a pointer, slice or
// map field.
func (o Options) Fingerprint() string {
	c := reflect.ValueOf(o.Canonical())
	var b strings.Builder
	for i := range c.NumField() {
		tag, _, _ := strings.Cut(c.Type().Field(i).Tag.Get("json"), ",")
		b.WriteString(tag)
		b.WriteByte('=')
		b.WriteString(fingerprintValue(c.Field(i)))
		b.WriteByte(';')
		b.WriteString(retiredFingerprint[tag])
	}
	return b.String()
}

// fingerprintValue spells one canonical field value. A field of a kind
// with no spelling here is a programming error, caught by
// TestFingerprintSensitivity before it can reach a cache key.
func fingerprintValue(v reflect.Value) string {
	if v.Type().Implements(textMarshalerType) {
		text, err := v.Interface().(encoding.TextMarshaler).MarshalText()
		if err != nil {
			panic(fmt.Sprintf("chaos: fingerprinting %s: %v", v.Type(), err))
		}
		return string(text)
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.String:
		return v.String()
	}
	panic("chaos: no fingerprint spelling for an Options field of kind " + v.Kind().String())
}
