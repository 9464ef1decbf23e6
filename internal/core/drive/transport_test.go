package drive

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"chaos/internal/algorithms"
	"chaos/internal/graph"
	"chaos/internal/partition"
	"chaos/internal/storage"
)

func testKernel(t *testing.T, np int) *Kernel[algorithms.PRVertex, float32, float64] {
	t.Helper()
	layout, err := partition.FixedLayout(1<<10, 1, np)
	if err != nil {
		t.Fatal(err)
	}
	return NewKernel(&algorithms.PageRank{Iterations: 1}, layout)
}

// TestReleaseRecsRetentionBound pins the pool-retention fix: a scratch
// record slice whose encoded-equivalent capacity exceeds RetainBytes is
// dropped on release instead of parked in the pool, so one giant
// iteration cannot pin its peak allocation for the rest of the run.
func TestReleaseRecsRetentionBound(t *testing.T) {
	k := testKernel(t, 2)
	k.RetainBytes = 1 << 10
	oversized := (k.RetainBytes/k.UpdBytes)*2 + 7 // distinctive cap, over bound
	k.ReleaseRecs(make([]UpdRec[float32], 0, oversized))
	if got := k.GrabRecs(); cap(got) == oversized {
		t.Fatalf("oversized slice (cap %d) came back from the pool despite RetainBytes=%d",
			oversized, k.RetainBytes)
	}
	// A compliant slice is retained: put-then-get on one goroutine
	// returns the same backing array (per-P pool, nothing intervenes).
	// Retried because the race detector makes sync.Pool drop puts at
	// random — one retained round trip out of 32 proves the path.
	retained := false
	for i := 0; i < 32 && !retained; i++ {
		ok := make([]UpdRec[float32], 0, 8)
		k.ReleaseRecs(ok)
		retained = cap(k.GrabRecs()) == cap(ok)
	}
	if !retained {
		t.Fatal("in-bound slices are never retained by the pool")
	}
}

// TestReleaseBufRetentionBound is the byte-buffer analogue.
func TestReleaseBufRetentionBound(t *testing.T) {
	k := testKernel(t, 2)
	k.RetainBytes = 1 << 10
	oversized := k.RetainBytes*2 + 7
	k.ReleaseBuf(make([]byte, 0, oversized))
	if got := k.GrabBuf(); cap(got) == oversized {
		t.Fatalf("oversized buffer (cap %d) came back from the pool despite RetainBytes=%d",
			oversized, k.RetainBytes)
	}
}

// chunkOf builds one update chunk with recognizable payloads.
func chunkOf(base int, n int) []UpdRec[float32] {
	recs := make([]UpdRec[float32], n)
	for i := range recs {
		recs[i] = UpdRec[float32]{Dst: graph.VertexID(base + i), Val: float32(base) + float32(i)/16}
	}
	return recs
}

// drainAll drains dst's buckets from sources 0..np-1 in ascending order,
// loading and releasing every chunk, and returns the concatenated record
// sequence (the fold order the gather path sees).
func drainAll[U any](tr Transport[U], np, dst int) []UpdRec[U] {
	var seq []UpdRec[U]
	for src := 0; src < np; src++ {
		for _, pc := range tr.DrainFrom(dst, src) {
			recs := pc.Load()
			seq = append(seq, recs...)
			pc.Release(recs)
		}
	}
	return seq
}

// TestMemTransportFoldOrder checks the zero-copy transport hands chunks
// back in (source partition, production) order with contents intact.
func TestMemTransportFoldOrder(t *testing.T) {
	k := testKernel(t, 3)
	tr := k.NewMemTransport()
	// Interleave producers: src 2 first, then 0, then 2 again, then 1.
	var want []UpdRec[float32]
	puts := []struct{ src, base int }{{2, 100}, {0, 200}, {2, 300}, {1, 400}}
	for _, p := range puts {
		c := chunkOf(p.base, 5)
		if sb, sn := tr.Put(p.src, 1, append([]UpdRec[float32](nil), c...)); sb != 0 || sn != 0 {
			t.Fatalf("MemTransport.Put reported spilling (%d, %d)", sb, sn)
		}
	}
	// Fold order: src ascending, each src's chunks in production order.
	for _, p := range []struct{ src, base int }{{0, 200}, {1, 400}, {2, 100}, {2, 300}} {
		want = append(want, chunkOf(p.base, 5)...)
	}
	if got := tr.PendingBytes(1); got != int64(len(want))*int64(k.UpdBytes) {
		t.Fatalf("PendingBytes = %d, want %d", got, int64(len(want))*int64(k.UpdBytes))
	}
	seq := drainAll[float32](tr, k.Layout.NumPartitions, 1)
	if len(seq) != len(want) {
		t.Fatalf("drained %d records, want %d", len(seq), len(want))
	}
	for i := range seq {
		if seq[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, seq[i], want[i])
		}
	}
	if tr.PendingBytes(1) != 0 {
		t.Error("column still pending after drain")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// drainChunks drains bucket (src, dst) and returns each chunk's records
// as its own slice (aliasing the transport), plus the chunks' Bytes.
func drainChunks[U any](tr Transport[U], dst, src int) (chunks [][]UpdRec[U], bytes []int64) {
	for _, pc := range tr.DrainFrom(dst, src) {
		recs := pc.Load()
		chunks = append(chunks, recs)
		bytes = append(bytes, pc.Bytes)
		pc.Release(recs)
	}
	return chunks, bytes
}

// equalRecs reports whether two record sequences match element-wise.
func equalRecs(a, b []UpdRec[float32]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMemTransportDrainsPutsInOrder pins the resident-bucket contract:
// draining bucket (src, dst) yields exactly one chunk per Put, in
// production order, each with its Put's records and Bytes — so the
// gather's fold sequence, byte tallies and chunk counts are those of
// the Puts themselves — including Puts that outgrow the bucket's
// capacity and open a new segment.
func TestMemTransportDrainsPutsInOrder(t *testing.T) {
	k := testKernel(t, 3)
	tr := k.NewMemTransport()
	sizes := []int{5, 1, 9, 3, 7}
	var want [][]UpdRec[float32]
	for i, n := range sizes {
		c := chunkOf(100*i, n)
		want = append(want, c)
		tr.Put(2, 1, append([]UpdRec[float32](nil), c...))
		// Other buckets of the row and column interleave.
		tr.Put(2, 0, chunkOf(900, 2))
		tr.Put(0, 1, chunkOf(800, 2))
	}
	got, bytes := drainChunks[float32](tr, 1, 2)
	if len(got) != len(want) {
		t.Fatalf("drained %d chunks, want one per Put (%d)", len(got), len(want))
	}
	for i := range want {
		if !equalRecs(got[i], want[i]) {
			t.Fatalf("chunk %d: got %+v, want %+v", i, got[i], want[i])
		}
		if wb := int64(len(want[i])) * int64(k.UpdBytes); bytes[i] != wb {
			t.Errorf("chunk %d: Bytes = %d, want %d", i, bytes[i], wb)
		}
	}
	if again := tr.DrainFrom(1, 2); len(again) != 0 {
		t.Errorf("second drain returned %d chunks, want none", len(again))
	}
	if got, want := tr.PendingBytes(1), int64(2*len(sizes))*int64(k.UpdBytes); got != want {
		t.Errorf("PendingBytes(1) = %d after draining src 2, want src 0's %d", got, want)
	}
}

// TestMemTransportReusesBuckets checks that a drained bucket keeps its
// backing array: the next round's Puts land in the same memory, and the
// next drain returns only that round's records.
func TestMemTransportReusesBuckets(t *testing.T) {
	k := testKernel(t, 2)
	tr := k.NewMemTransport()
	tr.Put(0, 1, chunkOf(100, 6))
	tr.Put(0, 1, chunkOf(200, 4))
	first, _ := drainChunks[float32](tr, 1, 0)
	if len(first) != 2 {
		t.Fatalf("first round drained %d chunks, want 2", len(first))
	}
	base := &first[0][0]

	tr.Put(0, 1, chunkOf(300, 3))
	second, _ := drainChunks[float32](tr, 1, 0)
	if len(second) != 1 || !equalRecs(second[0], chunkOf(300, 3)) {
		t.Fatalf("second round drained %+v, want only chunk 300", second)
	}
	if &second[0][0] != base {
		t.Error("second round did not reuse the first round's backing array")
	}
}

// TestMemTransportCloseReleasesRecords checks that a closed transport
// pins none of its records: a pointer to a finished run's transport can
// survive in a stale stack slot, and it must not keep the run's update
// buckets live.
func TestMemTransportCloseReleasesRecords(t *testing.T) {
	k := testKernel(t, 2)
	tr := k.NewMemTransport()
	segs := fillAndWatch(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for i, w := range segs {
		if w.Value() != nil {
			t.Errorf("segment %d is still live after Close", i)
		}
	}
	runtime.KeepAlive(tr)
}

// fillAndWatch Puts one chunk into two buckets, drains them and returns
// weak pointers to the segments that hold their records, so only tr
// keeps the segments live once it returns.
func fillAndWatch(tr *MemTransport[float32]) []weak.Pointer[UpdRec[float32]] {
	tr.Put(0, 1, chunkOf(100, 64))
	tr.Put(1, 0, chunkOf(200, 64))
	var segs []weak.Pointer[UpdRec[float32]]
	for _, b := range [][2]int{{1, 0}, {0, 1}} {
		chunks := tr.DrainFrom(b[0], b[1])
		segs = append(segs, weak.Make(&chunks[0].Load()[0]))
	}
	return segs
}

// TestMemTransportConcurrentRounds runs the native store's discipline
// under the race detector: one producer goroutine per source row, one
// consumer per destination column draining each source as its
// completion closes, over two rounds of the same buckets. Each column
// must see every source's chunks in (source, production) order.
func TestMemTransportConcurrentRounds(t *testing.T) {
	const np, puts, per = 4, 5, 8
	k := testKernel(t, np)
	tr := k.NewMemTransport()
	chunk := func(round, src, dst, i int) []UpdRec[float32] {
		return chunkOf(((round*np+src)*np+dst)*puts*per+i*per, per)
	}
	for round := 0; round < 2; round++ {
		done := make([]chan struct{}, np)
		for i := range done {
			done[i] = make(chan struct{})
		}
		var wg sync.WaitGroup
		wg.Add(2 * np)
		for src := 0; src < np; src++ {
			go func(src int) {
				defer wg.Done()
				for i := 0; i < puts; i++ {
					for dst := 0; dst < np; dst++ {
						tr.Put(src, dst, chunk(round, src, dst, i))
						_ = tr.PendingBytes((dst + 1) % np)
					}
				}
				close(done[src])
			}(src)
		}
		errs := make([]string, np)
		for dst := 0; dst < np; dst++ {
			go func(dst int) {
				defer wg.Done()
				for src := 0; src < np; src++ {
					<-done[src]
					got, _ := drainChunks[float32](tr, dst, src)
					for i := 0; i < puts; i++ {
						if i >= len(got) || !equalRecs(got[i], chunk(round, src, dst, i)) {
							errs[dst] = "column drained out of order"
							return
						}
					}
				}
			}(dst)
		}
		wg.Wait()
		for dst, e := range errs {
			if e != "" {
				t.Fatalf("round %d, dst %d: %s", round, dst, e)
			}
		}
	}
}

// TestSpillTransportRoundTrip forces every chunk through the disk path
// (budget 0 keeps nothing resident) and checks the drained fold order
// and contents match production order exactly, streams are truncated
// after the last release, and the cleanup hook runs on Close.
func TestSpillTransportRoundTrip(t *testing.T) {
	k := testKernel(t, 3)
	backend, err := storage.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cleaned := false
	tr := k.NewSpillTransport(0, backend, func() error { cleaned = true; return nil })

	var want []UpdRec[float32]
	for _, p := range []struct{ src, base int }{{1, 100}, {0, 200}, {1, 300}} {
		c := chunkOf(p.base, 4)
		sb, sn := tr.Put(p.src, 2, append([]UpdRec[float32](nil), c...))
		if sb == 0 || sn == 0 {
			t.Fatalf("zero budget should spill every Put, got (%d, %d)", sb, sn)
		}
	}
	for _, p := range []struct{ src, base int }{{0, 200}, {1, 100}, {1, 300}} {
		want = append(want, chunkOf(p.base, 4)...)
	}

	st := tr.Stats()
	if st.SpillBytes != int64(len(want))*int64(k.UpdBytes) {
		t.Errorf("SpillBytes = %d, want %d", st.SpillBytes, int64(len(want))*int64(k.UpdBytes))
	}
	if st.SpillFiles != 2 { // streams (0,2) and (1,2)
		t.Errorf("SpillFiles = %d, want 2", st.SpillFiles)
	}
	if got := tr.PendingBytes(2); got != int64(len(want))*int64(k.UpdBytes) {
		t.Errorf("PendingBytes = %d, want %d", got, int64(len(want))*int64(k.UpdBytes))
	}

	seq := drainAll[float32](tr, k.Layout.NumPartitions, 2)
	if len(seq) != len(want) {
		t.Fatalf("drained %d records, want %d", len(seq), len(want))
	}
	for i := range seq {
		if seq[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, seq[i], want[i])
		}
	}
	// The last Release of a column's spilled chunks truncates its streams.
	for _, stream := range []string{"upd.s0000.d0002", "upd.s0001.d0002"} {
		if sz, err := backend.Size(stream); err != nil || sz != 0 {
			t.Errorf("stream %s not truncated after drain: size %d, err %v", stream, sz, err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Error("cleanup hook did not run on Close")
	}
}

// TestStreamingDrainFoldOrder pins the DrainFrom contract on both
// transports: consuming source by source — interleaved with later
// sources still producing, as the pipelined phases do — yields exactly
// the (source partition, chunk production) record sequence, and
// PendingBytes tracks the undrained remainder atomically.
// The spilling arm runs under a budget that spills part of src 0's
// bucket, so the drained sequence interleaves a spilled prefix with the
// resident tail mid-stream.
func TestStreamingDrainFoldOrder(t *testing.T) {
	k := testKernel(t, 3)
	backend, err := storage.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const chunkRecs = 6
	// Budget fits two chunks: src 0's third Put spills its bucket, the
	// fourth chunk stays resident — DrainFrom(1, 0) must hand back the
	// spilled prefix then the mem tail.
	budget := int64(2*chunkRecs+1) * int64(k.UpdBytes)
	transports := map[string]Transport[float32]{
		"mem":   k.NewMemTransport(),
		"spill": k.NewSpillTransport(budget, backend, nil),
	}
	for _, name := range []string{"mem", "spill"} {
		tr := transports[name]
		t.Run(name, func(t *testing.T) {
			var want0, want2 []UpdRec[float32]
			for i := 0; i < 4; i++ {
				c := chunkOf(100*i, chunkRecs)
				want0 = append(want0, c...)
				tr.Put(0, 1, append([]UpdRec[float32](nil), c...))
			}
			// Source 1 emitted nothing; source 2 produces AFTER source 0
			// is already drained (the streaming interleave).
			var got []UpdRec[float32]
			drainFrom := func(src int) {
				for _, pc := range tr.DrainFrom(1, src) {
					recs := pc.Load()
					got = append(got, recs...)
					pc.Release(recs)
				}
			}
			drainFrom(0)
			if len(got) != len(want0) {
				t.Fatalf("src 0 drained %d records, want %d", len(got), len(want0))
			}
			for _, base := range []int{500, 600} {
				c := chunkOf(base, chunkRecs)
				want2 = append(want2, c...)
				tr.Put(2, 1, append([]UpdRec[float32](nil), c...))
			}
			if gotP, wantP := tr.PendingBytes(1), int64(len(want2))*int64(k.UpdBytes); gotP != wantP {
				t.Errorf("PendingBytes after partial drain = %d, want %d", gotP, wantP)
			}
			drainFrom(1)
			drainFrom(2)
			want := append(append([]UpdRec[float32](nil), want0...), want2...)
			if len(got) != len(want) {
				t.Fatalf("drained %d records, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d: got %+v, want %+v (streaming fold order broken)", i, got[i], want[i])
				}
			}
			if tr.PendingBytes(1) != 0 {
				t.Error("column still pending after full streamed drain")
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if st := transports["spill"].Stats(); st.SpillBytes == 0 {
		t.Error("spill arm never spilled; the spilled-prefix interleave went unexercised")
	}
}

// TestSpillTransportPartialSpill puts chunks under a budget that spills
// some but not all: the drained sequence must still be exactly the
// production sequence (spilled prefix, then the in-memory tail).
func TestSpillTransportPartialSpill(t *testing.T) {
	k := testKernel(t, 2)
	backend, err := storage.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const chunkRecs = 8
	// Budget fits two chunks; the third Put tips over and spills the
	// bucket, the fourth stays resident.
	budget := int64(2*chunkRecs+1) * int64(k.UpdBytes)
	tr := k.NewSpillTransport(budget, backend, nil)
	var want []UpdRec[float32]
	for i := 0; i < 4; i++ {
		c := chunkOf(100*i, chunkRecs)
		want = append(want, c...)
		tr.Put(0, 1, append([]UpdRec[float32](nil), c...))
	}
	if st := tr.Stats(); st.SpillBytes == 0 {
		t.Fatal("budget was never exceeded; test is vacuous")
	}
	seq := drainAll[float32](tr, k.Layout.NumPartitions, 1)
	if len(seq) != len(want) {
		t.Fatalf("drained %d records, want %d", len(seq), len(want))
	}
	for i := range seq {
		if seq[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v (spill/mem fold order broken)", i, seq[i], want[i])
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
