package drive

import (
	"fmt"
	"sync/atomic"

	"chaos/internal/storage"
)

// SpillTransport is the out-of-core transport: it keeps buckets typed and
// in memory exactly like MemTransport until the configured budget is
// exceeded, then encodes whole overflowing buckets with the kernel codec
// and appends them to one storage stream per (src, dst) pair. Drained
// buckets stream their spilled chunks back in production order — spilled
// chunks always precede a bucket's in-memory tail, so the per-(src, dst)
// record sequence, and with it every float fold, is identical to the
// all-in-memory run.
//
// Budget enforcement keeps the one-writer discipline: a Put that tips the
// total over budget spills buckets of its own source row only, so no lock
// protects bucket state; only the global byte counters and the backend
// (which serializes internally) are shared.
type SpillTransport[U any] struct {
	updBytes int
	budget   int64
	backend  storage.Backend
	cleanup  func() error

	encode      func(buf []byte, recs []UpdRec[U]) []byte
	decode      func(recs []UpdRec[U], data []byte) []UpdRec[U]
	grabBuf     func() []byte
	releaseBuf  func([]byte)
	grabRecs    func() []UpdRec[U]
	releaseRecs func([]UpdRec[U])

	memBytes   atomic.Int64
	spillBytes atomic.Int64
	spillFiles atomic.Int64

	rows []spillRow[U]
	// pending[dst] is the column's encoded-equivalent byte total
	// (spilled and resident both — the codec is fixed-width, so
	// spilling a chunk never changes its pending contribution),
	// maintained atomically so steal sweeps can read it while
	// producers are still Putting.
	pending []atomic.Int64
}

// spillRow is one source partition's buckets. Allocated per row so
// concurrent producers write disjoint backing arrays.
type spillRow[U any] struct {
	buckets []spillBucket[U]
}

// spillBucket is one (src, dst) slot: the spilled chunk refs (oldest
// first, always preceding mem in fold order) plus the in-memory tail.
type spillBucket[U any] struct {
	stream  string
	created bool       // stream file exists this run
	refs    []chunkRef // on-disk chunks, production order
	mem     [][]UpdRec[U]
}

// chunkRef locates one encoded chunk inside its bucket's stream.
type chunkRef struct {
	off int64
	n   int
}

// NewSpillTransport returns the spilling transport over the kernel's
// codec and pools. budget is the in-memory byte ceiling
// (encoded-equivalent); backend receives the overflow, one stream per
// (src, dst) bucket; cleanup (optional) runs after the backend closes,
// typically removing the spill directory.
func (k *Kernel[V, U, A]) NewSpillTransport(budget int64, backend storage.Backend, cleanup func() error) *SpillTransport[U] {
	np := k.Layout.NumPartitions
	t := &SpillTransport[U]{
		updBytes:    k.UpdBytes,
		budget:      budget,
		backend:     backend,
		cleanup:     cleanup,
		encode:      k.AppendRecs,
		decode:      k.DecodeUpdateChunk,
		grabBuf:     k.GrabBuf,
		releaseBuf:  k.ReleaseBuf,
		grabRecs:    k.GrabRecs,
		releaseRecs: k.ReleaseRecs,
		rows:        make([]spillRow[U], np),
		pending:     make([]atomic.Int64, np),
	}
	for src := 0; src < np; src++ {
		t.rows[src].buckets = make([]spillBucket[U], np)
		for dst := 0; dst < np; dst++ {
			t.rows[src].buckets[dst].stream = fmt.Sprintf("upd.s%04d.d%04d", src, dst)
		}
	}
	return t
}

// Put appends recs as one chunk of bucket (src, dst), then — if the
// in-memory total crossed the budget — spills buckets of row src until
// the total is back under budget or the row is empty.
func (t *SpillTransport[U]) Put(src, dst int, recs []UpdRec[U]) (int64, int) {
	b := &t.rows[src].buckets[dst]
	b.mem = append(b.mem, recs)
	sz := int64(len(recs)) * int64(t.updBytes)
	t.pending[dst].Add(sz)
	if t.memBytes.Add(sz) <= t.budget {
		return 0, 0
	}
	var bytes int64
	var chunks int
	for d := 0; d < len(t.rows[src].buckets) && t.memBytes.Load() > t.budget; d++ {
		n, c := t.spillBucket(src, d)
		bytes += n
		chunks += c
	}
	return bytes, chunks
}

// spillBucket encodes and writes out every in-memory chunk of bucket
// (src, dst), oldest first, preserving the record sequence on disk.
func (t *SpillTransport[U]) spillBucket(src, dst int) (int64, int) {
	b := &t.rows[src].buckets[dst]
	if len(b.mem) == 0 {
		return 0, 0
	}
	buf := t.grabBuf()
	n := len(b.mem)
	var freed, written int64
	for i, recs := range b.mem {
		buf = t.encode(buf[:0], recs)
		off, err := t.backend.Write(b.stream, buf)
		if err != nil {
			// Mid-phase spill failure is unrecoverable: the update set
			// can no longer be materialized for gather.
			panic(fmt.Sprintf("drive: spill write %s: %v", b.stream, err))
		}
		if !b.created {
			b.created = true
			t.spillFiles.Add(1)
		}
		b.refs = append(b.refs, chunkRef{off: off, n: len(buf)})
		freed += int64(len(recs)) * int64(t.updBytes)
		written += int64(len(buf))
		t.releaseRecs(recs)
		b.mem[i] = nil
	}
	b.mem = b.mem[:0]
	t.releaseBuf(buf)
	t.memBytes.Add(-freed)
	t.spillBytes.Add(written)
	return written, n
}

// PendingBytes reports dst's encoded-equivalent bytes, spilled and
// resident.
func (t *SpillTransport[U]) PendingBytes(dst int) int64 {
	return t.pending[dst].Load()
}

// DrainFrom removes and returns bucket (src, dst)'s chunks in
// production order: the spilled prefix, then the in-memory tail. The
// bucket's spill stream is truncated once its last spilled chunk is
// released.
func (t *SpillTransport[U]) DrainFrom(dst, src int) []PendingChunk[U] {
	b := &t.rows[src].buckets[dst]
	if len(b.refs) == 0 && len(b.mem) == 0 {
		return nil
	}
	out := make([]PendingChunk[U], 0, len(b.refs)+len(b.mem))
	var drained int64
	if len(b.refs) > 0 {
		state := &drainState{stream: b.stream, truncate: func(stream string) {
			if err := t.backend.Truncate(stream); err != nil {
				panic(fmt.Sprintf("drive: spill truncate %s: %v", stream, err))
			}
		}}
		state.remaining.Store(int64(len(b.refs)))
		for _, ref := range b.refs {
			ref := ref
			stream := b.stream
			drained += int64(ref.n)
			out = append(out, PendingChunk[U]{
				Bytes: int64(ref.n),
				load: func() []UpdRec[U] {
					data, err := t.backend.Read(stream, ref.off, ref.n)
					if err != nil {
						panic(fmt.Sprintf("drive: spill read %s@%d: %v", stream, ref.off, err))
					}
					return t.decode(t.grabRecs(), data)
				},
				release: func(recs []UpdRec[U]) {
					t.releaseRecs(recs)
					state.done()
				},
			})
		}
		b.refs = nil
	}
	for _, recs := range b.mem {
		recs := recs
		sz := int64(len(recs)) * int64(t.updBytes)
		drained += sz
		out = append(out, PendingChunk[U]{
			Bytes: sz,
			load:  func() []UpdRec[U] { return recs },
			release: func(recs []UpdRec[U]) {
				t.memBytes.Add(-sz)
				t.releaseRecs(recs)
			},
		})
	}
	b.mem = nil
	t.pending[dst].Add(-drained)
	return out
}

// Stats reports the run's cumulative spill tallies.
func (t *SpillTransport[U]) Stats() TransportStats {
	return TransportStats{
		SpillBytes: t.spillBytes.Load(),
		SpillFiles: int(t.spillFiles.Load()),
	}
}

// Close closes the backend and then runs the cleanup hook (spill
// directory removal), returning the first error.
func (t *SpillTransport[U]) Close() error {
	err := t.backend.Close()
	if t.cleanup != nil {
		if cerr := t.cleanup(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
