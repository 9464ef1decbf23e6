package drive

import "sync/atomic"

// Transport is the seam between update producers (scatter) and consumers
// (gather): the one place where typed update records either stay typed
// slices or become encoded bytes. A driver Puts the records partition
// src's scatter emitted for partition dst, chunk by chunk, and later
// drains partition dst's pending chunks source by source as each scatter
// completes (DrainFrom), which yields the deterministic (source
// partition, chunk) fold order when sources are drained in ascending
// order.
// Encoding is a property of crossing a real boundary — the in-memory
// transport never encodes, the spilling transport encodes exactly the
// chunks that overflow its budget onto storage, and the DES driver's
// Wire always encodes because its simulated storage engines only move
// bytes.
//
// Concurrency contract (the native store's one-writer discipline):
// bucket (src, dst) is written only by the goroutine running scatter(src)
// — including any budget-pressure spilling, which sweeps row src only —
// until scatter(src)'s completion is published (a channel close).
// Afterwards the bucket is read only by the goroutine running
// gather(dst), via DrainFrom(dst, src). The completion signal is the
// happens-before edge; no slot is ever touched from two goroutines
// without one. PendingBytes is a single atomic read, safe at any time —
// steal sweeps consult it live while producers are still Putting into
// the column.
//
// Transports never touch a clock, an RNG or a mailbox; spill I/O failure
// mid-phase is unrecoverable and panics with context.
type Transport[U any] interface {
	// Put transfers ownership of recs — one scatter chunk's worth of
	// updates from partition src to partition dst — to the transport.
	// The caller must not touch recs afterwards; the transport releases
	// it to the kernel pools once it has copied or consumed it. The
	// returned tallies report any spilling the Put triggered, so the
	// driver can emit PhaseSpill spans without the transport reading a
	// clock.
	Put(src, dst int, recs []UpdRec[U]) (spilledBytes int64, spilledChunks int)
	// PendingBytes is D in the §5.4 steal criterion: the
	// encoded-equivalent bytes pending for partition dst. A single
	// atomic read — callable concurrently with Put and DrainFrom.
	PendingBytes(dst int) int64
	// DrainFrom removes and returns only the chunks src's scatter
	// emitted for dst, in production order. Each chunk must be Loaded
	// and then Released before the bucket's next Put. Callable only
	// after scatter(src)'s completion is published.
	DrainFrom(dst, src int) []PendingChunk[U]
	// Stats reports the cumulative spill tallies of the run.
	Stats() TransportStats
	// Close releases the transport's resources (spill files included).
	Close() error
}

// TransportStats are the cumulative spill tallies of one run.
type TransportStats struct {
	// SpillBytes counts encoded bytes written to spill storage.
	SpillBytes int64
	// SpillFiles counts spill files created (one per (src, dst) stream
	// that ever overflowed).
	SpillFiles int
}

// PendingChunk is one drained update chunk awaiting its gather fold.
// Load materializes the typed records — the chunk's own records for a
// resident chunk, a read and decode for a spilled one — and Release
// returns the scratch to the kernel pools (and, for the last spilled
// chunk of a drained bucket, reclaims the bucket's spill-file space).
type PendingChunk[U any] struct {
	// Bytes is the chunk's encoded-equivalent size, for byte tallies and
	// flight-recorder spans.
	Bytes int64
	// recs is a resident chunk's records; load and release are unset.
	recs    []UpdRec[U]
	load    func() []UpdRec[U]
	release func([]UpdRec[U])
}

// Load materializes the chunk's records. Call exactly once.
func (c *PendingChunk[U]) Load() []UpdRec[U] {
	if c.load == nil {
		return c.recs
	}
	return c.load()
}

// Release recycles the records Load returned. Call exactly once, after
// the fold has consumed them.
func (c *PendingChunk[U]) Release(recs []UpdRec[U]) {
	if c.release != nil {
		c.release(recs)
	}
}

// MemTransport is the in-memory transport of the zero-copy path: typed
// records never pass through the codec, moving from scatter to gather
// through resident record segments per (src, dst) bucket. A Put copies
// its chunk into the bucket and hands the chunk's slice straight back to
// the kernel pool, so the scatter's per-chunk scratch stays hot; a drain
// empties the bucket's segments but keeps them, so once each bucket has
// held its largest iteration the path allocates nothing. Rows are
// allocated per source partition so concurrent producers write disjoint
// backing arrays.
type MemTransport[U any] struct {
	updBytes int
	release  func([]UpdRec[U])
	// buckets[src][dst] holds what src's scatter emitted for dst. One
	// writer per row during scatter, one reader per column once the
	// source completes (see the Transport contract).
	buckets [][]memBucket[U]
	// pending[dst] is the column's encoded-equivalent byte total,
	// maintained atomically so steal sweeps can read it while producers
	// are still appending.
	pending []atomic.Int64
}

// memBucket is one (src, dst) slot: one chunk per Put since the last
// drain, in production order, each a sub-slice of one of the bucket's
// segments. The segments outlive drains; a full bucket gains a segment
// rather than moving its records, so no record is copied twice.
type memBucket[U any] struct {
	chunks []PendingChunk[U]
	segs   [][]UpdRec[U]
	cur    int // the segment Puts are filling
}

// NewMemTransport returns the in-memory transport over the kernel's
// record geometry and pools.
func (k *Kernel[V, U, A]) NewMemTransport() *MemTransport[U] {
	np := k.Layout.NumPartitions
	t := &MemTransport[U]{
		updBytes: k.UpdBytes,
		release:  k.ReleaseRecs,
		buckets:  make([][]memBucket[U], np),
		pending:  make([]atomic.Int64, np),
	}
	for src := 0; src < np; src++ {
		t.buckets[src] = make([]memBucket[U], np)
	}
	return t
}

// Put copies recs into bucket (src, dst) as one chunk and releases recs
// to the kernel pool. Never spills.
func (t *MemTransport[U]) Put(src, dst int, recs []UpdRec[U]) (int64, int) {
	b := &t.buckets[src][dst]
	// A chunk never straddles segments. A Put that fits in none of the
	// remaining ones opens a segment larger than the last by half (or by
	// the Put, if that is more), so a bucket holds O(log) segments whose
	// capacity stays within a small multiple of its largest iteration.
	for b.cur < len(b.segs) && cap(b.segs[b.cur])-len(b.segs[b.cur]) < len(recs) {
		b.cur++
	}
	if b.cur == len(b.segs) {
		size := len(recs)
		if n := len(b.segs); n > 0 {
			last := cap(b.segs[n-1])
			size = last + max(last/2, len(recs))
		}
		b.segs = append(b.segs, make([]UpdRec[U], 0, size))
	}
	seg := b.segs[b.cur]
	lo := len(seg)
	seg = append(seg, recs...)
	b.segs[b.cur] = seg
	sz := int64(len(recs)) * int64(t.updBytes)
	b.chunks = append(b.chunks, PendingChunk[U]{Bytes: sz, recs: seg[lo:len(seg):len(seg)]})
	t.pending[dst].Add(sz)
	t.release(recs)
	return 0, 0
}

// PendingBytes reports the encoded-equivalent bytes pending for dst.
func (t *MemTransport[U]) PendingBytes(dst int) int64 {
	return t.pending[dst].Load()
}

// DrainFrom empties bucket (src, dst) and returns one chunk per Put, in
// production order. The chunks alias the bucket's segments and its
// chunk table: they stay valid until the bucket's next Put or drain,
// which the Transport contract places after the gather that consumes
// them.
func (t *MemTransport[U]) DrainFrom(dst, src int) []PendingChunk[U] {
	b := &t.buckets[src][dst]
	out := b.chunks
	if len(out) == 0 {
		return nil
	}
	var drained int64
	for i := range out {
		drained += out[i].Bytes
	}
	b.chunks = out[:0]
	for i := range b.segs {
		b.segs[i] = b.segs[i][:0]
	}
	b.cur = 0
	t.pending[dst].Add(-drained)
	return out
}

// Stats reports zero: the in-memory transport never spills.
func (t *MemTransport[U]) Stats() TransportStats { return TransportStats{} }

// Close drops every bucket's segments and chunk table. A pointer to
// the transport or to one of its buckets can outlive the run — a stale
// stack slot that the garbage collector scans conservatively, in a
// goroutine that reuses a finished one's stack — and must not pin a
// whole run's records.
func (t *MemTransport[U]) Close() error {
	for _, row := range t.buckets {
		clear(row)
	}
	t.buckets = nil
	return nil
}

// drainState tracks one drained bucket's outstanding spilled chunks so
// the bucket's spill stream is truncated exactly once, after the last
// spilled chunk has been folded and released.
type drainState struct {
	remaining atomic.Int64
	truncate  func(stream string)
	stream    string
}

func (d *drainState) done() {
	if d.remaining.Add(-1) == 0 {
		d.truncate(d.stream)
	}
}
