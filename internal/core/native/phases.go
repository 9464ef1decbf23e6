package native

import (
	"slices"
	"sync"

	"chaos/internal/core/drive"
	"chaos/internal/graph"
)

// ---------------------------------------------------------------------------
// Pre-processing (§3): one pass over the input edge list, binning edges
// by source partition into chunks, counting out-degrees if the program
// wants them, then initializing the resident vertex sets. Machines bin
// their input slices concurrently; per-partition chunk lists are
// concatenated in machine order so the edge stream every later scatter
// sees is deterministic.

func (r *run[V, U, A]) preprocess(edges []graph.Edge) {
	np := r.layout.NumPartitions
	perMachine := drive.SplitInput(edges, r.nm)
	edgeSize := r.kern.EdgeFmt.EdgeSize()
	limit := drive.SpillLimit(r.cfg.ChunkBytes, edgeSize)
	needDeg := r.prog.NeedsDegrees()

	type binned struct {
		chunks [][][]byte // per partition
		deg    [][]uint32 // per partition, nil unless needDeg
	}
	bins := make([]binned, r.nm)
	var wg sync.WaitGroup
	wg.Add(r.nm)
	for m := 0; m < r.nm; m++ {
		go func(m int) {
			defer wg.Done()
			t0 := r.elapsed()
			b := &bins[m]
			b.chunks = make([][][]byte, np)
			if needDeg {
				b.deg = make([][]uint32, np)
			}
			tails := make([][]byte, np)
			for _, e := range perMachine[m] {
				p := r.layout.Of(e.Src)
				buf := tails[p]
				off := len(buf)
				buf = append(buf, make([]byte, edgeSize)...)
				r.kern.EdgeFmt.Encode(buf[off:], e)
				if len(buf) >= limit {
					b.chunks[p] = append(b.chunks[p], buf)
					buf = nil
				}
				tails[p] = buf
				if needDeg {
					deg := b.deg[p]
					if deg == nil {
						deg = make([]uint32, r.layout.Size(p))
						b.deg[p] = deg
					}
					lo, _ := r.layout.Range(p)
					deg[e.Src-lo]++
				}
			}
			for p, buf := range tails {
				if len(buf) > 0 {
					b.chunks[p] = append(b.chunks[p], buf)
				}
			}
			if r.cfg.Trace != nil {
				var nchunks int
				var binnedBytes int64
				for _, chunks := range b.chunks {
					nchunks += len(chunks)
					binnedBytes += storedBytes(chunks)
				}
				r.cfg.Trace(drive.Span{
					Iter: -1, Machine: m, Part: -1, Phase: drive.PhasePreprocess,
					Start: int64(t0), Dur: int64(r.elapsed() - t0),
					Chunks:  nchunks,
					BytesIn: int64(len(perMachine[m]) * edgeSize), BytesOut: binnedBytes,
				})
			}
		}(m)
	}
	wg.Wait()

	// Concatenate in machine order (the deterministic stream order) and
	// fold degrees.
	var degAcc [][]uint32
	if needDeg {
		degAcc = make([][]uint32, np)
	}
	for m := range bins {
		for p, chunks := range bins[m].chunks {
			for _, c := range chunks {
				r.edges[p] = append(r.edges[p], c)
				r.bytesWritten.Add(int64(len(c)))
			}
		}
		if needDeg {
			for p, deg := range bins[m].deg {
				if deg == nil {
					continue
				}
				if degAcc[p] == nil {
					degAcc[p] = make([]uint32, r.layout.Size(p))
				}
				for i, d := range deg {
					degAcc[p][i] += d
				}
			}
		}
	}

	// Initialize vertex values straight into the resident store. Init
	// may keep private program state (it runs on the simulation thread
	// under the DES driver), so this stays on one goroutine. No bytes
	// move — the store is the decoded values themselves — so nothing is
	// tallied here; vertex bytes only count where the codec runs
	// (checkpoints and their restore).
	for p := 0; p < np; p++ {
		size := r.layout.Size(p)
		if size == 0 {
			continue
		}
		lo, _ := r.layout.Range(p)
		verts := make([]V, size)
		var deg []uint32
		if needDeg {
			deg = degAcc[p]
		}
		for i := range verts {
			var d uint32
			if deg != nil {
				d = deg[i]
			}
			r.prog.Init(lo+graph.VertexID(i), &verts[i], d)
		}
		r.verts[p] = verts
	}
}

// ---------------------------------------------------------------------------
// Checkpoint encode: the one recurring place vertex bytes still move.

// encodeVertices encodes partition p's resident vertex set into
// fixed-geometry chunks for the §6.6 checkpoint shadow copy (phase 1),
// returning the chunk list and its total encoded bytes.
func (r *run[V, U, A]) encodeVertices(p int) ([][]byte, int64) {
	verts := r.verts[p]
	per := r.cfg.VertexChunkBytes / r.kern.VBytes
	if per < 1 {
		per = 1
	}
	n := (len(verts) + per - 1) / per
	chunks := make([][]byte, 0, n)
	var encoded int64
	for idx := 0; idx < n; idx++ {
		lo := idx * per
		hi := min(lo+per, len(verts))
		data := r.kern.VCodec.EncodeSlice(verts[lo:hi])
		chunks = append(chunks, data)
		encoded += int64(len(data))
	}
	r.bytesWritten.Add(encoded)
	r.ckptBytes.Add(encoded)
	return chunks, encoded
}

// storedBytes sums a chunk list's encoded lengths (flight-recorder
// tallies and the scatter steal criterion's D).
func storedBytes(chunks [][]byte) int64 {
	var n int64
	for _, c := range chunks {
		n += int64(len(c))
	}
	return n
}

// ---------------------------------------------------------------------------
// Scatter phase (§5.1): stream the partition's edge chunks in order, run
// the shared typed scatter kernel over the resident vertex values, and
// merge each chunk's result into the update transport as it goes: record
// slices move into the per-(src, dst) buckets zero-copy, and only a
// spilling transport ever encodes them.

func (r *run[V, U, A]) scatterPartition(iter, mach, p int, stolen bool) {
	kern := r.kern
	t0 := r.elapsed()
	var bytesIn, bytesOut int64
	verts := r.verts[p]
	chunks := r.edges[p]

	combined := r.combined // nil unless combining
	var combinedPer int
	if kern.Combiner != nil {
		if combined[p] == nil {
			combined[p] = make([]map[graph.VertexID]U, r.layout.NumPartitions)
		}
		combinedPer = max(r.cfg.ChunkBytes/kern.UpdBytes, 1)
	}
	var nextTail []byte
	edgeLimit := drive.SpillLimit(r.cfg.ChunkBytes, kern.EdgeFmt.EdgeSize())
	var spillBytes int64
	var spillChunks int

	for _, data := range chunks {
		r.bytesRead.Add(int64(len(data)))
		bytesIn += int64(len(data))
		var out drive.ScatterOut[U]
		kern.ScatterChunkTyped(iter, p, verts, data, &out)
		if kern.Rewriter != nil && len(out.EdgesNext) > 0 {
			bytesOut += int64(len(out.EdgesNext))
			nextTail = r.appendSpill(&r.edgesNext[p], nextTail, out.EdgesNext, edgeLimit)
		}
		if kern.Combiner != nil {
			for tp, chunkMap := range out.Combined {
				if len(chunkMap) == 0 {
					continue
				}
				mp := combined[p][tp]
				if mp == nil {
					mp = make(map[graph.VertexID]U, combinedPer)
					combined[p][tp] = mp
				}
				for dst, val := range chunkMap {
					if old, ok := mp[dst]; ok {
						mp[dst] = kern.Combiner.Combine(old, val)
					} else {
						mp[dst] = val
					}
				}
				if len(mp) >= combinedPer {
					enc, sb, sn := r.flushCombined(p, tp, mp)
					bytesOut += enc
					spillBytes += sb
					spillChunks += sn
				}
			}
		}
		for tp, recs := range out.Typed {
			if len(recs) == 0 {
				continue
			}
			sz := int64(len(recs)) * int64(kern.UpdBytes)
			bytesOut += sz
			r.bytesWritten.Add(sz)
			// Ownership of the record slice transfers to the transport;
			// nil the slot so ReleaseScatterOut leaves it alone.
			out.Typed[tp] = nil
			sb, sn := r.tr.Put(p, tp, recs)
			spillBytes += sb
			spillChunks += sn
		}
		kern.ReleaseScatterOut(&out)
	}

	// Flush the remaining combined updates at phase end.
	if kern.Combiner != nil {
		for tp, mp := range combined[p] {
			if len(mp) > 0 {
				enc, sb, sn := r.flushCombined(p, tp, mp)
				bytesOut += enc
				spillBytes += sb
				spillChunks += sn
			}
		}
	}
	if len(nextTail) > 0 {
		r.putEdgeNextChunk(p, nextTail)
	}
	if spillChunks > 0 && r.cfg.Trace != nil {
		r.cfg.Trace(drive.Span{
			Iter: iter, Machine: mach, Part: p, Phase: drive.PhaseSpill, Stolen: stolen,
			Start: int64(t0), Dur: int64(r.elapsed() - t0),
			Chunks: spillChunks, BytesOut: spillBytes,
		})
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace(drive.Span{
			Iter: iter, Machine: mach, Part: p, Phase: drive.PhaseScatter, Stolen: stolen,
			Start: int64(t0), Dur: int64(r.elapsed() - t0),
			Chunks: len(chunks), BytesIn: bytesIn, BytesOut: bytesOut,
		})
	}
}

// appendSpill appends b to buf, pushing full chunks of exactly limit
// bytes into dst as they fill. Spilled slices join the store and must
// not be reused, so the remainder is copied to fresh backing.
func (r *run[V, U, A]) appendSpill(dst *[][]byte, buf, b []byte, limit int) []byte {
	buf = append(buf, b...)
	for len(buf) >= limit {
		chunk := buf[:limit:limit]
		*dst = append(*dst, chunk)
		r.bytesWritten.Add(int64(limit))
		rest := buf[limit:]
		if len(rest) == 0 {
			return nil
		}
		buf = append(make([]byte, 0, limit), rest...)
	}
	return buf
}

func (r *run[V, U, A]) putEdgeNextChunk(p int, data []byte) {
	r.edgesNext[p] = append(r.edgesNext[p], data)
	r.bytesWritten.Add(int64(len(data)))
}

// flushCombined hands one destination partition's combined updates to
// the transport as a single sorted chunk, returning the
// encoded-equivalent bytes plus any spill the Put triggered. Keys are
// sorted so the record order — and with it downstream gather order and
// any float folds — is deterministic (identical discipline to the DES
// driver). The map is cleared, not discarded: it lives in r.combined
// and is reused across iterations.
func (r *run[V, U, A]) flushCombined(src, dst int, mp map[graph.VertexID]U) (encoded, spilledBytes int64, spilledChunks int) {
	if len(mp) == 0 {
		return 0, 0, 0
	}
	dsts := make([]graph.VertexID, 0, len(mp))
	for d := range mp {
		dsts = append(dsts, d)
	}
	slices.Sort(dsts)
	recs := r.kern.GrabRecs()
	for _, d := range dsts {
		recs = append(recs, drive.UpdRec[U]{Dst: d, Val: mp[d]})
	}
	clear(mp)
	encoded = int64(len(recs)) * int64(r.kern.UpdBytes)
	r.bytesWritten.Add(encoded)
	spilledBytes, spilledChunks = r.tr.Put(src, dst, recs)
	return encoded, spilledBytes, spilledChunks
}

// ---------------------------------------------------------------------------
// Gather + apply phase (§5.2, §5.3): stream the partition's update
// chunks in (source partition, chunk) order — the deterministic fold
// order — decoding and folding each source's chunks as soon as that
// source's scatter completes, then apply to the resident vertex set.

func (r *run[V, U, A]) gatherPartition(iter, mach, p int, stolen bool) {
	t0 := r.elapsed()
	var bytesIn int64
	var nchunks int
	verts := r.verts[p]
	accums := r.accums[p]
	for i := range accums {
		accums[i] = r.prog.InitAccum()
	}
	lo, _ := r.layout.Range(p)

	// Stream the transport's chunks for this partition source by source:
	// wait for each source's scatter-completion signal, drain its bucket
	// (the streaming edge of the pipeline — in the pinned (source
	// partition, chunk) order, sources ascending), and load and fold each
	// chunk in place (a slice hand-back for resident chunks, a
	// read+decode for spilled ones).
	for src := 0; src < r.layout.NumPartitions; src++ {
		<-r.scatterDone[src]
		for _, pc := range r.tr.DrainFrom(p, src) {
			r.bytesRead.Add(pc.Bytes)
			nchunks++
			bytesIn += pc.Bytes
			recs := pc.Load()
			for i := range recs {
				u := &recs[i]
				accums[u.Dst-lo] = r.prog.Gather(accums[u.Dst-lo], u.Val, &verts[u.Dst-lo])
			}
			pc.Release(recs)
		}
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace(drive.Span{
			Iter: iter, Machine: mach, Part: p, Phase: drive.PhaseGather, Stolen: stolen,
			Start: int64(t0), Dur: int64(r.elapsed() - t0),
			Chunks: nchunks, BytesIn: bytesIn,
		})
	}
	applyT0 := r.elapsed()

	// Apply (serialized across partitions; see applyMu). The source loop
	// above waited on all NumPartitions scatterDone channels, so Apply —
	// which mutates the resident values scatters read — still runs
	// strictly after every scatter of this iteration.
	r.applyMu.Lock()
	var changed uint64
	for i := range verts {
		if r.prog.Apply(iter, lo+graph.VertexID(i), &verts[i], accums[i]) {
			changed++
		}
	}
	r.applyMu.Unlock()
	r.changed.Add(changed)

	// Stage the checkpoint shadow copy (phase 1 of §6.6) — the one
	// recurring boundary vertex bytes still cross under the resident
	// store.
	var stored int64
	if r.checkpointDue(iter) {
		r.ckptPending[p], stored = r.encodeVertices(p)
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace(drive.Span{
			Iter: iter, Machine: mach, Part: p, Phase: drive.PhaseApply, Stolen: stolen,
			Start: int64(applyT0), Dur: int64(r.elapsed() - applyT0),
			BytesOut: stored,
		})
	}
	// The consumed update set was deleted by the drains above (§6.1):
	// this goroutine owns column p of the transport's buckets from each
	// source's completion signal on, and the last released spilled chunk
	// truncates each bucket's spill stream.
}
