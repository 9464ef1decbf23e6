package main

import (
	"cmp"
	"slices"
)

// interval is one span reduced to what self-time accounting needs: a
// half-open time range [Start, End) in nanoseconds and a label.
type interval struct {
	Label      string
	Start, End int64
}

func (iv interval) dur() int64 { return iv.End - iv.Start }

func (iv interval) contains(o interval) bool {
	return iv.Start <= o.Start && o.End <= iv.End
}

// covered returns how much of parent the union of children covers,
// each child clipped to the parent's range.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.Start = max(c.Start, parent.Start)
		c.End = min(c.End, parent.End)
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return cmp.Compare(a.Start, b.Start) })
	var total, end int64
	end = parent.Start
	for _, c := range clipped {
		if c.End <= end {
			continue
		}
		total += c.End - max(c.Start, end)
		end = c.End
	}
	return total
}

// selfTime is a span's duration minus the part of its interval its
// children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.dur() - covered(parent, children)
}

// nestedSelfTimes computes the self time of every span on one
// timeline (one machine's spans), where nesting is implicit in the
// time ranges: each span's parent is the innermost span that contains
// it. The native driver emits a spill span inside the scatter span of
// the same partition, and a steal sweep encloses the scatters and
// gathers it stole; summing raw durations would count that time twice.
// The result is indexed like spans.
func nestedSelfTimes(spans []interval) []int64 {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	// Outer spans first: earlier start, and on a tie the longer span.
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(spans[a].Start, spans[b].Start); c != 0 {
			return c
		}
		return cmp.Compare(spans[b].End, spans[a].End)
	})
	children := make([][]interval, len(spans))
	var stack []int
	for _, i := range order {
		for len(stack) > 0 && !spans[stack[len(stack)-1]].contains(spans[i]) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			children[p] = append(children[p], spans[i])
		}
		stack = append(stack, i)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = selfTime(s, children[i])
	}
	return self
}

// selfByLabel sums nestedSelfTimes per label across several timelines.
func selfByLabel(timelines [][]interval) map[string]int64 {
	out := make(map[string]int64)
	for _, tl := range timelines {
		for i, st := range nestedSelfTimes(tl) {
			out[tl[i].Label] += st
		}
	}
	return out
}

// partsShare checks that a run's parts add up to the whole: the
// preprocess time plus every iteration's wall, divided by the wall the
// caller measured around the whole call. boundaries are the
// cumulative seconds since run start at each iteration boundary (the
// Progress stream), preprocess the seconds before the first iteration
// began. It returns the iteration walls alongside the share.
func partsShare(preprocess float64, boundaries []float64, wall float64) (iters []float64, share float64) {
	prev := preprocess
	parts := preprocess
	for _, b := range boundaries {
		iters = append(iters, b-prev)
		parts += b - prev
		prev = b
	}
	return iters, ratio(parts, wall)
}
