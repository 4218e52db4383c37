package core

import "math"

// This file is the (min,+) merge kernel behind computeNode (see
// DESIGN.md "SoA merge kernel"): the inner loop of SOAR-Gather's child
// merge (paper Alg. 3 lines 20-25),
//
//	newY[i] = min_{0 ≤ j ≤ min(i, cw)} y[i-j] + x[j],   i ∈ [0, hi]
//
// with the first argmin j (the lowest j attaining the minimum) recorded
// into sp. Every engine funnels its merges through mergeMinPlus, so the
// kernel's tie-break contract IS the bitwise-identity contract of the
// whole repo:
//
//   - min over a fixed candidate set of float64s is order-independent
//     (no NaNs can arise: all table values are ≥ 0 and the kernel only
//     adds; computeNode folds the red track alone, whose rows are finite,
//     but the variants stay exact on +Inf cells too), so any evaluation
//     order yields the same value;
//   - the recorded argmin must be the LOWEST j attaining that value,
//     which every variant preserves by scanning j ascending and
//     replacing only on strict <.
//
// Three variants cover the width spectrum of real instances:
//
//	merge4 / merge8   cap width ≤ 4 / ≤ 8: the candidate chain is
//	                  fully unrolled against a fixed-size x buffer
//	                  padded with +Inf, so the inner loop has no
//	                  j-bound branch at all (padded candidates can
//	                  never win a strict <, even against +Inf).
//	mergeGeneric      arbitrary width: j-outer passes over contiguous
//	                  i-ranges, keeping both streams sequential so the
//	                  compiler's bounds-check elimination and the
//	                  prefetcher see straight-line strided loads.
//
// Effective caps keep real cap widths tiny (min(k, subtree capacity)),
// so on the paper's fat-tree instances nearly every merge takes an
// unrolled variant.
//
// mergeFlat is the fourth, O(hi + cw) case computeNode routes to when
// the running row is one constant (only load-free children merged so
// far): it needs no min at all, only the first-argmin scan.

// mergeMinPlus computes the bounded (min,+) convolution above, writing
// newY[0..hi] and the first-argmin breadcrumbs sp[0..hi]. y must have
// at least hi+1 entries and x at least min(cw, hi)+1. cw is the merged
// child's effective cap.
//
//soar:hotpath
func mergeMinPlus(newY []float64, sp []int32, y, x []float64, hi, cw int) {
	if cw > hi {
		// j ≤ min(i, cw) ≤ hi: a wider child row contributes nothing
		// past column hi, and clamping here lets the variants below
		// index y[i-j] without a per-candidate guard.
		cw = hi
	}
	switch {
	case cw < 4:
		merge4(newY, sp, y, x, hi, cw)
	case cw < 8:
		merge8(newY, sp, y, x, hi, cw)
	default:
		mergeGeneric(newY, sp, y, x, hi, cw)
	}
}

// mergeScalar is the reference scan shared by the unrolled variants'
// short prefixes (i < chain width, where j is bounded by i, not cw).
// It is also the kernel's executable specification: FuzzKernelMatchesGather
// and the kernel unit tests compare every variant against it bitwise.
//
//soar:hotpath
func mergeScalar(newY []float64, sp []int32, y, x []float64, lo, hi, cw int) {
	for i := lo; i <= hi; i++ {
		best, arg := math.Inf(1), int32(0)
		jm := min(i, cw)
		for j := 0; j <= jm; j++ {
			if c := y[i-j] + x[j]; c < best {
				best, arg = c, int32(j)
			}
		}
		newY[i] = best
		sp[i] = arg
	}
}

// merge4 is the unrolled kernel for cap widths ≤ 4: x is copied into a
// fixed 4-wide register block padded with +Inf, and each output cell is
// a straight-line 4-candidate min chain. A padded candidate is +Inf and
// can never pass a strict <, so values and argmins match mergeScalar
// exactly (including all-infinite rows, where both keep arg 0).
//
//soar:hotpath
func merge4(newY []float64, sp []int32, y, x []float64, hi, cw int) {
	var xb [4]float64
	for j := 0; j <= cw; j++ {
		xb[j] = x[j]
	}
	for j := cw + 1; j < 4; j++ {
		xb[j] = math.Inf(1)
	}
	mergeScalar(newY, sp, y, x, 0, min(2, hi), cw)
	for i := 3; i <= hi; i++ {
		best, arg := y[i]+xb[0], int32(0)
		if c := y[i-1] + xb[1]; c < best {
			best, arg = c, 1
		}
		if c := y[i-2] + xb[2]; c < best {
			best, arg = c, 2
		}
		if c := y[i-3] + xb[3]; c < best {
			best, arg = c, 3
		}
		newY[i] = best
		sp[i] = arg
	}
}

// merge8 is merge4 at chain width 8, for cap widths ≤ 8.
//
//soar:hotpath
func merge8(newY []float64, sp []int32, y, x []float64, hi, cw int) {
	var xb [8]float64
	for j := 0; j <= cw; j++ {
		xb[j] = x[j]
	}
	for j := cw + 1; j < 8; j++ {
		xb[j] = math.Inf(1)
	}
	mergeScalar(newY, sp, y, x, 0, min(6, hi), cw)
	for i := 7; i <= hi; i++ {
		best, arg := y[i]+xb[0], int32(0)
		if c := y[i-1] + xb[1]; c < best {
			best, arg = c, 1
		}
		if c := y[i-2] + xb[2]; c < best {
			best, arg = c, 2
		}
		if c := y[i-3] + xb[3]; c < best {
			best, arg = c, 3
		}
		if c := y[i-4] + xb[4]; c < best {
			best, arg = c, 4
		}
		if c := y[i-5] + xb[5]; c < best {
			best, arg = c, 5
		}
		if c := y[i-6] + xb[6]; c < best {
			best, arg = c, 6
		}
		if c := y[i-7] + xb[7]; c < best {
			best, arg = c, 7
		}
		newY[i] = best
		sp[i] = arg
	}
}

// mergeGeneric handles arbitrary cap widths with j-outer passes: pass j
// streams y[0..hi-j] and newY[j..hi] sequentially with one hoisted x[j],
// so every iteration is two strided loads, an add, a compare and a
// conditional store — no inner j-bound branch, no gather. Ascending j
// with strict < replacement keeps the recorded argmin the lowest
// minimizing j, identical to the ascending i-inner scan.
//
//soar:hotpath
func mergeGeneric(newY []float64, sp []int32, y, x []float64, hi, cw int) {
	x0 := x[0]
	for i := 0; i <= hi; i++ {
		newY[i] = y[i] + x0
		sp[i] = 0
	}
	for j := 1; j <= cw; j++ {
		xj := x[j]
		for i := j; i <= hi; i++ {
			if c := y[i-j] + xj; c < newY[i] {
				newY[i] = c
				sp[i] = int32(j)
			}
		}
	}
}

// mergeFlat is mergeMinPlus for a constant running row y ≡ y0 and a
// non-increasing child row x (every DP row is non-increasing in the
// budget). The candidates y0 + x[j] are then non-increasing in j — float
// addition is monotone — so the minimum over j ≤ min(i, cw) is the last
// candidate, y0 + x[min(i, cw)], the very sum mergeScalar keeps, and the
// first argmin is the lowest j whose sum equals it. That j never
// decreases as i grows, so one forward scan finds every split: O(hi + cw)
// instead of O(hi·cw), bitwise equal to mergeScalar.
//
//soar:hotpath
func mergeFlat(newY []float64, sp []int32, y0 float64, x []float64, hi, cw int) {
	cw = min(cw, hi)
	j := 0
	for i := 0; i <= hi; i++ {
		best := y0 + x[min(i, cw)]
		for y0+x[j] > best {
			j++
		}
		newY[i] = best
		sp[i] = int32(j)
	}
}
