package masczip

import (
	"math"
	"math/bits"

	"masc/internal/compress"
)

// The temporal candidate (selector symbol 0 of every region) is an
// extrapolation. A smooth waveform's next value is predictable from more than
// its last one: through the o+1 nearest reference frames runs one polynomial
// of degree o, and its value one step on is the order-o candidate — the
// nearest frame's value at order 0, which is the paper's temporal model. The
// encoder picks o per blob (prePass) and writes it in the flags byte; hits,
// the mate, the stamp and every other candidate read the nearest frame alone.
//
// The arithmetic is on integers. A bit pattern is mapped to the uint64 that
// sorts like the value (ordered), the polynomial is evaluated with wrapping
// adds and multiplies, and the result is mapped back. There is no rounding
// for encoder and decoder to disagree on, NaN, ±Inf, ±0 and denormals are
// bit patterns like any other, and where the frames are near one another the
// ordered integers are an affine image of the values, so a smooth run of
// floats is a smooth run of integers.

// MaxOrder is the highest extrapolation order a blob can name, a constant of
// the wire format: an order-o blob reads o+1 reference frames.
const MaxOrder = 6

// The pre-pass prices the orders on a sample of the chunk: it looks at every
// orderSlotStride-th slot — a prime, so that no regular row length keeps it on
// one column — and takes every orderMissStride-th of those that differ from the
// nearest frame, the first included.
const (
	orderSlotStride = 7
	orderMissStride = 4
)

// The voltage family is priced on every voltSampleStride-th of those samples —
// an interpolation through seven frames costs what twenty temporal candidates
// do — and chosen over time only on that subset, where time is priced too, and
// only once it holds voltEvidence elements: a tensor that hardly moves — a
// circuit's G, a few dozen changed entries a step — is sampled on one or two
// elements a blob, and what is cheaper on those is a coin toss that time, the
// family every blob coded without states uses, should win.
const (
	voltSampleStride = 2
	voltEvidence     = 8
)

// ordered maps a float64 bit pattern to the integer that sorts as the value
// does: positive values get the top bit, negative ones are complemented.
func ordered(b uint64) uint64 { return b ^ (uint64(int64(b)>>63) | 1<<63) }

// unordered inverts ordered.
func unordered(m uint64) uint64 { return m ^ (uint64(int64(^m)>>63) | 1<<63) }

// zigzag maps a wrapped difference 0, −1, 1, −2, … to 0, 1, 2, 3, …, so that
// a short step either way is a small number.
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

// residual is the distance from pred to val that a miss codes: the difference
// of their ordered integers, zigzagged.
func residual(val, pred float64) uint64 {
	return zigzag(ordered(math.Float64bits(val)) - ordered(math.Float64bits(pred)))
}

// unresidual is the value residual z stands for against pred.
func unresidual(pred float64, z uint64) float64 {
	d := z>>1 ^ -(z & 1)
	return math.Float64frombits(unordered(ordered(math.Float64bits(pred)) + d))
}

// temporal is the temporal candidate for slot k: frame i weighs
// (−1)^i·C(o+1, i+1) in the order-o extrapolation, which sums to 1. Written out
// per order over an array of frames held in the coder, a call costs 6 ns at
// order 6; a loop over a coefficient table and a slice of slices cost 12.
func (cc *chunkCoder) temporal(k int32) float64 {
	if cc.order == 0 {
		return cc.ref[k]
	}
	f := &cc.far
	b, o := uint32(k)/compress.BlockLen, uint32(k)%compress.BlockLen
	m := func(i int) uint64 { return ordered(math.Float64bits(f[i-1][b][o])) }
	m0 := ordered(math.Float64bits(cc.ref[k]))
	var p uint64
	switch cc.order {
	case 1:
		p = 2*m0 - m(1)
	case 2:
		p = 3*(m0-m(1)) + m(2)
	case 3:
		p = 4*(m0+m(2)) - 6*m(1) - m(3)
	case 4:
		p = 5*(m0-m(3)) + 10*(m(2)-m(1)) + m(4)
	case 5:
		p = 6*(m0+m(4)) - 15*(m(1)+m(3)) + 20*m(2) - m(5)
	default:
		p = 7*(m0-m(5)) + 21*(m(4)-m(1)) + 35*(m(2)-m(3)) + m(6)
	}
	return math.Float64frombits(unordered(p))
}

// sampleOrders adds to n, per order the call's history allows, the length of
// the residual the temporal candidate would leave on the sampled elements of
// the chunk — of any region: one a mate or stamp hit will code moves as
// smoothly as the misses beside it, and is as good a sample — and, where the
// call brings states, what both families would leave on the voltage subset of
// the sample (sampleVoltage). One table of backward differences gives every
// temporal order: its head after o rounds is the o-th difference at the
// nearest frame, and the order-o prediction is the sum of the first o+1 heads,
// already an ordered integer, so its distance from the value is one
// subtraction.
func (cc *chunkCoder) sampleOrders(n *hitCounts) {
	top := cc.nhist - 1
	if top < 1 && cc.nvolt == 0 {
		return
	}
	cur, ref := cc.cur, cc.ref
	misses := 0
	for slot := cc.plan.pat.RowPtr[cc.rowLo]; slot < cc.plan.pat.RowPtr[cc.rowHi]; slot += orderSlotStride {
		v, v0 := math.Float64bits(cur[slot]), math.Float64bits(ref[slot])
		if v == v0 {
			continue
		}
		if misses++; misses%orderMissStride != 1 {
			continue
		}
		subset := cc.nvolt > 0 && misses%(orderMissStride*voltSampleStride) == 1
		if subset {
			n.sampled++
			cc.sampleVoltage(slot, cur[slot], &n.voltBits)
		}
		var d [MaxOrder + 1]uint64
		d[0] = ordered(v0)
		for i, f := range cc.far[:top] {
			d[1+i] = ordered(math.Float64bits(f.At(int(slot))))
		}
		ov := ordered(v)
		p := uint64(0)
		for o := 0; o <= top; o++ {
			p += d[0]
			cost := int64(bits.Len64(zigzag(ov - p)))
			n.orderBits[o] += cost
			if subset {
				n.subsetBits[o] += cost
			}
			for i := 0; i < top-o; i++ {
				d[i] -= d[i+1]
			}
		}
	}
}
