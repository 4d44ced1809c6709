package masczip

import (
	"math"
	"math/bits"

	"masc/internal/compress"
)

// The voltage family of selector symbol 0. A capacitance is a function of the
// voltage across it, not of time: every moving entry of a circuit's C is a
// two-terminal stamp, whose value is a function of u = x_row − x_col, and a
// node's grounded part — its diagonal plus its off-diagonals, what the
// elements to ground contribute — a function of x_row. The reverse sweep holds
// the converged state of every step, so a blob coded with the states beside
// its frames may predict a slot by interpolating its history in that voltage
// instead of extrapolating it in time:
//
//	U, L: the polynomial of degree o through (u_i, frame i's value), i ≤ o,
//	      evaluated at the coded step's u — frame 0's value at order 0;
//	D:    the difference stamp (stampD) plus the change the polynomial through
//	      (x_row,i, frame i's row sum) makes between frame 0's x_row and the
//	      coded step's — the stamp itself at order 0.
//
// The arithmetic is float Newton divided differences, every product written
// through an explicit float64() conversion so that no compiler may fuse it
// into an FMA on any architecture; a zero divisor (two frames at one voltage)
// makes its divided difference zero, and a change that is not finite leaves
// the order-0 prediction. Encoder and decoder therefore compute the same bits
// everywhere. The encoder prices both families in its pre-pass and writes the
// voltage family's flag and order in the flags byte (masczip.go); a blob
// coded without states never sets the flag.

// nodes holds the abscissae (u) or ordinates (values) of one interpolation,
// frame 0 first.
type nodes = [MaxOrder + 1]float64

// inv is the reciprocal of a divided difference's divisor: zero where the
// divisor is, so that the difference is zero too.
func inv(den float64) float64 {
	if den == 0 {
		return 0
	}
	return 1 / den
}

// divide turns y into the Newton coefficients of the points (u[i], y[i]),
// i ≤ o, in place: y[i] becomes f_0i, the divided difference over u[0..i], each
// difference of the table (a − b)·inv(u_b' − u_a'). The table is built a point
// at a time — point i's column f_ji, j < i, from point i−1's — so that the
// first o' + 1 coefficients of a table built for o > o' are the table built for
// o'. It is written out over scalars, which a compiler keeps in registers, and
// multiplies by reciprocals, which depend on the abscissae alone: the divisions
// all issue at once, and the chain through the table is a subtraction and a
// multiplication a level. Both halve what a loop of divisions over the arrays
// costs the decoder.
func divide(o int, u, y *nodes) {
	if o < 1 {
		return
	}
	u0, u1, u2, u3, u4, u5, u6 := u[0], u[1], u[2], u[3], u[4], u[5], u[6]
	y0, y1, y2, y3, y4, y5, y6 := y[0], y[1], y[2], y[3], y[4], y[5], y[6]
	f01 := float64((y1 - y0) * inv(u1-u0))
	y[1] = f01
	if o < 2 {
		return
	}
	f12 := float64((y2 - y1) * inv(u2-u1))
	f02 := float64((f12 - f01) * inv(u2-u0))
	y[2] = f02
	if o < 3 {
		return
	}
	f23 := float64((y3 - y2) * inv(u3-u2))
	f13 := float64((f23 - f12) * inv(u3-u1))
	f03 := float64((f13 - f02) * inv(u3-u0))
	y[3] = f03
	if o < 4 {
		return
	}
	f34 := float64((y4 - y3) * inv(u4-u3))
	f24 := float64((f34 - f23) * inv(u4-u2))
	f14 := float64((f24 - f13) * inv(u4-u1))
	f04 := float64((f14 - f03) * inv(u4-u0))
	y[4] = f04
	if o < 5 {
		return
	}
	f45 := float64((y5 - y4) * inv(u5-u4))
	f35 := float64((f45 - f34) * inv(u5-u3))
	f25 := float64((f35 - f24) * inv(u5-u2))
	f15 := float64((f25 - f14) * inv(u5-u1))
	f05 := float64((f15 - f04) * inv(u5-u0))
	y[5] = f05
	if o < 6 {
		return
	}
	f56 := float64((y6 - y5) * inv(u6-u5))
	f46 := float64((f56 - f45) * inv(u6-u4))
	f36 := float64((f46 - f35) * inv(u6-u3))
	f26 := float64((f36 - f25) * inv(u6-u2))
	f16 := float64((f26 - f15) * inv(u6-u1))
	y[6] = float64((f16 - f05) * inv(u6-u0))
}

// change is p(at) − p(u[0]) for the degree-o Newton polynomial with
// coefficients c over the abscissae u: the running sum of the terms
// c_j·Π_{m<j}(at − u_m), j = 1…o. The products do not wait for the table, and
// each term joins the sum as soon as its coefficient is ready; the sum after j
// terms is the change at order j, so one pass prices every order (sampleVoltage).
func change(o int, u, c *nodes, at float64) float64 {
	d, w := 0.0, 1.0
	for j := 1; j <= o && j <= MaxOrder; j++ {
		w = float64(w * (at - u[j-1]))
		d += float64(c[j] * w)
	}
	return d
}

// moved is base moved by d: base itself where d is zero or not finite, so a
// degenerate interpolation costs a residual, never a NaN payload to agree on.
func moved(base, d float64) float64 {
	if d == 0 || !(math.Abs(d) <= math.MaxFloat64) {
		return base
	}
	return base + d
}

// branch fills the abscissae of off-diagonal slot k — the voltage across it at
// each of the o+1 frames — and returns the coded step's.
func (cc *chunkCoder) branch(o int, k int32, u *nodes) float64 {
	r, c := cc.plan.rowOf[k], cc.plan.pat.ColIdx[k]
	for i := 0; i <= o; i++ {
		x := cc.states[1+i]
		u[i] = x[r] - x[c]
	}
	return cc.states[0][r] - cc.states[0][c]
}

// column fills y with slot k's value in each of the o+1 frames.
func (cc *chunkCoder) column(o int, k int32, y *nodes) {
	y[0] = cc.ref[k]
	b, off := uint32(k)/compress.BlockLen, uint32(k)%compress.BlockLen
	for i, f := range cc.far[:o] {
		y[1+i] = f[b][off]
	}
}

// voltage is the voltage-family candidate for off-diagonal slot k.
func (cc *chunkCoder) voltage(k int32) float64 {
	base := cc.ref[k]
	if cc.order == 0 {
		return base
	}
	var u, y nodes
	at := cc.branch(cc.order, k, &u)
	cc.column(cc.order, k, &y)
	divide(cc.order, &u, &y)
	return moved(base, change(cc.order, &u, &y, at))
}

// grounded fills the abscissae and ordinates of packed diagonal k — the row's
// node voltage and the row's sum at each of the o+1 frames — and returns the
// coded step's node voltage.
func (cc *chunkCoder) grounded(o int, k int32, u, y *nodes) float64 {
	row := cc.plan.dRows[k]
	lo, hi := cc.plan.pat.RowPtr[row], cc.plan.pat.RowPtr[row+1]
	sum := 0.0
	for _, v := range cc.ref[lo:hi] {
		sum += v
	}
	y[0] = sum
	for i, f := range cc.far[:o] {
		sum := 0.0
		for k := uint32(lo); k < uint32(hi); {
			blk, off := f[k/compress.BlockLen], k%compress.BlockLen
			n := min(uint32(hi)-k, compress.BlockLen-off)
			for _, v := range blk[off : off+n] {
				sum += v
			}
			k += n
		}
		y[1+i] = sum
	}
	for i := 0; i <= o; i++ {
		u[i] = cc.states[1+i][row]
	}
	return cc.states[0][row]
}

// voltageD is the voltage-family candidate for packed diagonal k.
func (cc *chunkCoder) voltageD(k int32) float64 {
	base := cc.stampAt(k)
	if cc.order == 0 {
		return base
	}
	var u, y nodes
	at := cc.grounded(cc.order, k, &u, &y)
	divide(cc.order, &u, &y)
	return moved(base, change(cc.order, &u, &y, at))
}

// sampleVoltage adds to cost, per order the call's states and frames allow,
// the length of the residual the voltage candidate would leave on slot's value
// v — sampleOrders' sample. One table of divided differences serves every
// order.
func (cc *chunkCoder) sampleVoltage(slot int32, v float64, cost *[MaxOrder + 1]int64) {
	top := cc.nvolt - 1
	var u, y nodes
	var at, base float64
	if row := cc.plan.rowOf[slot]; cc.plan.pat.ColIdx[slot] == row {
		k := cc.plan.dRowPtr[row]
		base = cc.stampAt(k)
		at = cc.grounded(top, k, &u, &y)
	} else {
		base = cc.ref[slot]
		at = cc.branch(top, slot, &u)
		cc.column(top, slot, &y)
	}
	divide(top, &u, &y)
	for o := 0; o <= top; o++ {
		cost[o] += int64(bits.Len64(residual(v, moved(base, change(o, &u, &y, at)))))
	}
}
