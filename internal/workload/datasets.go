package workload

import (
	"fmt"
	"math"
)

// Table2Names lists the seven compression datasets of the paper's Table 2,
// in paper order.
func Table2Names() []string {
	return []string{"add20", "smult20", "mem_plus", "MOS_T5", "MOS_T7", "MOS_T8", "MOS_T10"}
}

// Table1Names lists the circuits of the paper's Table 1 (a size ladder of
// BJT designs plus MOS and RC workloads).
func Table1Names() []string {
	return []string{
		"CHIP_01", "CHIP_02", "CHIP_03", "CHIP_04", "CHIP_05",
		"CHIP_06", "CHIP_07", "CHIP_08", "CHIP_09",
		"ram2k", "smult20", "RC_01", "RC_02",
	}
}

// scaleInt scales a base count, keeping a sane minimum.
func scaleInt(base int, scale float64, min int) int {
	v := int(float64(base) * scale)
	if v < min {
		v = min
	}
	return v
}

// scaleSide scales a 2-D grid side by √scale so element counts track scale.
func scaleSide(base int, scale float64, min int) int {
	v := int(float64(base) * math.Sqrt(scale))
	if v < min {
		v = min
	}
	return v
}

// Build constructs a named dataset at the given scale. Scale 1 is the
// benchmark size (seconds to minutes per simulation on a laptop); tests use
// much smaller scales. Unknown names are an error.
func Build(name string, scale float64) (*Dataset, error) {
	if scale <= 0 {
		scale = 1
	}
	switch name {
	// ---- Table 2 compression datasets -------------------------------
	case "add20":
		return DiodeNet(name, scaleInt(800, scale, 24), scaleInt(1500, scale, 12), 8, 40, 20)
	case "smult20":
		s := scaleSide(22, scale, 3)
		return MOSArray(name, s, s, scaleInt(400, scale, 10), 12, 50)
	case "mem_plus":
		return MOSRam(name, scaleSide(36, scale, 3), scaleSide(26, scale, 3), scaleInt(400, scale, 10), 12, 40)
	case "MOS_T5":
		s := scaleSide(32, scale, 3)
		return MOSArray(name, s, s, scaleInt(250, scale, 10), 10, 40)
	case "MOS_T7":
		return MOSRam(name, scaleSide(28, scale, 3), scaleSide(20, scale, 3), scaleInt(900, scale, 12), 10, 40)
	case "MOS_T8":
		s := scaleSide(27, scale, 3)
		return MOSArray(name, s, s, scaleInt(500, scale, 10), 10, 40)
	case "MOS_T10":
		return MOSRam(name, scaleSide(32, scale, 3), scaleSide(22, scale, 3), scaleInt(700, scale, 12), 10, 40)

	// ---- Table 1 timing circuits ------------------------------------
	case "CHIP_01":
		return BJTChain(name, scaleInt(30, scale, 2), scaleInt(350, scale, 10), 8, 30)
	case "CHIP_02":
		return BJTChain(name, scaleInt(45, scale, 2), scaleInt(500, scale, 10), 12, 40)
	case "CHIP_03":
		return BJTChain(name, scaleInt(75, scale, 2), scaleInt(280, scale, 10), 21, 60)
	case "CHIP_04":
		return BJTChain(name, scaleInt(100, scale, 2), scaleInt(160, scale, 10), 27, 70)
	case "CHIP_05":
		return BJTChain(name, scaleInt(125, scale, 2), scaleInt(120, scale, 10), 32, 80)
	case "CHIP_06":
		return BJTChain(name, scaleInt(160, scale, 2), scaleInt(60, scale, 10), 30, 80)
	case "CHIP_07":
		return BJTChain(name, scaleInt(200, scale, 2), scaleInt(260, scale, 10), 38, 100)
	case "CHIP_08":
		return BJTChain(name, scaleInt(250, scale, 2), scaleInt(350, scale, 10), 40, 110)
	case "CHIP_09":
		return BJTChain(name, scaleInt(280, scale, 2), scaleInt(660, scale, 10), 48, 130)
	case "ram2k":
		return MOSRam(name, scaleSide(16, scale, 2), scaleSide(12, scale, 2), scaleInt(250, scale, 10), 12, 30)
	case "RC_01":
		s := scaleSide(24, scale, 3)
		return RCMesh(name, s, s, scaleInt(520, scale, 10), 20, 40)
	case "RC_02":
		return RCLadder(name, scaleInt(700, scale, 10), scaleInt(220, scale, 10), 20, 40)

	// ---- extra families (not in the paper's tables) -------------------
	case "ringosc":
		return RingOscillator(name, scaleInt(15, scale, 3), scaleInt(800, scale, 20), 5, 20)
	case "adder":
		return AdderArray(name, scaleInt(20, scale, 2), scaleInt(600, scale, 20), 8, 30)
	default:
		return nil, fmt.Errorf("workload: unknown dataset %q", name)
	}
}

// CSRBytes returns the paper's S_CSR for this dataset's stored tensor (the
// pair G, C) over the given number of steps: per step, 8 bytes per nonzero
// plus 4-byte row/col indices (stored once per step in the naive accounting
// the paper uses).
func (d *Dataset) CSRBytes(steps int) int64 {
	gnnz := int64(d.Ckt.GPat.NNZ())
	cnnz := int64(d.Ckt.CPat.NNZ())
	perStep := 8*(gnnz+cnnz) + // values
		4*(gnnz+cnnz) + // column indices
		4*int64(d.Ckt.GPat.N+1) + 4*int64(d.Ckt.CPat.N+1) // row pointers
	return perStep * int64(steps)
}

// NZBytes returns the paper's S_NZ: the value payload alone.
func (d *Dataset) NZBytes(steps int) int64 {
	return 8 * int64(d.Ckt.GPat.NNZ()+d.Ckt.CPat.NNZ()) * int64(steps)
}
