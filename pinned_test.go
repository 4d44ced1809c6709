package masc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// buildLinearRC is the pinned linear fixture: a sine source driving a
// five-stage RC ladder. Its Newton matrix G + C/h is constant for a fixed
// step, so every transient Jacobian after step 1 is bit-identical to the
// previous one — the input property the lu value memo exists for.
func buildLinearRC(t testing.TB) (*Circuit, []Objective) {
	b := NewBuilder()
	b.AddVSource("vin", "n0", "0", Sin{VA: 1, Freq: 2e4})
	for i := 0; i < 5; i++ {
		b.AddResistor(fmt.Sprintf("r%d", i), fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), 1e3+250*float64(i))
		b.AddCapacitor(fmt.Sprintf("c%d", i), fmt.Sprintf("n%d", i+1), "0", 1e-9*float64(i+1))
	}
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	last, err := b.NodeIndex("n5")
	if err != nil {
		t.Fatal(err)
	}
	mid, err := b.NodeIndex("n2")
	if err != nil {
		t.Fatal(err)
	}
	return ckt, []Objective{
		{Name: "v(n5)", Node: last, Weight: 1},
		{Name: "int_v(n2)", Node: mid, Weight: 2, Integral: true},
	}
}

// dodpHash is FNV-1a over the little-endian bit images of every dO/dp entry
// in row order: one hex literal pins the whole matrix.
func dodpHash(dodp [][]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range dodp {
		for _, v := range row {
			b := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func dodpHex(dodp [][]float64) string {
	var sb strings.Builder
	for _, row := range dodp {
		for _, v := range row {
			fmt.Fprintf(&sb, " %016x", math.Float64bits(v))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestPinnedSensitivityBits pins dO/dp of one linear and one nonlinear
// fixture to hashes recorded at commit 9b0d68c, before lu.Refactor learned
// to skip unchanged Jacobians: the skip is only legal because it reproduces
// the numeric pass bit for bit, so every storage × workers × windows ×
// resume shape must still land on the parent's bits (journaled runs pin
// FreshFactorPerStep; on these fixtures that picks the same pivots).
func TestPinnedSensitivityBits(t *testing.T) {
	type fixture struct {
		name   string
		ckt    *Circuit
		objs   []Objective
		tstop  float64
		linear bool
		want   map[Method]uint64
	}
	lin, linObjs := buildLinearRC(t)
	non, _, nonObj := buildTestCircuit(t)
	fixtures := []fixture{
		{name: "linear_rc", ckt: lin, objs: linObjs, tstop: 1.2e-4, linear: true,
			want: map[Method]uint64{MethodBE: 0x33d98d092e4e84ae, MethodTrap: 0xf8302e8e97413398}},
		{name: "diode", ckt: non, tstop: 1.2e-4,
			objs: []Objective{nonObj, {Name: "int(v)", Node: nonObj.Node, Weight: 2, Integral: true}},
			want: map[Method]uint64{MethodBE: 0x0665a904921a02f5, MethodTrap: 0x327f00ca676c1fce}},
	}
	type storageCase struct {
		name   string
		st     Storage
		budget int64
	}
	storages := []storageCase{
		{"memory", StorageMemory, 0},
		{"masc", StorageMASC, 0},
		{"tiered", StorageMASC, 4 << 10},
		{"recompute", StorageRecompute, 0},
	}
	const tstep = 2e-6
	for _, fx := range fixtures {
		steps := int(math.Round(fx.tstop / tstep))
		for _, method := range []Method{MethodBE, MethodTrap} {
			for _, sc := range storages {
				for _, workers := range []int{1, 2} {
					for _, windows := range []int{1, 2} {
						for _, resume := range []bool{false, true} {
							label := fmt.Sprintf("%s/%s/%s/wk%d/win%d/resume=%v",
								fx.name, method, sc.name, workers, windows, resume)
							opt := SimOptions{TStep: tstep, TStop: fx.tstop, Storage: sc.st,
								MemBudgetBytes: sc.budget, AdjointWorkers: workers, AdjointWindows: windows}
							opt.Transient.Method = method
							if sc.budget > 0 {
								opt.DiskDir = t.TempDir()
							}
							var run *Run
							var err error
							if resume {
								// Kill the journaled run mid-forward, then resume it.
								opt.Journal = filepath.Join(t.TempDir(), "run.journal")
								opt.Transient.AfterStep = func(step int, _, _, _ float64, _ int, _ []float64) error {
									if step == steps/3 {
										return errors.New("simulated crash")
									}
									return nil
								}
								if _, err = Simulate(fx.ckt, opt, fx.objs, nil); err == nil {
									t.Fatalf("%s: crashing run succeeded", label)
								}
								run, err = Resume(fx.ckt, opt.Journal, SimOptions{})
							} else {
								run, err = Simulate(fx.ckt, opt, fx.objs, nil)
							}
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if len(run.Sens.DegradedSteps) != 0 {
								t.Fatalf("%s: degraded steps %v", label, run.Sens.DegradedSteps)
							}
							if got, want := dodpHash(run.Sens.DOdp), fx.want[method]; got != want {
								t.Fatalf("%s: dO/dp hash %#016x, want %#016x; bits:\n%s",
									label, got, want, dodpHex(run.Sens.DOdp))
							}
							if !fx.linear || resume {
								continue
							}
							// A linear circuit's Jacobian changes only between the DC
							// ladder's rungs, the DC point and the first transient
							// step: both passes must reuse factors everywhere else.
							fw := run.Tran.Stats
							if fw.Refactorizations > 12 || fw.FactorReuses < steps-2 {
								t.Fatalf("%s: forward refactorizations %d, reuses %d over %d steps",
									label, fw.Refactorizations, fw.FactorReuses, steps)
							}
							rv := run.Sens
							if rv.Refactorizations > 12 || rv.FactorReuses < steps-2 {
								t.Fatalf("%s: reverse refactorizations %d, reuses %d over %d steps",
									label, rv.Refactorizations, rv.FactorReuses, steps)
							}
						}
					}
				}
			}
		}
	}
}
