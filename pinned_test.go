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

// rcmDOdp is dO/dp of the pinned fixtures (memory storage, one worker, one
// window) as the parent of the minimum-degree ordering computed it, commit
// 48eb309, whose hashes — 0x33d98d092e4e84ae / 0xf8302e8e97413398 for
// linear_rc BE / trap, 0x0665a904921a02f5 / 0x327f00ca676c1fce for diode —
// had stood since 9b0d68c. A different elimination order is a different
// roundoff path, so those bits cannot survive a change of column order; what
// must survive is the value, and these are what it is checked against.
var rcmDOdp = map[string][][]uint64{
	"linear_rc/be": {
		{0x3f978383c02abbba, 0xbee2030e1958aa13, 0xc157c7898558333b, 0xbed424d503cc736f, 0xc15d34d410c8389e, 0xbed57e3daa858a36,
			0xc15567d6cd8ba98c, 0xbee1fb1b1a5dbf3a, 0xc147ca8c4fae73ac, 0xbee8c1acfdcadf79, 0xc13ea3027cf91f7d},
		{0x3ef33e6662017525, 0xbe288b28155433bd, 0xc086451892b8e3e5, 0xbe240b5abd779886, 0xc0911582ce4d8364, 0x3e0a64350583b2f8,
			0xc07172e3265ed8fb, 0xbdda937a4277e78a, 0xc05a86f0b1f2971e, 0xbdd8ff8496316c01, 0xc0644aa277997ea7},
	},
	"linear_rc/trap": {
		{0x3f76c1904fb8ac8e, 0xbed9a02640ec9406, 0xc15a98c114ffb2fb, 0xbec0ee95595d8487, 0xc15f40830f7562b9, 0xbec9de7f5c01e334,
			0xc154876d0e9f1c97, 0xbedff1adc2bc6f2a, 0xc1415a4c2e1029b2, 0xbee917c6bcf18444, 0xc117677009de646f},
		{0x3ef3193f5cf70df7, 0xbe294bfb00b39b1a, 0xc087209a8826ace5, 0xbe247ee57b18e303, 0xc092375d88917cf8, 0x3e0cdc6b6ce224fc,
			0xc0724b26e3fa6ac5, 0xbde3a37ee17644c9, 0xc05709df09c32eb9, 0xbde09a1ac57aa8d8, 0xc065045f353ea631},
	},
	"diode/be": {
		{0x3fd868fc4b07858f, 0xbf1185c17833f278, 0xc13fc6ca46fea815, 0x427062244622520c, 0x3ef12969f052f573, 0x4132c49179bca386},
		{0x3f167cc86f68bbc2, 0xbe53f6e424884396, 0xc088adf2d36cd7d2, 0x41aed80bfd8cdc3e, 0x3e178d58d6b36363, 0xc07416779d96ec24},
	},
	"diode/trap": {
		{0x3fd8d3e414cf3fcc, 0xbf11ab6bc6af0f7a, 0xc13e2e91b8d9d9ef, 0x42708bccd42d15ed, 0x3ef1c2b9531f3247, 0x4133a2d03b32496f},
		{0x3f16b3c151911046, 0xbe54355d1bc26a59, 0xc0883f4c05ffe57e, 0x41aeea6f5c4441b5, 0x3e17f44459ed64c3, 0xc074e22a0af90171},
	},
}

// agreesWithRCM fails unless every entry of dodp is within 1e-9 relative of
// the value the RCM-ordered parent computed.
func agreesWithRCM(t *testing.T, label string, dodp [][]float64) {
	t.Helper()
	old := rcmDOdp[label]
	if len(old) != len(dodp) {
		t.Fatalf("%s: %d objectives, the RCM record has %d", label, len(dodp), len(old))
	}
	for o, row := range dodp {
		if len(old[o]) != len(row) {
			t.Fatalf("%s: objective %d has %d parameters, the RCM record has %d", label, o, len(row), len(old[o]))
		}
		for k, v := range row {
			want := math.Float64frombits(old[o][k])
			if math.Abs(v-want) > 1e-9*math.Abs(want) {
				t.Errorf("%s: dO/dp[%d][%d] = %g, under RCM %g: more than 1e-9 relative apart", label, o, k, v, want)
			}
		}
	}
}

// TestPinnedSensitivityBits pins dO/dp of one linear and one nonlinear
// fixture to hashes recorded at the commit that replaced the RCM column
// order with minimum degree (the child of 48eb309), after checking that the
// values agree with the RCM ones to 1e-9 relative (they differ by a few ulp).
// The pin exists because lu.Refactor skips Jacobians it has already factored:
// the skip is only legal because it reproduces the numeric pass bit for bit,
// so every storage × workers × windows × resume shape must land on one set
// of bits (journaled runs pin FreshFactorPerStep; on these fixtures that
// picks the same pivots; windows is the retired SimOptions.AdjointWindows,
// which must change nothing). Anything that changes the order of floating-point
// operations — the column order, the pivot rule — must re-record them the
// same way; nothing else may.
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
			want: map[Method]uint64{MethodBE: 0x8ae853289c9e5151, MethodTrap: 0xa6a1d6b850d369cc}},
		{name: "diode", ckt: non, tstop: 1.2e-4,
			objs: []Objective{nonObj, {Name: "int(v)", Node: nonObj.Node, Weight: 2, Integral: true}},
			want: map[Method]uint64{MethodBE: 0xb021db26ebcc7279, MethodTrap: 0xc3d541caff913050}},
	}
	type storageCase struct {
		name   string
		st     Storage
		budget int64
	}
	storages := []storageCase{
		{"memory", StorageMemory, 0},
		{"masc", StorageMASC, 0},
		{"budget", StorageMASC, 4 << 10},
		{"recompute", StorageRecompute, 0},
	}
	const tstep = 2e-6
	for _, fx := range fixtures {
		steps := int(math.Round(fx.tstop / tstep))
		for _, method := range []Method{MethodBE, MethodTrap} {
			checkedAgainstRCM := false
			for _, sc := range storages {
				for _, workers := range []int{1, 2} {
					for _, windows := range []int{1, 2} {
						for _, resume := range []bool{false, true} {
							label := fmt.Sprintf("%s/%s/%s/wk%d/win%d/resume=%v",
								fx.name, method, sc.name, workers, windows, resume)
							opt := SimOptions{Transient: TransientOptions{TStep: tstep, TStop: fx.tstop}, Storage: sc.st,
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
							if !checkedAgainstRCM {
								agreesWithRCM(t, fmt.Sprintf("%s/%s", fx.name, method), run.Sens.DOdp)
								checkedAgainstRCM = true
							}
							if got, want := dodpHash(run.Sens.DOdp), fx.want[method]; got != want {
								t.Fatalf("%s: dO/dp hash %#016x, want %#016x; bits:\n%s",
									label, got, want, dodpHex(run.Sens.DOdp))
							}
							if resume {
								continue
							}
							// The run reports the fill both passes paid for.
							if run.Tran.Stats.FillNNZ <= 0 || run.Sens.FillNNZ <= 0 {
								t.Fatalf("%s: fill forward %d, reverse %d", label, run.Tran.Stats.FillNNZ, run.Sens.FillNNZ)
							}
							if !fx.linear {
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
