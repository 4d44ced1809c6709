package jactensor

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestStepRecordSize pins the per-step record the chain keeps outside the
// resident meter: 184 bytes on a 64-bit platform, 192 with the pointer the
// step list holds. A field that costs padding shows here.
func TestStepRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(stepRec{}); got != 184 {
		t.Fatalf("stepRec is %d bytes, want 184", got)
	}
}

// TestWindowShimsAreInert: the chain has one reader and no anchors, so the
// names kept for older callers do nothing — SetAnchorEvery before the first
// Put leaves the blob stream, the stored bytes and the resident peak those
// of a store without it, AnchorSteps is nil before and after EndForward,
// Slice refuses, and AnchorBytes stays 0 — sync and pipelined.
func TestWindowShimsAreInert(t *testing.T) {
	const steps = 30
	jp, cp, js, cs := movingFixture(96, 20, steps)
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			plain := filledStore(t, defaultChunks(), js, cs, chainStore(jp, cp, async))
			defer plain.Close()
			shimmed := chainStore(jp, cp, async)
			defer shimmed.Close()
			shimmed.SetAnchorEvery(5)
			if a := shimmed.AnchorSteps(); a != nil {
				t.Fatalf("AnchorSteps before the forward pass: %v", a)
			}
			filledStore(t, defaultChunks(), js, cs, shimmed)
			if a := shimmed.AnchorSteps(); a != nil {
				t.Fatalf("AnchorSteps after EndForward: %v", a)
			}
			if sl, err := shimmed.Slice(0, steps-1); err == nil || sl != nil {
				t.Fatalf("Slice: %v, %v; want an error", sl, err)
			}
			if got, want := sealedStream(shimmed), sealedStream(plain); got != want {
				t.Fatalf("blob stream %#x, without SetAnchorEvery %#x", got, want)
			}
			sweep(t, plain, steps, nil)
			sweep(t, shimmed, steps, nil)
			got, want := shimmed.Stats(), plain.Stats()
			if got.AnchorBytes != 0 || got.StoredBytes != want.StoredBytes {
				t.Fatalf("AnchorBytes %d, StoredBytes %d; want 0 and %d", got.AnchorBytes, got.StoredBytes, want.StoredBytes)
			}
			if !async && got.PeakResident != want.PeakResident {
				t.Fatalf("PeakResident %d, without SetAnchorEvery %d", got.PeakResident, want.PeakResident)
			}
		})
	}
}
