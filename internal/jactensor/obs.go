package jactensor

import (
	"fmt"
	"strconv"

	"masc/internal/compress/masczip"
	"masc/internal/obs"
	"masc/internal/obs/span"
)

// storeObs is the resolved telemetry handle bundle of a store. The zero
// value (all-nil handles) makes every hook a cheap no-op, so the hot
// paths carry no "is telemetry on?" branching of their own.
type storeObs struct {
	// rec records store-internal spans (put/compress/decompress, the
	// budget's decision, recomputes); scope is the fixed fallback parent (the run root span) used
	// whenever the recorder's dynamic scope — the forward step span, set
	// only by the single-threaded forward loop — is clear, e.g. for
	// reverse-sweep decompressions, on the sweep's goroutine or its
	// fetcher's.
	rec   *span.Recorder
	scope span.ID

	puts          *obs.Counter
	fetches       *obs.Counter
	rawBytes      *obs.Counter
	storedBytes   *obs.Counter
	compressSec   *obs.Counter
	decompressSec *obs.Counter
	ioSec         *obs.Counter
	stallSec      *obs.Counter
	corrupt       *obs.Counter
	queueDepth    *obs.Gauge
	resident      *obs.Gauge
	peakResident  *obs.Gauge
	arenaBytes    *obs.Gauge
	droppedSteps  *obs.Gauge
	recomputes    *obs.Counter
	blobBytes     *obs.Histogram
}

// newStoreObs resolves the masc_store_* metric families, labelled with the
// store kind ("memory", "disk", "compressed"). All families are
// registered eagerly so /metrics exposes them from the first scrape, before
// any traffic. A nil observer yields all-nil handles.
func newStoreObs(o *obs.Observer, kind string) storeObs {
	reg := o.Registry()
	lbl := []string{"store", kind}
	return storeObs{
		rec:           o.SpanRecorder(),
		puts:          reg.Counter("masc_store_put_total", "Steps written to the Jacobian store.", lbl...),
		fetches:       reg.Counter("masc_store_fetch_total", "Steps fetched from the Jacobian store.", lbl...),
		rawBytes:      reg.Counter("masc_store_raw_bytes_total", "Uncompressed payload bytes written (the paper's S_NZ).", lbl...),
		storedBytes:   reg.Counter("masc_store_stored_bytes_total", "Bytes held by the store (compressed/spilled).", lbl...),
		compressSec:   reg.Counter("masc_store_compress_seconds_total", "Time spent compressing tensors.", lbl...),
		decompressSec: reg.Counter("masc_store_decompress_seconds_total", "Time spent decompressing tensors.", lbl...),
		ioSec:         reg.Counter("masc_store_io_seconds_total", "Time spent on spill-file I/O.", lbl...),
		stallSec:      reg.Counter("masc_store_stall_seconds_total", "Solver-visible time Put blocked on a full compression queue.", lbl...),
		corrupt:       reg.Counter("masc_store_corrupt_total", "Fetches that failed blob integrity verification and were quarantined.", lbl...),
		queueDepth:    reg.Gauge("masc_store_queue_depth", "Jobs waiting in the async compression queue.", lbl...),
		resident:      reg.Gauge("masc_store_resident_bytes", "Modelled resident bytes held by the store right now.", lbl...),
		peakResident:  reg.Gauge("masc_store_peak_resident_bytes", "Peak modelled resident bytes over the run.", lbl...),
		arenaBytes:    reg.Gauge("masc_store_arena_bytes", "Blob bytes currently held outside the Go heap, where runtime/metrics cannot see them.", lbl...),
		droppedSteps:  reg.Gauge("masc_store_dropped_steps", "Steps the memory budget kept no blob for, recomputed in the reverse sweep.", lbl...),
		recomputes:    reg.Counter("masc_store_recomputes_total", "Dropped steps re-derived from the trajectory during the reverse sweep.", lbl...),
		blobBytes:     reg.Histogram("masc_store_blob_bytes", "Per-step compressed blob sizes (J+C).", obs.SizeBuckets(), lbl...),
	}
}

// spanParent resolves the parent for a store-internal span: the forward
// loop's current step span when one is published, else the fixed scope.
func (so *storeObs) spanParent() span.ID {
	if sc := so.rec.Scope(); sc != 0 {
		return sc
	}
	return so.scope
}

// boolAttr encodes a bool as the 0/1 span-attribute convention.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// observeResident mirrors a resident-byte model change into the gauges.
func (so *storeObs) observeResident(resident int64) {
	so.resident.Set(float64(resident))
	so.peakResident.SetMax(float64(resident))
}

// PublishCodecStats mirrors one codec's predictor-selection statistics
// into the masc_codec_* metric families, labelled with the tensor name
// ("g" or "c" in the facade). The counters are set once, from the encoder's
// final accumulated totals.
func PublishCodecStats(reg *obs.Registry, tensor string, st masczip.Stats) {
	if reg == nil {
		return
	}
	sel := func(model string) *obs.Counter {
		return reg.Counter("masc_codec_predictor_selections_total",
			"Model-selection outcomes of selector-coded elements by predictor family.",
			"tensor", tensor, "model", model)
	}
	sel("temporal").Add(float64(st.Temporal))
	sel("stamp").Add(float64(st.Stamp))
	sel("last_value").Add(float64(st.LastValue))
	reg.Counter("masc_codec_elements_total", "Matrix elements pushed through the MASC coder.",
		"tensor", tensor).Add(float64(st.Elements))
	reg.Counter("masc_codec_selector_elements_total", "Elements that went through model selection (their region's hit predictor was not bit-exact).",
		"tensor", tensor).Add(float64(st.SelectorElements))
	reg.Counter("masc_codec_selector_bits_total", "Selector bits on the wire.",
		"tensor", tensor).Add(float64(st.SelectorBits))
	reg.Counter("masc_codec_payload_bits_total", "Hit-run, run-length, miss-marker and residual bits on the wire.",
		"tensor", tensor).Add(float64(st.PayloadBits))
	for rg, name := range [...]string{"u", "l", "d"} {
		reg.Counter("masc_codec_region_bits_total", "Stream bits by region (strictly upper, strictly lower, diagonal); sums to selector + payload bits.",
			"tensor", tensor, "region", name).Add(float64(st.RegionBits[rg]))
		reg.Counter("masc_codec_hit_runs_total", "Maximal runs of hits (elements the region's hit predictor reproduced bit for bit) by region.",
			"tensor", tensor, "region", name).Add(float64(st.HitRuns[rg]))
	}
	for name, n := range map[string]int64{"mate": st.MateBlobs, "stamp": st.StampBlobs} {
		reg.Counter("masc_codec_hit_predictor_blobs_total", "Blobs whose encoder made the symmetric mate (region L) or the difference stamp (region D) the hit predictor in place of the temporal value.",
			"tensor", tensor, "predictor", name).Add(float64(n))
	}
	for o, n := range st.OrderBlobs {
		for family, m := range map[string]int64{"time": n - st.VoltBlobs[o], "voltage": st.VoltBlobs[o]} {
			reg.Counter("masc_codec_history_order_blobs_total", "Blobs by the order and family of their symbol-0 candidate over the reference frames: extrapolated in time (order 0 = the nearest frame's value) or interpolated in the branch voltage.",
				"tensor", tensor, "order", strconv.Itoa(o), "family", family).Add(float64(m))
		}
	}
	reg.Counter("masc_codec_markov_predicted_total", "Elements whose selector came from the frozen Markov table.",
		"tensor", tensor).Add(float64(st.MarkovPredicted))
	reg.Counter("masc_codec_markov_exact_total", "Markov-predicted elements reproduced bit-exactly.",
		"tensor", tensor).Add(float64(st.MarkovExact))
	for i, n := range st.LZHist {
		class := fmt.Sprintf("%d", i*8)
		if i == len(st.LZHist)-1 {
			class = "zero"
		}
		reg.Counter("masc_codec_residual_lz_class_total", "Residuals (zigzagged ordered-integer distances from the prediction) by leading-zero class (bits); class=zero is an all-zero residual.",
			"tensor", tensor, "class", class).Add(float64(n))
	}
}
