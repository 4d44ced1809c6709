package bench

import (
	"fmt"

	"masc/internal/compress"
	"masc/internal/compress/chimpz"
	"masc/internal/compress/fpzipz"
	"masc/internal/compress/gzipz"
	"masc/internal/compress/masczip"
	"masc/internal/compress/ndzipz"
	"masc/internal/compress/spicemate"
)

// CodecNames lists the Table 3 codec columns in paper order, with the
// extra baselines this reproduction adds.
func CodecNames() []string {
	return []string{"fpzip", "ndzip", "spicemate", "gzip", "chimp", "masc", "masc+markov"}
}

// NewCodecPair instantiates a named codec bound (where needed) to the
// dataset's patterns. MASC variants receive the worker count; stats
// collection is enabled when collectStats is set.
func NewCodecPair(name string, tn *Tensor, workers int, collectStats bool) (codecPair, error) {
	single := func(c compress.Compressor) codecPair {
		return codecPair{name: name, g: c, c: c}
	}
	mascOpts := func(markov bool) masczip.Options {
		return masczip.Options{
			Markov:       markov,
			Workers:      workers,
			CollectStats: collectStats,
		}
	}
	switch name {
	case "fpzip":
		return single(fpzipz.New()), nil
	case "ndzip":
		return single(ndzipz.New()), nil
	case "spicemate":
		return single(spicemate.New()), nil
	case "gzip":
		return single(gzipz.New()), nil
	case "chimp":
		return single(chimpz.New()), nil
	case "masc":
		return codecPair{
			name: name,
			g:    masczip.New(tn.GPat, mascOpts(false)),
			c:    masczip.New(tn.CPat, mascOpts(false)),
		}, nil
	case "masc+markov":
		return codecPair{
			name: name,
			g:    masczip.New(tn.GPat, mascOpts(true)),
			c:    masczip.New(tn.CPat, mascOpts(true)),
		}, nil
	default:
		return codecPair{}, fmt.Errorf("bench: unknown codec %q", name)
	}
}

// mascStats extracts the merged encoder statistics from a MASC codec pair.
func mascStats(p codecPair) (masczip.Stats, bool) {
	g, ok := p.g.(*masczip.Compressor)
	if !ok {
		return masczip.Stats{}, false
	}
	c, ok := p.c.(*masczip.Compressor)
	if !ok {
		return masczip.Stats{}, false
	}
	st, cst := g.Stats(), c.Stats()
	st.Merge(&cst)
	return st, true
}
