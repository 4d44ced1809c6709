package bench

import (
	"fmt"

	"masc/internal/compress/chimpz"
	"masc/internal/compress/masczip"
)

// ablationPair builds the codec pair for a named MASC ablation variant.
func ablationPair(variant string, tn *Tensor) (codecPair, error) {
	opts := masczip.Options{}
	switch variant {
	case "full":
	case "markov":
		opts.Markov = true
	case "no-stamp":
		opts.DisableStamp = true
	case "no-lastvalue":
		opts.DisableLastValue = true
	case "temporal-only(chimp)":
		c := chimpz.NewTemporal()
		return codecPair{name: variant, g: c, c: c}, nil
	default:
		return codecPair{}, fmt.Errorf("bench: unknown ablation variant %q", variant)
	}
	return codecPair{
		name: variant,
		g:    masczip.New(tn.GPat, opts),
		c:    masczip.New(tn.CPat, opts),
	}, nil
}
