package masczip

import (
	"math/rand"
	"testing"
)

// huffmanRef is the unrestricted Huffman code over counts, built the plain
// way — merge the two lightest trees until one is left — and returns its cost
// in bits (the sum of the merged weights) and its longest code.
func huffmanRef(counts *[lengthSymbols]uint32) (cost uint64, longest int) {
	type tree struct {
		weight uint64
		depth  int
	}
	var trees []tree
	for _, n := range counts {
		if n > 0 {
			trees = append(trees, tree{uint64(n), 0})
		}
	}
	lightest := func() tree {
		i := 0
		for j := range trees {
			if trees[j].weight < trees[i].weight {
				i = j
			}
		}
		t := trees[i]
		trees = append(trees[:i], trees[i+1:]...)
		return t
	}
	for len(trees) > 1 {
		a, b := lightest(), lightest()
		cost += a.weight + b.weight
		trees = append(trees, tree{a.weight + b.weight, max(a.depth, b.depth) + 1})
	}
	if len(trees) == 1 {
		longest = trees[0].depth
	}
	return cost, longest
}

// TestCodeLengthsAreOptimalAndComplete checks on its own the one step of the
// length table both coders share, codeLengths: over random counts and the
// shapes that stress it — one length, two, all 65 alike, counts near 2^32, and
// Fibonacci counts whose Huffman tree is far deeper than maxCodeLen — a code
// of two lengths or more fills the code space exactly (Kraft sum 1), no code
// is longer than maxCodeLen bits, a length that does not occur has no code,
// and wherever an unrestricted Huffman code fits in maxCodeLen bits the
// code costs exactly what it does.
func TestCodeLengthsAreOptimalAndComplete(t *testing.T) {
	var cases [][lengthSymbols]uint32
	rng := rand.New(rand.NewSource(34))
	for range 3000 {
		var c [lengthSymbols]uint32
		k := 1 + rng.Intn(lengthSymbols)
		scale := []int{2, 10, 1000, 1 << 20}[rng.Intn(4)]
		for range k {
			c[rng.Intn(lengthSymbols)] = uint32(1 + rng.Intn(scale))
		}
		if rng.Intn(4) == 0 { // geometric: a few lengths carry most misses
			for s := range c {
				if c[s] > 0 {
					c[s] = 1 << uint(rng.Intn(31))
				}
			}
		}
		cases = append(cases, c)
	}
	var one, two, flat, huge, fib, fibTail [lengthSymbols]uint32
	one[17] = 5
	two[0], two[64] = 1, 1<<31
	for s := range flat {
		flat[s], huge[s] = 9, 1<<32-1-uint32(s)
	}
	a, b := uint32(1), uint32(1)
	for s := 0; s < 40; s++ {
		fib[s] = a
		fibTail[64-s] = a
		a, b = b, a+b
	}
	cases = append(cases, one, two, flat, huge, fib, fibTail, [lengthSymbols]uint32{})

	limited := 0
	for i, c := range cases {
		var lens [lengthSymbols]uint8
		k := codeLengths(&c, &lens)
		occur, kraft, cost := 0, 0, uint64(0)
		for s, n := range c {
			if n > 0 {
				occur++
			}
			if (lens[s] > 0) != (n > 0 && k > 1) {
				t.Fatalf("case %d: length %d occurs %d times and has a code of %d bits (K = %d)", i, s, n, lens[s], k)
			}
			if lens[s] > maxCodeLen {
				t.Fatalf("case %d: length %d has a code of %d bits", i, s, lens[s])
			}
			if lens[s] > 0 {
				kraft += 1 << (maxCodeLen - lens[s])
				cost += uint64(n) * uint64(lens[s])
			}
		}
		if k != occur {
			t.Fatalf("case %d: K = %d, %d lengths occur", i, k, occur)
		}
		if k < 2 {
			continue
		}
		if kraft != 1<<maxCodeLen {
			t.Fatalf("case %d: Kraft sum %d/%d", i, kraft, 1<<maxCodeLen)
		}
		want, longest := huffmanRef(&c)
		if longest > maxCodeLen {
			limited++
			if cost < want {
				t.Fatalf("case %d: a limited code costs %d bits, less than Huffman's %d", i, cost, want)
			}
			continue
		}
		if cost != want {
			t.Fatalf("case %d: the code costs %d bits, Huffman's %d", i, cost, want)
		}
	}
	if limited < 2 {
		t.Fatalf("only %d cases needed codes longer than %d bits", limited, maxCodeLen)
	}
}
