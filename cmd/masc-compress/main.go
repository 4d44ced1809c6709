// Command masc-compress is a standalone Jacobian-tensor compression
// workbench. It can simulate a named dataset or load a tensor file, then
// report every codec's ratio and throughput — a one-dataset slice of
// Table 3 — and optionally dump the tensor for later runs or external
// tools. The tensor it simulates is the one the facade stores: per step,
// G = ∂f/∂x and C = ∂q/∂x.
//
//	masc-compress -dataset mem_plus -scale 0.5 -workers 8
//	masc-compress -dataset add20 -dump add20.tensor
//	masc-compress -file add20.tensor -codecs masc,gzip,chimp
//	masc-compress -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"masc/internal/bench"
	"masc/internal/obs"
	"masc/internal/workload"
)

func main() {
	var (
		dataset = flag.String("dataset", "add20", "dataset name (see -list)")
		file    = flag.String("file", "", "load a tensor file instead of simulating")
		dump    = flag.String("dump", "", "write the captured tensor to this file")
		codecs  = flag.String("codecs", "", "comma-separated codec subset (default: all)")
		scale   = flag.Float64("scale", 0.5, "workload scale")
		workers = flag.Int("workers", 1, "parallel compressor workers")
		list    = flag.Bool("list", false, "list datasets and codecs")

		statsJSON = flag.String("stats-json", "", "write the measured codec cells as one JSON document")
	)
	flag.Parse()
	if *list {
		fmt.Println("datasets:", strings.Join(append(workload.Table2Names(), workload.Table1Names()...), " "))
		fmt.Println("codecs:  ", strings.Join(bench.CodecNames(), " "))
		return
	}
	if err := run(*dataset, *file, *dump, *codecs, *scale, *workers, *statsJSON); err != nil {
		fmt.Fprintln(os.Stderr, "masc-compress:", err)
		os.Exit(1)
	}
}

func run(dataset, file, dump, codecs string, scale float64, workers int, statsJSON string) error {
	var tn *bench.Tensor
	if file != "" {
		t, err := bench.LoadTensor(file)
		if err != nil {
			return err
		}
		tn = t
		fmt.Printf("loaded %s: %d steps, G nnz %d, C nnz %d, %d B raw\n",
			file, tn.Steps, tn.GPat.NNZ(), tn.CPat.NNZ(), tn.RawBytes())
	} else {
		ds, err := workload.Build(dataset, scale)
		if err != nil {
			return err
		}
		t, err := bench.CaptureTensor(ds)
		if err != nil {
			return err
		}
		tn = t
		fmt.Printf("simulated %s: %d steps, G nnz %d, C nnz %d, %d B raw\n",
			dataset, tn.Steps, tn.GPat.NNZ(), tn.CPat.NNZ(), tn.RawBytes())
	}
	if dump != "" {
		if err := tn.SaveFile(dump); err != nil {
			return err
		}
		fmt.Printf("tensor written to %s\n", dump)
	}
	var codecList []string
	if codecs != "" {
		codecList = strings.Split(codecs, ",")
	}
	cells, err := bench.MeasureAllCodecs(tn, codecList, workers)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable3(cells))
	if statsJSON != "" {
		man := obs.NewManifest("masc-compress")
		man.Set("dataset", dataset).
			Set("file", file).
			Set("scale", scale).
			Set("workers", workers)
		man.Section("codecs", cells)
		if err := man.Write(statsJSON); err != nil {
			return err
		}
		fmt.Printf("stats written to %s\n", statsJSON)
	}
	return nil
}
