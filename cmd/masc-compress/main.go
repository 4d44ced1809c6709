// Command masc-compress is a standalone Jacobian-tensor compression
// workbench. It simulates a named dataset, then reports every codec's ratio
// and throughput — a one-dataset slice of Table 3. The tensor it simulates
// is the one the facade stores: per step, G = ∂f/∂x and C = ∂q/∂x, with the
// state each step was produced at beside it.
//
//	masc-compress -dataset mem_plus -scale 0.5 -workers 8
//	masc-compress -dataset add20 -codecs masc,gzip,chimp
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
	if err := run(*dataset, *codecs, *scale, *workers, *statsJSON); err != nil {
		fmt.Fprintln(os.Stderr, "masc-compress:", err)
		os.Exit(1)
	}
}

func run(dataset, codecs string, scale float64, workers int, statsJSON string) error {
	ds, err := workload.Build(dataset, scale)
	if err != nil {
		return err
	}
	tn, err := bench.CaptureTensor(ds)
	if err != nil {
		return err
	}
	fmt.Printf("simulated %s: %d steps, G nnz %d, C nnz %d, %d B raw\n",
		dataset, tn.Steps, tn.GPat.NNZ(), tn.CPat.NNZ(), tn.RawBytes())
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
