// Command mktables materialises the synthetic evaluation datasets (§6.2 GFT
// and §6.3 Wiki Manual) as CSV files plus a gold-standard TSV, for inspection
// or for feeding cmd/annotate. The output is a pure function of the flags:
// two runs at the same seed write byte-identical files.
//
// Usage:
//
//	mktables -out ./data [-seed 42] [-wiki]
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/dataset"
	"repro/internal/table"
	"repro/internal/world"
)

func main() {
	var (
		out  = flag.String("out", "data", "output directory")
		seed = flag.Int64("seed", 42, "universe seed")
		wiki = flag.Bool("wiki", false, "emit the Wiki Manual dataset instead of the GFT dataset")
	)
	flag.Parse()

	n, err := run(*out, *seed, *wiki)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mktables:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d tables and gold standard to %s\n", n, *out)
}

// run writes the dataset's tables and gold standard into out and returns
// the table count.
func run(out string, seed int64, wiki bool) (int, error) {
	w := world.Generate(world.Config{Seed: seed})
	var ds *dataset.Dataset
	if wiki {
		ds = dataset.BuildWikiManual(w, seed+6)
	} else {
		ds = dataset.BuildGFT(w, seed+5)
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, err
	}
	for _, tbl := range ds.Tables {
		f, err := os.Create(filepath.Join(out, tbl.Name+".csv"))
		if err != nil {
			return 0, err
		}
		if err := table.WriteCSV(f, tbl); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return len(ds.Tables), writeGold(filepath.Join(out, "gold.tsv"), ds)
}

// writeGold writes the gold standard as TSV, one row per annotated cell in
// (table order, row, col) order.
func writeGold(path string, ds *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "table\trow\tcol\ttype")
	for _, tbl := range ds.Tables {
		gold := ds.Gold[tbl.Name]
		keys := make([]dataset.CellKey, 0, len(gold))
		for key := range gold {
			keys = append(keys, key)
		}
		slices.SortFunc(keys, func(a, b dataset.CellKey) int {
			return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
		})
		for _, key := range keys {
			fmt.Fprintf(bw, "%s\t%d\t%d\t%s\n", tbl.Name, key.Row, key.Col, gold[key])
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
