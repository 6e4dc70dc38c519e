// Extensions: the paper's two future-work proposals working side by side —
// the hybrid catalogue+discovery annotator (§6.4, "use Limaye to annotate
// entities that belong to a pre-compiled catalogue, and resort to the search
// engine only to annotate previously unseen entities") and the
// cluster-separated decision rule (§5.2, "clustering the results returned by
// the search engine and classify separately the snippets").
//
//	go run ./examples/extensions
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/annotate"
	"repro/internal/world"
)

func main() {
	ctx := context.Background()
	svc, err := repro.New(ctx, repro.WithSeed(17))
	if err != nil {
		log.Fatal(err)
	}
	w := svc.World()

	// A table mixing catalogue-known and unknown museums: table entities
	// have ~22% KB coverage, so the catalogue recognises only some.
	tbl := repro.Table{Name: "museums"}
	tbl.Columns = []repro.Column{{Header: "Name", Type: repro.Text}}
	known, unknown := 0, 0
	for _, e := range w.TableEntities(world.Museum) {
		if e.InKB && known < 4 {
			known++
		} else if !e.InKB && unknown < 4 {
			unknown++
		} else {
			continue
		}
		if err := tbl.AppendRow(e.Name); err != nil {
			log.Fatal(err)
		}
		if known+unknown == 8 {
			break
		}
	}
	fmt.Printf("table: %d museums (%d in the catalogue, %d unknown)\n\n",
		tbl.NumRows(), known, unknown)

	// Discovery-only vs hybrid: same annotations, fewer queries.
	resp, err := svc.Annotate(ctx, &repro.AnnotateRequest{Table: &tbl, Disambiguate: repro.ToggleOff})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovery only: %d annotations, %d search queries\n",
		len(resp.Annotations), resp.Stats.Queries)

	// The service runs the discovery pipeline only; the hybrid and the
	// cluster rule are extensions configured directly over its components.
	discovery := annotate.Config{
		Searcher:    svc.Engine(),
		Classifier:  svc.Classifier(repro.ClassifierSVM),
		Types:       repro.Types(),
		Postprocess: true,
	}
	hybrid := &annotate.Hybrid{
		Catalogue: &annotate.CatalogueAnnotator{Catalogue: svc.KB().Catalogue()},
		Discovery: discovery,
	}
	hres := hybrid.AnnotateTable(&tbl)
	fmt.Printf("hybrid:         %d annotations, %d search queries (catalogue answered the rest)\n\n",
		len(hres.Annotations), hres.Queries)

	// Cluster rule on an ambiguous name: pick a singer with a confuser
	// sense and compare the flat and clustered decisions.
	var ambiguous *world.Entity
	for _, e := range w.TableEntities(world.Singer) {
		if e.AmbiguousWith != "" {
			ambiguous = e
			break
		}
	}
	if ambiguous == nil {
		fmt.Println("no ambiguous singer in this universe; try another seed")
		return
	}
	fmt.Printf("ambiguous name: %q (also a %s)\n", ambiguous.Name, ambiguous.AmbiguousWith)
	one := repro.Table{Name: "one"}
	one.Columns = []repro.Column{{Header: "Name", Type: repro.Text}}
	if err := one.AppendRow(ambiguous.Name); err != nil {
		log.Fatal(err)
	}

	report := func(label string, anns []repro.Annotation) {
		if len(anns) == 0 {
			fmt.Printf("  %-14s abstained (no majority)\n", label)
			return
		}
		a := anns[0]
		fmt.Printf("  %-14s %s (score %.2f)\n", label, a.Type, a.Score)
	}
	flat, err := svc.Annotate(ctx, &repro.AnnotateRequest{Table: &one, Disambiguate: repro.ToggleOff})
	if err != nil {
		log.Fatal(err)
	}
	report("flat rule:", flat.Annotations)

	clustered := discovery
	clustered.ClusterThreshold = 0.4
	res, err := clustered.Annotate(ctx, &one)
	if err != nil {
		log.Fatal(err)
	}
	report("cluster rule:", res.Annotations)
}
