package repro

import (
	"context"
	"testing"

	"repro/internal/annotate"
	"repro/internal/world"
)

// TestFacadeQuickstart exercises the README quickstart path end to end
// against a small system: construct, annotate, verify.
func TestFacadeQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("facade integration test skipped in -short mode")
	}
	// Reuse the benchmark lab (building a second system would double the
	// suite's setup time) and wire the pipeline over it by hand.
	l := lab()
	w := l.World

	tbl := Table{Name: "quickstart"}
	tbl.Columns = []Column{
		{Header: "Name", Type: Text},
		{Header: "Address", Type: Location},
		{Header: "Phone", Type: Text},
	}
	museum := w.OfType(world.Museum)[0]
	restaurant := w.OfType(world.Restaurant)[0]
	for _, e := range []*world.Entity{museum, restaurant} {
		if err := tbl.AppendRow(e.Name, e.Address(w.Gaz).Format(), e.Phone); err != nil {
			t.Fatal(err)
		}
	}

	cfg := annotate.Config{
		Searcher:    l.Engine,
		Classifier:  l.SVM,
		Types:       Types(),
		Postprocess: true,
	}
	res, err := cfg.Annotate(context.Background(), &tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Annotations) == 0 {
		t.Fatal("quickstart produced no annotations")
	}
	byRow := map[int]Annotation{}
	for _, ann := range res.Annotations {
		if ann.Col == 1 {
			byRow[ann.Row] = ann
		}
	}
	if ann, ok := byRow[1]; !ok || ann.Type != "museum" {
		t.Errorf("row 1 = %+v, want museum", byRow[1])
	}
	if ann, ok := byRow[2]; !ok || ann.Type != "restaurant" {
		t.Errorf("row 2 = %+v, want restaurant", byRow[2])
	}
}

func TestTypesList(t *testing.T) {
	types := Types()
	if len(types) != 12 {
		t.Fatalf("Types() = %d entries, want 12", len(types))
	}
	seen := map[string]bool{}
	for _, typ := range types {
		if seen[typ] {
			t.Errorf("duplicate type %q", typ)
		}
		seen[typ] = true
	}
	for _, want := range []string{"restaurant", "museum", "actor", "simpsons episode"} {
		if !seen[want] {
			t.Errorf("missing type %q", want)
		}
	}
}
