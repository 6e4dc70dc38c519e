// Package kb implements the knowledge-base substrate standing in for DBpedia
// in §5.2.1: entities organised in a category network (a containment graph
// like Figure 6), traversal queries playing the role of the iterated SPARQL
// subcategory queries, the paper's name-filter heuristic for pruning noisy
// categories, and the training/test-set builder that queries the search
// engine with "entity name + type name" and labels the returned snippets.
package kb

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/gazetteer"
	"repro/internal/textproc"
	"repro/internal/world"
)

// CatID identifies a category. The zero CatID is invalid.
type CatID int

// category is one node of the category network.
type category struct {
	name     string
	children []CatID
	entities []int // indexes into kb.entities
}

// entity is a knowledge-base individual.
type entity struct {
	name string
	typ  world.Type
}

// KB is the in-memory knowledge base.
type KB struct {
	cats     []category // index 0 unused
	byName   map[string]CatID
	entities []entity
	roots    map[world.Type]CatID
}

// RootCategory returns the DBpedia-style root category name of a type
// ("Museums", "Simpsons episodes", ...). It is the category the paper's user
// manually selects (the only manual step, §6.4).
func RootCategory(t world.Type) string {
	n := world.TypeName(t)
	// Pluralise with initial capital.
	var plural string
	switch {
	case strings.HasSuffix(n, "y"):
		plural = n[:len(n)-1] + "ies"
	case strings.HasSuffix(n, "s"), strings.HasSuffix(n, "e") && false:
		plural = n + "es"
	default:
		plural = n + "s"
	}
	return strings.ToUpper(plural[:1]) + plural[1:]
}

// FromWorld builds the knowledge base for a universe: every InKB entity is
// filed under "{Type}s in {Country}" (or a nationality bucket for people and
// cinema), reachable from the root through intermediate by-country /
// by-continent categories. Each root also grows a noisy branch in the spirit
// of Figure 6 — "Museum people" (whose name contains the type word and thus
// survives the heuristic) holding a few person entities, with "Curators"
// below it (pruned by the heuristic).
func FromWorld(w *world.World, seed int64) *KB {
	rng := rand.New(rand.NewSource(seed))
	kb := &KB{
		cats:   make([]category, 1),
		byName: map[string]CatID{},
		roots:  map[world.Type]CatID{},
	}
	countries := []string{"USA", "France", "United Kingdom", "Italy", "Japan", "Australia"}

	for _, t := range world.AllTypes {
		rootName := RootCategory(t)
		root := kb.addCat(rootName)
		kb.roots[t] = root
		byCountry := kb.addCat(rootName + " by country")
		byCont := kb.addCat(rootName + " by continent")
		kb.link(root, byCountry)
		kb.link(root, byCont)
		kb.link(byCont, kb.addCat(rootName+" in Europe"))

		countryCats := map[string]CatID{}
		for _, c := range countries {
			cc := kb.addCat(rootName + " in " + c)
			countryCats[c] = cc
			kb.link(byCountry, cc)
			// A deeper thematic subcategory below each country
			// node, mirroring "History museums in France".
			kb.link(cc, kb.addCat("Notable "+strings.ToLower(rootName)+" in "+c))
		}

		// Noisy branch: a category whose name contains the type word
		// (survives the heuristic) populated with person entities,
		// plus a child whose name does not (pruned).
		tn := world.TypeName(t)
		people := kb.addCat(strings.ToUpper(tn[:1]) + tn[1:] + " people")
		kb.link(root, people)
		curators := kb.addCat(noisyChildName(t))
		kb.link(people, curators)

		for _, e := range w.KBEntities(t) {
			eid := len(kb.entities)
			kb.entities = append(kb.entities, entity{name: e.Name, typ: t})
			country := "USA"
			if e.City != gazetteer.NoLocation {
				chain := w.Gaz.Containers(e.City)
				country = w.Gaz.Name(chain[len(chain)-1])
			} else {
				country = countries[rng.Intn(len(countries))]
			}
			cc, ok := countryCats[country]
			if !ok {
				cc = countryCats["USA"]
			}
			kb.cats[cc].entities = append(kb.cats[cc].entities, eid)
		}

		// Seed the noisy categories with a few person names that do
		// NOT have type t; if sampled into the training set they
		// become label noise, as in the real pipeline.
		for i := 0; i < 4; i++ {
			name := pickPerson(rng)
			eid := len(kb.entities)
			kb.entities = append(kb.entities, entity{name: name, typ: ""})
			kb.cats[people].entities = append(kb.cats[people].entities, eid)
			eid2 := len(kb.entities)
			kb.entities = append(kb.entities, entity{name: pickPerson(rng), typ: ""})
			kb.cats[curators].entities = append(kb.cats[curators].entities, eid2)
		}
	}
	return kb
}

// noisyChildName returns a noise category name free of the type word, so the
// heuristic prunes it (the "Curators" of Figure 6).
func noisyChildName(t world.Type) string {
	if t == world.Museum {
		return "Curators"
	}
	return "Founders and staff #" + string(t[0]) + string(t[len(t)-1])
}

func pickPerson(rng *rand.Rand) string {
	first := []string{"Walter", "Irene", "Oscar", "Nadia", "Felix", "Greta"}
	last := []string{"Kovacs", "Lindqvist", "Marchetti", "Okafor", "Petrov", "Svensson"}
	return first[rng.Intn(len(first))] + " " + last[rng.Intn(len(last))]
}

func (kb *KB) addCat(name string) CatID {
	if id, ok := kb.byName[name]; ok {
		return id
	}
	id := CatID(len(kb.cats))
	kb.cats = append(kb.cats, category{name: name})
	kb.byName[name] = id
	return id
}

func (kb *KB) link(parent, child CatID) {
	kb.cats[parent].children = append(kb.cats[parent].children, child)
}

// Root returns the root category of a type.
func (kb *KB) Root(t world.Type) (CatID, bool) {
	id, ok := kb.roots[t]
	return id, ok
}

// CategoryName returns the display name of a category.
func (kb *KB) CategoryName(c CatID) string { return kb.cats[c].name }

// Descendants returns the category and every transitive subcategory in BFS
// order — the paper's "visit the category network ... by iterating a SPARQL
// query on each subcategory" (§5.2.1).
func (kb *KB) Descendants(root CatID) []CatID {
	seen := map[CatID]bool{root: true}
	queue := []CatID{root}
	var out []CatID
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		out = append(out, c)
		for _, ch := range kb.cats[c].children {
			if !seen[ch] {
				seen[ch] = true
				queue = append(queue, ch)
			}
		}
	}
	return out
}

// EntitiesIn returns the names of the entities directly filed in a category,
// sorted.
func (kb *KB) EntitiesIn(c CatID) []string {
	out := make([]string, 0, len(kb.cats[c].entities))
	for _, eid := range kb.cats[c].entities {
		out = append(out, kb.entities[eid].name)
	}
	sort.Strings(out)
	return out
}

// FilterByTypeName applies the paper's heuristic: keep only the categories
// whose names contain the type name. Matching is stem-based so that the
// plural category names DBpedia actually uses survive ("Universities in
// France" contains the type "university" after stemming, which plain
// substring matching would miss). "Museums in France" survives; "Curators"
// is pruned; "Museum people" survives despite holding person entities — the
// residual noise the heuristic accepts.
func (kb *KB) FilterByTypeName(cats []CatID, typeName string) []CatID {
	needles := textproc.NormalizeTokens(typeName)
	var out []CatID
	for _, c := range cats {
		haystack := textproc.NormalizeTokens(kb.cats[c].name)
		if containsAllTokens(haystack, needles) {
			out = append(out, c)
		}
	}
	return out
}

// containsAllTokens reports whether every needle occurs in haystack.
func containsAllTokens(haystack, needles []string) bool {
	if len(needles) == 0 {
		return false
	}
	for _, n := range needles {
		found := false
		for _, h := range haystack {
			if h == n {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// PositiveEntities implements the P-set construction of §5.2.1 for a type:
// walk the network from the root, apply the name heuristic, gather the
// entities of the surviving categories and sample up to max of them.
func (kb *KB) PositiveEntities(t world.Type, max int, rng *rand.Rand) []string {
	root, ok := kb.roots[t]
	if !ok {
		return nil
	}
	cats := kb.FilterByTypeName(kb.Descendants(root), world.TypeName(t))
	var names []string
	seen := map[string]bool{}
	for _, c := range cats {
		for _, n := range kb.EntitiesIn(c) {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if max > 0 && len(names) > max {
		names = names[:max]
	}
	return names
}

// Catalogue flattens the knowledge base into a name -> type lookup table
// (lower-cased names), the pre-compiled catalogue a Limaye-style annotator
// consumes. Entities filed only in noisy categories have no type and are
// omitted.
func (kb *KB) Catalogue() map[string]string {
	out := make(map[string]string, len(kb.entities))
	for _, e := range kb.entities {
		if e.typ != "" {
			out[strings.ToLower(e.name)] = string(e.typ)
		}
	}
	return out
}
