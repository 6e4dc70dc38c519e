// Package gazetteer provides the geographic substrate that replaces the
// Google Geocoding API used in §5.2.2 of the paper. It models geographic
// locations in a strict containment hierarchy (streets ⊂ cities ⊂ states ⊂
// countries), formats and parses postal addresses — including the partial,
// ambiguous addresses the paper highlights — and geocodes an address string
// to the set of candidate interpretations.
//
// The package splits the lifecycle in two: a mutable Builder accumulates
// locations during dataset construction, and Freeze converts it into an
// immutable Frozen gazetteer with compact columnar storage (interned names,
// precomputed container chains, per-parent child ranges and a candidate
// lookup index) that serves concurrent geocoding traffic and persists to a
// versioned binary snapshot. Both sides satisfy the read-only Geo interface
// the disambiguation and annotation layers consume.
package gazetteer

import (
	"fmt"
	"strings"

	"repro/internal/textproc"
)

// Kind classifies a location in the containment hierarchy.
type Kind int

// The hierarchy levels, from most to least specific.
const (
	Street Kind = iota
	City
	State
	Country
)

// String returns the lowercase kind name.
func (k Kind) String() string {
	switch k {
	case Street:
		return "street"
	case City:
		return "city"
	case State:
		return "state"
	case Country:
		return "country"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// LocID identifies a location inside a gazetteer. The zero LocID is invalid.
// Builder and the Frozen gazetteer it freezes into share the same id space.
type LocID int

// NoLocation is the invalid LocID.
const NoLocation LocID = 0

// Geo is the read-only gazetteer view the rest of the system works against:
// the mutable *Builder satisfies it during dataset construction, and the
// immutable *Frozen satisfies it in the serving path. Implementations agree
// exactly — Frozen is differentially tested to return identical results.
type Geo interface {
	// Len returns the number of locations stored.
	Len() int
	// Name returns the bare name of a location.
	Name(LocID) string
	// Kind returns the hierarchy level of a location.
	Kind(LocID) Kind
	// Parent returns the direct geographic container, or NoLocation for
	// countries (and for NoLocation itself).
	Parent(LocID) LocID
	// Containers returns the chain of containers from the direct one up
	// to the country.
	Containers(LocID) []LocID
	// CityOf returns the city containing the location (or the location
	// itself if it is a city), or NoLocation above city level.
	CityOf(LocID) LocID
	// Lookup returns all locations of the given kind with the given name,
	// in increasing id order. Matching is case-insensitive.
	Lookup(name string, kind Kind) []LocID
	// LookupAny returns all locations with the given name regardless of
	// kind, in increasing id order.
	LookupAny(name string) []LocID
	// FullName renders the location with its full container chain.
	FullName(LocID) string
	// Geocode resolves an address string to its candidate LocIDs, in
	// increasing id order; nil when the address is unresolvable.
	Geocode(address string) []LocID
}

// location is the internal record for one geographic location.
type location struct {
	name   string
	kind   Kind
	parent LocID // direct container; NoLocation for countries
}

// Builder is the mutable gazetteer under construction: an append-only store
// of locations. It is not safe for concurrent use; call Freeze once the
// dataset is complete to obtain the immutable, concurrency-safe form.
type Builder struct {
	locs   []location // index 0 unused so that LocID 0 stays invalid
	byName map[string][]LocID
}

// Gazetteer is the historical name of the mutable Builder; existing callers
// keep working unchanged. New code should say Builder (or work against Geo).
type Gazetteer = Builder

// New returns an empty mutable gazetteer.
func New() *Builder {
	return &Builder{
		locs:   make([]location, 1),
		byName: map[string][]LocID{},
	}
}

// Add inserts a location under the given parent and returns its id. Countries
// take parent = NoLocation. Add panics if the parent/kind combination
// violates the hierarchy, since that is a programming error in dataset
// construction, not a runtime condition.
func (g *Gazetteer) Add(name string, kind Kind, parent LocID) LocID {
	if kind == Country {
		if parent != NoLocation {
			panic("gazetteer: country cannot have a parent")
		}
	} else {
		if parent == NoLocation {
			panic("gazetteer: " + kind.String() + " requires a parent")
		}
		pk := g.locs[parent].kind
		if pk != kind+1 {
			panic(fmt.Sprintf("gazetteer: %s cannot be contained in %s", kind, pk))
		}
	}
	id := LocID(len(g.locs))
	g.locs = append(g.locs, location{name: name, kind: kind, parent: parent})
	key := normalizeName(name)
	// Ids are assigned in increasing order, so every byName list is sorted
	// by construction — Lookup and LookupAny rely on this invariant.
	g.byName[key] = append(g.byName[key], id)
	return id
}

// Len returns the number of locations stored.
func (g *Gazetteer) Len() int { return len(g.locs) - 1 }

// Name returns the bare name of a location.
func (g *Gazetteer) Name(id LocID) string { return g.locs[id].name }

// Kind returns the hierarchy level of a location.
func (g *Gazetteer) Kind(id LocID) Kind { return g.locs[id].kind }

// Parent returns the direct geographic container of a location (the "most
// specific container" of the paper), or NoLocation for countries.
func (g *Gazetteer) Parent(id LocID) LocID { return g.locs[id].parent }

// Containers returns the chain of containers from the direct one up to the
// country.
func (g *Gazetteer) Containers(id LocID) []LocID {
	var out []LocID
	for p := g.Parent(id); p != NoLocation; p = g.Parent(p) {
		out = append(out, p)
	}
	return out
}

// CityOf returns the city containing the location (or the location itself if
// it is a city), or NoLocation when the location sits above city level.
func (g *Gazetteer) CityOf(id LocID) LocID {
	for cur := id; cur != NoLocation; cur = g.Parent(cur) {
		if g.Kind(cur) == City {
			return cur
		}
	}
	return NoLocation
}

// Lookup returns all locations of the given kind with the given name, in
// increasing id order (byName lists are append-ordered by id, so no sort is
// needed). Name matching is case-insensitive.
func (g *Gazetteer) Lookup(name string, kind Kind) []LocID {
	var out []LocID
	for _, id := range g.byName[normalizeName(name)] {
		if g.locs[id].kind == kind {
			out = append(out, id)
		}
	}
	return out
}

// LookupAny returns all locations with the given name regardless of kind, in
// increasing id order.
func (g *Gazetteer) LookupAny(name string) []LocID {
	return append([]LocID(nil), g.byName[normalizeName(name)]...)
}

// FullName renders the location with its full container chain, e.g.
// "Pennsylvania Avenue, Washington, D.C., USA".
func (g *Gazetteer) FullName(id LocID) string {
	parts := []string{g.Name(id)}
	for _, c := range g.Containers(id) {
		parts = append(parts, g.Name(c))
	}
	return strings.Join(parts, ", ")
}

// normalizeName lower-cases, folds diacritics and collapses whitespace for
// name keys, so "Cédar Lane" and "cedar lane" resolve to the same locations
// whichever spelling a table (or a messy NFD rendering of it) uses. All the
// built-in synthetic names are ASCII, so folding changes nothing for them.
func normalizeName(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(textproc.FoldDiacritics(s))), " ")
}
