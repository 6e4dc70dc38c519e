package table

import (
	"fmt"
	"sort"

	"repro/internal/textproc"
)

// Store is an indexed table repository standing in for the GFT service: it
// keeps tables, maintains a keyword index over their names, headers and cell
// content ("GFT maintains an index which favours the retrieval of tables
// that contain information on specific types of POIs", §1), and answers
// simple SQL-ish row selections like the GFT query API.
type Store struct {
	tables []*Table
	byName map[string]int
	index  map[string]map[int]struct{} // stemmed term -> set of table ids
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byName: map[string]int{}, index: map[string]map[int]struct{}{}}
}

// Add registers a table; it returns an error when a table with the same name
// already exists.
func (s *Store) Add(t *Table) error {
	if _, dup := s.byName[t.Name]; dup {
		return fmt.Errorf("store: duplicate table %q", t.Name)
	}
	id := len(s.tables)
	s.tables = append(s.tables, t)
	s.byName[t.Name] = id
	post := func(text string) {
		for _, term := range textproc.NormalizeTokens(text) {
			set := s.index[term]
			if set == nil {
				set = map[int]struct{}{}
				s.index[term] = set
			}
			set[id] = struct{}{}
		}
	}
	post(t.Name)
	for _, c := range t.Columns {
		post(c.Header)
	}
	for _, row := range t.Rows {
		for _, cell := range row {
			post(cell)
		}
	}
	return nil
}

// Len returns the number of stored tables.
func (s *Store) Len() int { return len(s.tables) }

// Get retrieves a table by name.
func (s *Store) Get(name string) (*Table, bool) {
	id, ok := s.byName[name]
	if !ok {
		return nil, false
	}
	return s.tables[id], true
}

// Search returns the tables matching every keyword (AND semantics, stemmed),
// in insertion order — the index-backed retrieval the paper uses to find
// candidate tables per POI type.
func (s *Store) Search(keywords string) []*Table {
	terms := textproc.NormalizeTokens(keywords)
	if len(terms) == 0 {
		return nil
	}
	var ids map[int]struct{}
	for _, term := range terms {
		set := s.index[term]
		if len(set) == 0 {
			return nil
		}
		if ids == nil {
			ids = make(map[int]struct{}, len(set))
			for id := range set {
				ids[id] = struct{}{}
			}
			continue
		}
		for id := range ids {
			if _, ok := set[id]; !ok {
				delete(ids, id)
			}
		}
	}
	sorted := make([]int, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Ints(sorted)
	out := make([]*Table, len(sorted))
	for i, id := range sorted {
		out[i] = s.tables[id]
	}
	return out
}

// Select returns the rows of the named table for which where returns true —
// the moral equivalent of GFT's "SELECT * FROM t WHERE ...". A nil predicate
// selects every row.
func (s *Store) Select(name string, where func(row []string) bool) ([][]string, error) {
	t, ok := s.Get(name)
	if !ok {
		return nil, fmt.Errorf("store: no table %q", name)
	}
	var out [][]string
	for _, row := range t.Rows {
		if where == nil || where(row) {
			out = append(out, append([]string(nil), row...))
		}
	}
	return out, nil
}
