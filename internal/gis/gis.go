// Package gis implements the Grid Information Service the MicroGrid
// virtualizes (paper §2.2.2): an LDAP-style hierarchical directory of host
// and network records, with subtree search and filters, an LDIF-like text
// format, and the paper's virtual-resource record extensions
// (Is_Virtual_Resource, Configuration_Name, Mapped_Physical_Resource, ...).
//
// Virtual grid entries live in the same servers as physical ones —
// "extension by addition ensures subtype compatibility of the extended
// records", and no additional servers or daemons are needed.
package gis

import (
	"fmt"
	"sort"
	"strings"
)

// DN is a distinguished name: comma-separated RDNs, most specific first,
// e.g. "hn=vm.ucsd.edu, ou=Concurrent Systems Architecture Group, o=Grid".
type DN string

// Normalize canonicalizes spacing and attribute-name case in a DN.
func (d DN) Normalize() DN {
	parts := strings.Split(string(d), ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if i := strings.IndexByte(p, '='); i >= 0 {
			p = strings.ToLower(strings.TrimSpace(p[:i])) + "=" + strings.TrimSpace(p[i+1:])
		}
		out = append(out, p)
	}
	return DN(strings.Join(out, ","))
}

// Parent returns the DN with the leading RDN removed ("" at the root).
func (d DN) Parent() DN {
	s := string(d.Normalize())
	if i := strings.IndexByte(s, ','); i >= 0 {
		return DN(s[i+1:])
	}
	return ""
}

// RDN returns the leading relative distinguished name.
func (d DN) RDN() string {
	s := string(d.Normalize())
	if i := strings.IndexByte(s, ','); i >= 0 {
		return s[:i]
	}
	return s
}

// IsDescendantOf reports whether d lies strictly under base ("" is an
// ancestor of everything).
func (d DN) IsDescendantOf(base DN) bool {
	dn := string(d.Normalize())
	b := string(base.Normalize())
	if b == "" {
		return dn != ""
	}
	return strings.HasSuffix(dn, ","+b) && dn != b
}

// Entry is one directory record: a DN plus multi-valued attributes.
// Attribute names are case-insensitive (stored lowercase).
type Entry struct {
	DN    DN
	attrs map[string][]string
	order []string // insertion order of attribute names, for stable output
}

// NewEntry creates an empty entry at dn.
func NewEntry(dn DN) *Entry {
	return &Entry{DN: dn.Normalize(), attrs: make(map[string][]string)}
}

// Set replaces the attribute's values.
func (e *Entry) Set(attr string, values ...string) *Entry {
	k := strings.ToLower(attr)
	if _, ok := e.attrs[k]; !ok {
		e.order = append(e.order, k)
	}
	e.attrs[k] = append([]string(nil), values...)
	return e
}

// Add appends values to the attribute.
func (e *Entry) Add(attr string, values ...string) *Entry {
	k := strings.ToLower(attr)
	if _, ok := e.attrs[k]; !ok {
		e.order = append(e.order, k)
	}
	e.attrs[k] = append(e.attrs[k], values...)
	return e
}

// Get returns the attribute's first value ("" if absent).
func (e *Entry) Get(attr string) string {
	vs := e.attrs[strings.ToLower(attr)]
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// GetAll returns all values of the attribute.
func (e *Entry) GetAll(attr string) []string {
	return append([]string(nil), e.attrs[strings.ToLower(attr)]...)
}

// Has reports whether the attribute exists with at least one value.
func (e *Entry) Has(attr string) bool {
	return len(e.attrs[strings.ToLower(attr)]) > 0
}

// Attrs returns attribute names in insertion order.
func (e *Entry) Attrs() []string {
	return append([]string(nil), e.order...)
}

// Scope selects how much of the tree Search visits.
type Scope int

const (
	// ScopeBase matches only the base entry itself.
	ScopeBase Scope = iota
	// ScopeOneLevel matches immediate children of the base.
	ScopeOneLevel
	// ScopeSubtree matches the base and all descendants.
	ScopeSubtree
)

// Server is an in-memory GIS directory server (the MDS analog).
type Server struct {
	entries map[DN]*Entry
}

// NewServer returns an empty directory.
func NewServer() *Server {
	return &Server{entries: make(map[DN]*Entry)}
}

// Add inserts an entry; it fails on duplicates.
func (s *Server) Add(e *Entry) error {
	dn := e.DN.Normalize()
	if _, dup := s.entries[dn]; dup {
		return fmt.Errorf("gis: entry %q already exists", dn)
	}
	e.DN = dn
	s.entries[dn] = e
	return nil
}

// Upsert inserts or replaces an entry.
func (s *Server) Upsert(e *Entry) {
	e.DN = e.DN.Normalize()
	s.entries[e.DN] = e
}

// Delete removes the entry at dn, reporting whether it existed.
func (s *Server) Delete(dn DN) bool {
	dn = dn.Normalize()
	if _, ok := s.entries[dn]; !ok {
		return false
	}
	delete(s.entries, dn)
	return true
}

// Lookup returns the entry at dn, or nil.
func (s *Server) Lookup(dn DN) *Entry {
	return s.entries[dn.Normalize()]
}

// Len returns the number of entries.
func (s *Server) Len() int { return len(s.entries) }

// Search returns entries under base (per scope) matching filter, sorted by
// DN. A nil filter matches everything.
func (s *Server) Search(base DN, scope Scope, filter Filter) []*Entry {
	base = base.Normalize()
	var out []*Entry
	for dn, e := range s.entries {
		switch scope {
		case ScopeBase:
			if dn != base {
				continue
			}
		case ScopeOneLevel:
			if dn.Parent() != base {
				continue
			}
		case ScopeSubtree:
			if dn != base && !dn.IsDescendantOf(base) {
				continue
			}
		}
		if filter != nil && !filter.Matches(e) {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DN < out[j].DN })
	return out
}
