// Package globus is the Grid middleware substrate the MicroGrid runs
// underneath applications: a Globus-1.1-shaped stack with gatekeepers,
// jobmanagers, an RSL subset, and GIS (MDS) registration. As in the
// paper, "all gatekeeper, jobmanager and client processes run on virtual
// hosts", so job submission crosses from the physical into the virtual
// domain through the virtual gatekeeper, and process creation is captured
// through the Globus resource-management mechanisms.
package globus

import (
	"fmt"
	"strconv"
	"strings"
)

// RSL is a parsed Resource Specification Language request — the
// "&(attribute=value)..." conjunctions Globus GRAM used.
type RSL struct {
	attrs map[string]string
	order []string
}

// NewRSL builds an RSL from attribute pairs.
func NewRSL(pairs ...[2]string) *RSL {
	r := &RSL{attrs: make(map[string]string)}
	for _, p := range pairs {
		r.Set(p[0], p[1])
	}
	return r
}

// Set assigns an attribute.
func (r *RSL) Set(key, value string) *RSL {
	k := strings.ToLower(key)
	if _, ok := r.attrs[k]; !ok {
		r.order = append(r.order, k)
	}
	r.attrs[k] = value
	return r
}

// Get returns an attribute value ("" if absent).
func (r *RSL) Get(key string) string { return r.attrs[strings.ToLower(key)] }

// Executable returns the executable attribute.
func (r *RSL) Executable() string { return r.Get("executable") }

// MaxWallTime returns the maxwalltime attribute in virtual seconds
// (0 = unlimited). GRAM's maxwalltime was minutes; seconds suit the
// short experiment timescales here.
func (r *RSL) MaxWallTime() float64 {
	if s := r.Get("maxwalltime"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0
}

// String renders the canonical "&(k=v)(k=v)" form.
func (r *RSL) String() string {
	var b strings.Builder
	b.WriteString("&")
	for _, k := range r.order {
		fmt.Fprintf(&b, "(%s=%s)", k, r.attrs[k])
	}
	return b.String()
}

// ParseRSL parses the RSL subset: '&' followed by (key=value) clauses.
// Values may contain any characters except ')'. A missing leading '&' is
// tolerated for single-clause requests.
func ParseRSL(s string) (*RSL, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimPrefix(t, "&")
	r := &RSL{attrs: make(map[string]string)}
	i := 0
	for i < len(t) {
		for i < len(t) && (t[i] == ' ' || t[i] == '\t' || t[i] == '\n') {
			i++
		}
		if i >= len(t) {
			break
		}
		if t[i] != '(' {
			return nil, fmt.Errorf("globus: RSL: expected '(' at %d in %q", i, s)
		}
		end := strings.IndexByte(t[i:], ')')
		if end < 0 {
			return nil, fmt.Errorf("globus: RSL: unterminated clause in %q", s)
		}
		clause := t[i+1 : i+end]
		i += end + 1
		k, v, ok := strings.Cut(clause, "=")
		k = strings.TrimSpace(k)
		if !ok || k == "" {
			return nil, fmt.Errorf("globus: RSL: bad clause %q in %q", clause, s)
		}
		r.Set(k, strings.TrimSpace(v))
	}
	if len(r.attrs) == 0 {
		return nil, fmt.Errorf("globus: RSL: no clauses in %q", s)
	}
	return r, nil
}
