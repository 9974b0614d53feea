package microgrid

import (
	"io"

	"microgrid/internal/gis"
)

// GIS is a Grid Information Service directory server (the MDS analog):
// LDAP-style records with the MicroGrid's virtual-resource extensions.
type GIS = gis.Server

// GISEntry is one directory record.
type GISEntry = gis.Entry

// VirtualHostRecord and VirtualNetworkRecord are the typed forms of the
// paper's Fig. 3 record extensions.
type (
	VirtualHostRecord    = gis.VirtualHost
	VirtualNetworkRecord = gis.VirtualNetwork
)

// NewGIS returns an empty directory.
func NewGIS() *GIS { return gis.NewServer() }

// LoadGIS parses LDIF-like text into a new directory.
func LoadGIS(r io.Reader) (*GIS, error) {
	s := gis.NewServer()
	if err := gis.LoadLDIF(s, r); err != nil {
		return nil, err
	}
	return s, nil
}

// DumpGIS renders a directory as LDIF text.
func DumpGIS(s *GIS) string { return gis.DumpLDIF(s) }
