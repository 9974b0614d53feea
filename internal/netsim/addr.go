// Package netsim is a packet-level online network simulator: the analog of
// the modified VINT/NSE simulator the MicroGrid paper integrated (§2.4.2).
// It models arbitrary topologies of hosts, routers and links; links have
// bandwidth, propagation delay, drop-tail queues and an MTU; routing is
// static shortest-path; and two transports are provided — unreliable
// datagrams and a TCP-Reno-like reliable byte stream with message framing.
//
// All behaviour is in simulated time on a simcore.Engine, so the simulator
// "delivers the communications to each destination according to the network
// topology at the expected time", which is the property the MicroGrid
// requires of its network component.
package netsim

import (
	"fmt"
	"strings"
)

// Addr is an IPv4-style address. Virtual grid hosts get addresses like
// 1.11.11.2 (as in the paper's GIS records); the zero Addr is invalid.
type Addr uint32

// Port identifies a transport endpoint within a node.
type Port uint16

// MakeAddr builds an Addr from four octets.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses dotted-quad notation ("1.11.11.2"). Each of the four
// octets is an optional sign and at least one decimal digit, valued
// 0..255 (leading zeros and "-0" are accepted). It allocates nothing on
// success: topologies parse one address per declared host.
func ParseAddr(s string) (Addr, error) {
	var a uint32
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if dot := strings.IndexByte(rest, '.'); dot >= 0 && i < 3 {
			part, rest = rest[:dot], rest[dot+1:]
		} else if dot < 0 && i == 3 {
			part, rest = rest, ""
		} else {
			return 0, fmt.Errorf("netsim: invalid address %q", s)
		}
		v, ok := parseOctet(part)
		if !ok {
			return 0, fmt.Errorf("netsim: invalid address %q", s)
		}
		a = a<<8 | uint32(v)
	}
	return Addr(a), nil
}

// parseOctet parses one dotted-quad octet: an optional '+' or '-', then
// one or more decimal digits, valued 0..255 ('-' only with value 0).
func parseOctet(p string) (byte, bool) {
	neg := false
	if len(p) > 0 && (p[0] == '+' || p[0] == '-') {
		neg, p = p[0] == '-', p[1:]
	}
	if len(p) == 0 {
		return 0, false
	}
	v := 0
	for i := 0; i < len(p); i++ {
		c := p[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if v <= 255 {
			v = v*10 + int(c-'0')
		}
	}
	if v > 255 || (neg && v != 0) {
		return 0, false
	}
	return byte(v), true
}

// MustParseAddr is ParseAddr that panics on error, for literals in tests
// and configuration tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}
