package netsim

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"microgrid/internal/simcore"
)

// Default link parameters.
const (
	// DefaultMTU is the Ethernet MTU; transports derive their MSS from it.
	DefaultMTU = 1500
	// DefaultQueueBytes is the drop-tail queue capacity per link direction.
	DefaultQueueBytes = 128 * 1024
	// HeaderBytes is the per-packet TCP/IP header overhead.
	HeaderBytes = 40
)

// LinkConfig describes one link. The zero value is completed with defaults
// by Connect.
type LinkConfig struct {
	// BandwidthBps is the data rate in bits per second (required, > 0).
	BandwidthBps float64
	// Delay is the one-way propagation delay.
	Delay simcore.Duration
	// QueueBytes is the per-direction drop-tail queue capacity
	// (DefaultQueueBytes if zero).
	QueueBytes int
	// MTU is the maximum packet size in bytes (DefaultMTU if zero).
	MTU int
	// LossProb drops each packet independently with this probability,
	// for fault-injection tests.
	LossProb float64
	// Fidelity selects the link's simulation fidelity (FidelityPacket by
	// default).
	Fidelity Fidelity
}

// Fidelity selects how a link simulates transmission — the paper's
// future-work axis "exploring a range of simulation speed and fidelity"
// (§5), made a per-link choice so backbone links can run the analytic
// flow model while campus LANs stay packet-level.
type Fidelity uint8

const (
	// FidelityPacket simulates every packet through the drop-tail queue
	// and serializer (the default).
	FidelityPacket Fidelity = iota
	// FidelityFlow transmits analytically: per-direction serialization at
	// link bandwidth plus propagation delay, with no queueing events and
	// no random loss. Conservation counters stay coherent (every enqueued
	// packet is counted sent, dropped, or aborted).
	FidelityFlow
)

// String returns the scenario-grammar spelling of f.
func (f Fidelity) String() string {
	if f == FidelityFlow {
		return "flow"
	}
	return "packet"
}

// Network is a simulated internetwork. Nodes default to the network's
// engine; a partitioned model places each node on its cluster's shard
// engine with SetNodeEngine, after which every per-node structure
// (transport endpoints, timers, packet pools, statistics bucket) lives on
// that shard and inter-shard packet hops travel as cross-shard sends.
type Network struct {
	eng    *simcore.Engine
	nodes  map[string]*Node
	byAddr map[Addr]*Node
	// all lists the nodes by compact index (creation order, stable).
	all   []*Node
	links []*Link
	// nodeSlab and linkSlab are storage Grow reserved: addNode and
	// Connect take their next free element instead of allocating.
	nodeSlab []Node
	linkSlab []Link
	// configs holds one completed LinkConfig per distinct value, which
	// every link Connect made with that value points at. Only topology
	// wiring calls Connect, before any engine runs, so it needs no lock.
	configs map[LinkConfig]*LinkConfig
	autoID  uint32
	routed  bool
	// hier is the hierarchical routing state (see routing.go); routeEpoch
	// invalidates lazily built tables on link state changes, and routeMu
	// serializes the lazy builds, which shards of a partitioned run share.
	hier       *hier
	routeEpoch int64
	routeMu    sync.Mutex
	// stats is the counter bucket for nodes on the default engine;
	// engStats buckets nodes moved to other engines. TotalStats sums
	// them and is the one way to read the counters.
	stats    NetStats
	engStats map[*simcore.Engine]*NetStats
	// pool is the packet/hop free list shared by nodes on the default
	// engine; engPools holds one per additional engine. A packet freed on
	// another shard migrates pools — each pool is only ever touched by its
	// own shard's goroutine.
	pool     pktPool
	engPools map[*simcore.Engine]*pktPool
}

// pktPool pools packets, hop events, RTO timers and message events for
// the nodes on one engine; the packet and message paths run
// allocation-free once they are warm. Capacity is bounded so cross-shard
// migration (packets freed on a shard that never sends them back) cannot
// grow memory without bound.
type pktPool struct {
	pktFree *Packet
	npkt    int
	hopFree *hopEvent
	nhop    int
	rtoFree *rtoTimer
	nrto    int
	msgFree *msgEvent
	nmsg    int
}

// maxPooled bounds each free list; excess packets go to the GC.
const maxPooled = 1 << 14

func (n *Network) poolFor(eng *simcore.Engine) *pktPool {
	if eng == n.eng {
		return &n.pool
	}
	if n.engPools == nil {
		n.engPools = make(map[*simcore.Engine]*pktPool)
	}
	p := n.engPools[eng]
	if p == nil {
		p = &pktPool{}
		n.engPools[eng] = p
	}
	return p
}

// NetStats counts packet outcomes across the network. It counts each
// packet once, where its life begins and where it ends, never per hop:
// a hop's serialization is counted on its link direction (Link.Stats
// Sent). PacketsOriginated counts a packet when its origin node accepts
// it, so at quiescence
//
//	PacketsOriginated = PacketsDelivered + PacketsDropped +
//	                    PacketsLost + PacketsAborted
//
// (every terminal point of a packet's life increments exactly one
// right-hand counter). The oracle checks this identity.
type NetStats struct {
	PacketsDelivered int64
	PacketsDropped   int64
	PacketsLost      int64 // random loss injection
	// PacketsOriginated counts packets accepted into the network at their
	// origin (loopback included); it is the conservation left-hand side.
	PacketsOriginated int64
	// PacketsAborted counts in-flight packets invalidated by a link
	// failure epoch bump, while serializing or propagating — lost to the
	// failure, so they are neither Dropped nor Lost.
	PacketsAborted int64
	BytesDelivered int64
}

// add accumulates o into s.
func (s *NetStats) add(o NetStats) {
	s.PacketsDelivered += o.PacketsDelivered
	s.PacketsDropped += o.PacketsDropped
	s.PacketsLost += o.PacketsLost
	s.PacketsOriginated += o.PacketsOriginated
	s.PacketsAborted += o.PacketsAborted
	s.BytesDelivered += o.BytesDelivered
}

// New returns an empty network on eng.
func New(eng *simcore.Engine) *Network {
	return &Network{
		eng:    eng,
		nodes:  make(map[string]*Node),
		byAddr: make(map[Addr]*Node),
	}
}

// statsFor returns the counter bucket for nodes running on eng.
func (n *Network) statsFor(eng *simcore.Engine) *NetStats {
	if eng == n.eng {
		return &n.stats
	}
	if n.engStats == nil {
		n.engStats = make(map[*simcore.Engine]*NetStats)
	}
	s := n.engStats[eng]
	if s == nil {
		s = &NetStats{}
		n.engStats[eng] = s
	}
	return s
}

// TotalStats sums every engine's counter bucket. All fields are plain
// sums, so the result is independent of how the network was partitioned.
func (n *Network) TotalStats() NetStats {
	t := n.stats
	for _, s := range n.engStats {
		t.add(*s)
	}
	return t
}

// SetNodeEngine places nd on eng: subsequently created transport
// endpoints, timers, packet pools and statistics live on eng's shard.
// Call it after topology wiring and before any traffic flows; moving a
// node with live connections is not supported.
func (n *Network) SetNodeEngine(nd *Node, eng *simcore.Engine) {
	nd.eng = eng
	nd.stats = n.statsFor(eng)
	nd.pool = n.poolFor(eng)
}

// Node is a host or router.
type Node struct {
	net  *Network
	Name string
	Addr Addr
	// eng is the engine (shard) the node runs on — the network default
	// unless reassigned with SetNodeEngine; stats and pool are the
	// matching per-engine counter bucket and packet free list.
	eng   *simcore.Engine
	stats *NetStats
	pool  *pktPool
	// idx is the node's compact per-network index (creation order; stable
	// across route recomputation), used to index routing slices.
	idx    int32
	Router bool
	ifaces []*iface
	// tab is the node's lazily built intra-cluster next-hop table (see
	// routing.go). Nodes that never send or forward allocate no routing
	// state.
	tab atomic.Pointer[localTab]
	// ep is the node's transport state, nil until the first Listen,
	// Dial, HandleDatagrams or SendDatagram (see endpoints), so
	// declared-but-untouched hosts carry none. Read paths treat nil as
	// empty.
	ep *endpoints
	// crashed makes the node drop every packet addressed to or routed
	// through it (see SetCrashed).
	crashed bool
}

// endpoints is a node's transport state. Its maps stay nil until first
// use (reads of a nil map are safe).
type endpoints struct {
	handlers   map[Port]DatagramHandler
	listeners  map[Port]*Listener
	conns      map[connKey]*Conn
	dgramFrags map[dgramKey]*dgramState
	nextPort   Port
	// dgramID numbers this node's datagrams (the reassembly key includes
	// the source address, so per-node numbering is collision-free and —
	// unlike a network-global counter — partition-independent).
	dgramID int64
}

// endpoints returns the node's transport state, allocating it on first
// use. Only set-up code and the node's own engine call it, so each
// node's state is written from one shard.
func (nd *Node) endpoints() *endpoints {
	if nd.ep == nil {
		nd.ep = &endpoints{nextPort: 49152}
	}
	return nd.ep
}

// Engine returns the engine (shard) the node runs on.
func (nd *Node) Engine() *simcore.Engine { return nd.eng }

// Index returns the node's compact per-network index: its creation
// order, dense from zero, so callers can keep per-node state in a slice
// or bitset instead of a map.
func (nd *Node) Index() int { return int(nd.idx) }

// iface is one end of a link. Sending on it transmits in the direction
// that leaves node: which of the link's two ends is in hand says which
// direction that is.
type iface struct {
	node *Node
	link *Link
}

// dir returns the index of the direction ifc transmits on: 0 for A→B,
// 1 for B→A.
func (ifc *iface) dir() int {
	if ifc == &ifc.link.ends[0] {
		return 0
	}
	return 1
}

// peer returns the node at the far end of ifc's link.
func (ifc *iface) peer() *Node {
	if ifc.dir() == 0 {
		return ifc.link.B
	}
	return ifc.link.A
}

// channel returns the channel ifc transmits on, opening it on the first
// packet sent that way. Only the source node's engine sends on a
// direction, so each direction's slot is written from one shard.
func (ifc *iface) channel() *channel {
	d := ifc.dir()
	if c := ifc.link.ch[d]; c != nil {
		return c
	}
	return ifc.link.open(d)
}

// Link is a full-duplex link between two nodes, made of two independent
// directed channels. An idle link costs only its endpoints and a pointer
// to its config, which it shares with every link Connect gave an equal
// config: both attachments live inside the Link, and a direction's
// channel is allocated by the first packet sent that way, copying the
// link's current Config and failure state. Config and down are the one
// source for routing, path queries and link events, which never open a
// channel. Config is read-only: Degrade and Restore swap the pointer.
type Link struct {
	A, B   *Node
	Config *LinkConfig
	// ends are A's and B's attachments, transmitting on ch[0] (A→B) and
	// ch[1] (B→A); a nil channel has carried no packet yet.
	ends [2]iface
	ch   [2]*channel
	down bool
	// orig remembers the pre-Degrade configuration, the one Connect
	// shared out (nil when undegraded).
	orig *LinkConfig
}

// open allocates the channel of direction d (0: A→B, 1: B→A).
func (l *Link) open(d int) *channel {
	src, dst := l.A, l.B
	if d == 1 {
		src, dst = l.B, l.A
	}
	c := &channel{src: src, dst: dst, cfg: *l.Config, down: l.down}
	l.ch[d] = c
	return c
}

// label returns the link's "A->B" name, which link trace events carry.
func (l *Link) label() string { return l.A.Name + "->" + l.B.Name }

// AddHost adds a host node with a fixed address.
func (n *Network) AddHost(name string, addr Addr) *Node {
	return n.addNode(name, addr, false)
}

// AddRouter adds a router node; it receives an auto-assigned address in
// 240.0.0.0/8 (never used as a packet destination by applications).
func (n *Network) AddRouter(name string) *Node {
	n.autoID++
	return n.addNode(name, MakeAddr(240, byte(n.autoID>>16), byte(n.autoID>>8), byte(n.autoID)), true)
}

// Grow reserves room for the given numbers of further nodes and links,
// so a topology of known size wires without growing the network's
// tables and takes its nodes and links from two slabs instead of one
// allocation each.
func (n *Network) Grow(nodes, links int) {
	if nodes > 0 {
		n.nodes = growMap(n.nodes, nodes)
		n.byAddr = growMap(n.byAddr, nodes)
		n.all = slices.Grow(n.all, nodes)
		n.nodeSlab = make([]Node, 0, nodes)
	}
	if links > 0 {
		n.links = slices.Grow(n.links, links)
		n.linkSlab = make([]Link, 0, links)
	}
}

// ReserveIfaces presizes the interface lists of the nodes with indices
// first, first+1, ... to hold degree[i] more links each, cutting them
// from one slab, so wiring a topology of known shape grows no per-node
// slice.
func (n *Network) ReserveIfaces(first int, degree []int32) {
	total := 0
	for i, d := range degree {
		total += len(n.all[first+i].ifaces) + int(d)
	}
	slab := make([]*iface, total)
	for i, d := range degree {
		nd := n.all[first+i]
		k := len(nd.ifaces) + int(d)
		nd.ifaces = append(slab[:0:k], nd.ifaces...)
		slab = slab[k:]
	}
}

// next returns the next free element of a slab Grow reserved, or a
// fresh allocation when the slab is used up.
func next[T any](slab *[]T) *T {
	i := len(*slab)
	if i == cap(*slab) {
		return new(T)
	}
	*slab = (*slab)[:i+1]
	return &(*slab)[i]
}

// growMap returns m, or a copy of it with room for extra more entries.
func growMap[K comparable, V any](m map[K]V, extra int) map[K]V {
	out := make(map[K]V, len(m)+extra)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// addNode checks for a duplicate name or address by inserting into
// nodes and byAddr and seeing whether the map grew, so each map is probed
// once. On a duplicate it puts back the entry it replaced before it
// panics, leaving the network as it was.
func (n *Network) addNode(name string, addr Addr, router bool) *Node {
	nd := next(&n.nodeSlab)
	size := len(n.nodes)
	if n.nodes[name] = nd; len(n.nodes) == size {
		n.nodes[name] = n.scan(func(o *Node) bool { return o.Name == name })
		panic(fmt.Sprintf("netsim: duplicate node name %q", name))
	}
	size = len(n.byAddr)
	if n.byAddr[addr] = nd; len(n.byAddr) == size {
		n.byAddr[addr] = n.scan(func(o *Node) bool { return o.Addr == addr })
		delete(n.nodes, name)
		panic(fmt.Sprintf("netsim: duplicate address %v", addr))
	}
	// Fields are set one by one on the zeroed element: a composite
	// literal would stage the whole Node on the stack first.
	nd.net, nd.Name, nd.Addr, nd.Router = n, name, addr, router
	nd.eng, nd.stats, nd.pool = n.eng, &n.stats, &n.pool
	nd.idx = int32(len(n.all))
	n.all = append(n.all, nd)
	n.routed = false
	return nd
}

// scan returns the first node, in index order, that match accepts.
func (n *Network) scan(match func(*Node) bool) *Node {
	for _, nd := range n.all {
		if match(nd) {
			return nd
		}
	}
	return nil
}

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// NodeCount returns the number of nodes.
func (n *Network) NodeCount() int { return len(n.all) }

// NodeAt returns the node with index i (see Node.Index).
func (n *Network) NodeAt(i int) *Node { return n.all[i] }

// NodeByAddr returns the node owning addr, or nil.
func (n *Network) NodeByAddr(a Addr) *Node { return n.byAddr[a] }

// Nodes returns all nodes sorted by name.
func (n *Network) Nodes() []*Node {
	out := slices.Clone(n.all)
	slices.SortFunc(out, byName)
	return out
}

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// MinLinkDelay returns the smallest propagation delay over all links, or
// ok=false for a linkless network. It is the natural conservative
// lookahead for a parallel engine partitioning this network: no packet
// can cross between nodes in less than the minimum link delay, so no
// cross-partition event can land sooner than that.
func (n *Network) MinLinkDelay() (d simcore.Duration, ok bool) {
	for _, l := range n.links {
		if !ok || l.Config.Delay < d {
			d, ok = l.Config.Delay, true
		}
	}
	return d, ok
}

// FindLink returns the earliest-created link joining the two named
// nodes (in either order), or nil. It scans the interfaces of whichever
// endpoint has fewer: a node's interfaces are in link creation order.
func (n *Network) FindLink(a, b string) *Link {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return nil
	}
	if len(nb.ifaces) < len(na.ifaces) {
		na, nb = nb, na
	}
	for _, ifc := range na.ifaces {
		if ifc.peer() == nb {
			return ifc.link
		}
	}
	return nil
}

// Connect joins a and b with a full-duplex link. Defaults are applied to
// zero fields of cfg; the link shares the completed config with every
// other link connected with an equal one.
func (n *Network) Connect(a, b *Node, cfg LinkConfig) *Link {
	if cfg.BandwidthBps <= 0 {
		panic("netsim: link requires positive bandwidth")
	}
	if cfg.MTU == 0 {
		cfg.MTU = DefaultMTU
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = DefaultQueueBytes
	}
	shared := n.configs[cfg]
	if shared == nil {
		if n.configs == nil {
			n.configs = make(map[LinkConfig]*LinkConfig)
		}
		shared = new(LinkConfig)
		*shared = cfg
		n.configs[cfg] = shared
	}
	l := next(&n.linkSlab)
	l.A, l.B, l.Config = a, b, shared
	l.ends[0] = iface{node: a, link: l}
	l.ends[1] = iface{node: b, link: l}
	a.ifaces = append(a.ifaces, &l.ends[0])
	b.ifaces = append(b.ifaces, &l.ends[1])
	n.links = append(n.links, l)
	n.routed = false
	return l
}

// walk calls visit on the config of each link on the routed path from a
// to b, in order. It reads links only and opens no channel. It reports
// whether the walk reached b: false if b is unreachable, on a routing
// loop, or when visit returns false.
func (n *Network) walk(a, b *Node, visit func(*LinkConfig) bool) bool {
	if !n.routed {
		n.ComputeRoutes()
	}
	hops := 0
	for cur := a; cur != b; {
		ifc := n.nextHop(cur, b.idx)
		if ifc == nil || !visit(ifc.link.Config) {
			return false
		}
		cur = ifc.peer()
		hops++
		if hops > len(n.nodes) {
			return false // routing loop
		}
	}
	return true
}

// PathDelay returns the summed propagation delay of the routed path from a
// to b, and the hop count; ok is false if unreachable.
func (n *Network) PathDelay(a, b *Node) (simcore.Duration, int, bool) {
	var total simcore.Duration
	hops := 0
	if !n.walk(a, b, func(cfg *LinkConfig) bool {
		total += cfg.Delay
		hops++
		return true
	}) {
		return 0, 0, false
	}
	return total, hops, true
}

// PathBottleneckBps returns the minimum link bandwidth along the routed
// path from a to b; ok is false if unreachable. A loopback path (a == b)
// has no bandwidth constraint and reports +Inf.
func (n *Network) PathBottleneckBps(a, b *Node) (float64, bool) {
	bw := math.Inf(1)
	if !n.walk(a, b, func(cfg *LinkConfig) bool {
		if cfg.BandwidthBps < bw {
			bw = cfg.BandwidthBps
		}
		return true
	}) {
		return 0, false
	}
	return bw, true
}

// PathAllFlow reports whether every link on the routed path from a to b
// runs at flow fidelity — the condition under which a connection's data
// transfers can complete analytically end to end. A loopback path has no
// links and reports false (the packet loopback path is already cheap).
func (n *Network) PathAllFlow(a, b *Node) bool {
	if a == b || b == nil {
		return false
	}
	return n.walk(a, b, func(cfg *LinkConfig) bool { return cfg.Fidelity == FidelityFlow })
}

// DirectionStats reports one link direction's counters. At quiescence
// the per-direction conservation identity holds:
//
//	Enqueued = Sent + Dropped + Lost + Aborted + Queued
//
// (Aborted here counts only packets invalidated while still serializing;
// post-serialization aborts were already counted in Sent.)
type DirectionStats struct {
	// From and To name the direction.
	From, To string
	// Sent/Dropped/Lost are packet counters; BytesSent is the volume.
	Sent, Dropped, Lost int64
	// Enqueued counts every packet handed to this direction, before any
	// drop/loss decision — the per-direction conservation left-hand side.
	Enqueued int64
	// Aborted counts packets invalidated by an epoch bump while still
	// serializing on this direction.
	Aborted int64
	// Queued is the number of packets still awaiting serialization.
	Queued    int
	BytesSent int64
	// Utilization is the fraction of elapsed time the direction spent
	// serializing packets.
	Utilization float64
}

// Stats returns both directions' counters, A→B first. A direction that
// has carried no packet reports zeros.
func (l *Link) Stats() [2]DirectionStats {
	mk := func(c *channel, from, to string) DirectionStats {
		if c == nil {
			return DirectionStats{From: from, To: to}
		}
		util := 0.0
		if now := c.src.eng.Now(); now > 0 {
			util = float64(c.busyTime) / float64(now)
		}
		return DirectionStats{
			From: from, To: to,
			Sent: c.Sent, Dropped: c.Dropped, Lost: c.Lost,
			Enqueued: c.Enqueued, Aborted: c.Aborted, Queued: len(c.queue) - int(c.head),
			BytesSent:   c.BytesSent,
			Utilization: util,
		}
	}
	return [2]DirectionStats{
		mk(l.ch[0], l.A.Name, l.B.Name),
		mk(l.ch[1], l.B.Name, l.A.Name),
	}
}

// PathMTU returns the minimum MTU along the routed path from a to b
// (DefaultMTU if a == b); ok is false if unreachable.
func (n *Network) PathMTU(a, b *Node) (int, bool) {
	mtu := DefaultMTU
	if !n.walk(a, b, func(cfg *LinkConfig) bool {
		if cfg.MTU < mtu {
			mtu = cfg.MTU
		}
		return true
	}) {
		return 0, false
	}
	return mtu, true
}
