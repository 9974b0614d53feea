package netsim

import (
	"fmt"

	"microgrid/internal/trace"
)

// DatagramHandler receives reassembled datagrams. size is the application
// payload size (headers excluded); payload is the opaque metadata passed to
// SendDatagram.
type DatagramHandler func(src Addr, srcPort Port, size int, payload any)

// HandleDatagrams registers h for datagrams addressed to port.
func (n *Node) HandleDatagrams(port Port, h DatagramHandler) {
	if n.handlers == nil {
		n.handlers = make(map[Port]DatagramHandler)
	}
	n.handlers[port] = h
}

// dgramKey identifies an in-flight datagram reassembly.
type dgramKey struct {
	src     Addr
	srcPort Port
	dstPort Port
	id      int64
}

// SendDatagram sends an unreliable datagram of size payload bytes from n to
// dst:dstPort, fragmenting at the path MTU. payload metadata is attached to
// the final fragment and handed to the receiver's handler once every
// fragment has arrived. Delivery is best-effort: loss of any fragment loses
// the datagram.
func (n *Node) SendDatagram(dst Addr, srcPort, dstPort Port, size int, payload any) error {
	dn := n.net.NodeByAddr(dst)
	if dn == nil {
		return fmt.Errorf("netsim: unknown destination %v", dst)
	}
	mtu, ok := n.net.PathMTU(n, dn)
	if !ok {
		return fmt.Errorf("netsim: no route from %s to %v", n.Name, dst)
	}
	maxPayload := mtu - HeaderBytes
	frags := (size + maxPayload - 1) / maxPayload
	if frags == 0 {
		frags = 1
	}
	n.dgramID++
	id := n.dgramID
	remaining := size
	for i := 0; i < frags; i++ {
		p := min(maxPayload, remaining)
		if remaining == 0 {
			p = 0
		}
		remaining -= p
		pkt := n.newPacket()
		*pkt = Packet{
			Src: n.Addr, Dst: dst,
			SrcPort: srcPort, DstPort: dstPort,
			Kind: kindDatagram,
			Size: p + HeaderBytes,
			Seq:  int64(i), Ack: id,
			FragTotal: frags,
		}
		if i == frags-1 {
			pkt.Payload = &dgramMeta{size: size, payload: payload}
		}
		if err := n.sendPacket(pkt); err != nil {
			return err
		}
	}
	return nil
}

type dgramMeta struct {
	size    int
	payload any
}

func (n *Node) deliverDatagram(pkt *Packet) {
	h, ok := n.handlers[pkt.DstPort]
	if !ok {
		if rec := n.eng.Recorder(); rec.Enabled(trace.CatNet) {
			rec.Event(trace.CatNet, "drop", trace.Attr{
				Host: n.Name, Bytes: int64(pkt.Size),
				Detail: fmt.Sprintf("no handler on port %d", pkt.DstPort)})
		}
		return
	}
	if pkt.FragTotal <= 1 {
		if m, ok := pkt.Payload.(*dgramMeta); ok {
			h(pkt.Src, pkt.SrcPort, m.size, m.payload)
		}
		return
	}
	key := dgramKey{src: pkt.Src, srcPort: pkt.SrcPort, dstPort: pkt.DstPort, id: pkt.Ack}
	if n.dgramFrags == nil {
		n.dgramFrags = make(map[dgramKey]*dgramState)
	}
	st := n.dgramFrags[key]
	if st == nil {
		st = &dgramState{}
		n.dgramFrags[key] = st
	}
	st.got++
	if m, ok := pkt.Payload.(*dgramMeta); ok {
		st.meta = m
	}
	if st.got == pkt.FragTotal && st.meta != nil {
		delete(n.dgramFrags, key)
		h(pkt.Src, pkt.SrcPort, st.meta.size, st.meta.payload)
	}
}

type dgramState struct {
	got  int
	meta *dgramMeta
}
