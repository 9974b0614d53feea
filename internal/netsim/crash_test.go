package netsim

import (
	"testing"

	"microgrid/internal/simcore"
)

// crashLink is the link used by the crash tests: 100 Mb/s, 1 ms.
var crashLink = LinkConfig{BandwidthBps: 100e6, Delay: simcore.Millisecond}

// Crashing the server node must abort the established connection on the
// server and, after bounded retransmission, error out the client's
// blocked Recv instead of retransmitting forever.
func TestNodeCrashAbortsPeerBounded(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, crashLink)

	ln, err := b.Listen(5000)
	if err != nil {
		t.Fatal(err)
	}
	var clientErr error
	var failedAt simcore.Time
	eng.Spawn("server", func(p *simcore.Proc) {
		c, err := ln.Accept(p)
		if err != nil {
			return
		}
		// Receive forever; the crash should abort this with ErrClosed.
		for {
			if _, err := c.Recv(p); err != nil {
				return
			}
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 5000)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < 1000; i++ {
			if err := c.Send(p, 32*1024, i); err != nil {
				clientErr = err
				failedAt = p.Now()
				return
			}
			p.Sleep(10 * simcore.Millisecond)
		}
		t.Error("client sent 1000 messages into a crashed peer without error")
	})
	eng.After(100*simcore.Millisecond, func() { b.SetCrashed(true) })
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if clientErr != ErrClosed {
		t.Errorf("client error = %v, want ErrClosed", clientErr)
	}
	// Failure detection must be bounded (well under a minute of virtual
	// time for a 1 ms link).
	if failedAt > simcore.Time(60*simcore.Second) {
		t.Errorf("client detected the crash only at %v", failedAt)
	}
	if !b.Crashed() {
		t.Error("b not marked crashed")
	}
}

// Dialing a crashed node must fail after bounded SYN retries.
func TestDialCrashedNodeRefused(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, crashLink)
	b.SetCrashed(true)
	var dialErr error
	eng.Spawn("client", func(p *simcore.Proc) {
		_, dialErr = a.Dial(p, b.Addr, 5000)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if dialErr != ErrRefused {
		t.Errorf("dial error = %v, want ErrRefused", dialErr)
	}
}

// A dial across a downed link retries its SYN on the retry timer: it
// connects once the link comes back within maxSynRetries tries, and is
// refused when the first SYN plus maxSynRetries-1 retries find no route.
func TestDialAcrossDownLinkRetries(t *testing.T) {
	for _, c := range []struct {
		name   string
		upAt   simcore.Duration // 0: the link stays down
		wantAt simcore.Time
		want   error
	}{
		// The link is back before the third SYN, sent at 2 s.
		{"comes-back", 1500 * simcore.Millisecond, simcore.Time(2 * simcore.Second), nil},
		{"stays-down", 0, simcore.Time(maxSynRetries * synRetryInterval), ErrRefused},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := simcore.NewEngine(1)
			nw := New(eng)
			a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
			b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
			l := nw.Connect(a, b, crashLink)
			nw.ComputeRoutes()
			if _, err := b.Listen(5000); err != nil {
				t.Fatal(err)
			}
			l.SetDown(true)
			if c.upAt > 0 {
				eng.After(c.upAt, func() { l.SetDown(false) })
			}
			var dialErr error
			var doneAt simcore.Time
			eng.Spawn("client", func(p *simcore.Proc) {
				_, dialErr = a.Dial(p, b.Addr, 5000)
				doneAt = p.Now()
			})
			if err := eng.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if dialErr != c.want {
				t.Fatalf("dial error = %v, want %v", dialErr, c.want)
			}
			// A connect completes one round trip after the SYN that got
			// through; a refusal comes exactly when the last retry times out.
			if c.want == nil && (doneAt < c.wantAt || doneAt > c.wantAt+simcore.Time(10*simcore.Millisecond)) ||
				c.want != nil && doneAt != c.wantAt {
				t.Errorf("dial returned at %v, want at %v", doneAt, c.wantAt)
			}
		})
	}
}

// A node restored after a crash accepts fresh connections.
func TestCrashRebootFreshConnections(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, crashLink)
	eng.After(0, func() { b.SetCrashed(true) })
	eng.After(simcore.Second, func() {
		b.SetCrashed(false)
		if _, err := b.Listen(5000); err != nil {
			t.Fatalf("listen after reboot: %v", err)
		}
		eng.Spawn("server", func(p *simcore.Proc) {
			p.SetDaemon(true)
			ln := b.ep.listeners[5000]
			c, err := ln.Accept(p)
			if err != nil {
				return
			}
			m, err := c.Recv(p)
			if err == nil {
				c.Send(p, m.Size, m.Payload)
			}
		})
	})
	var echoed any
	eng.Spawn("client", func(p *simcore.Proc) {
		p.Sleep(2 * simcore.Second)
		c, err := a.Dial(p, b.Addr, 5000)
		if err != nil {
			t.Errorf("dial after reboot: %v", err)
			return
		}
		if err := c.Send(p, 100, "ping"); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		m, err := c.Recv(p)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		echoed = m.Payload
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if echoed != "ping" {
		t.Errorf("echo = %v, want ping", echoed)
	}
}

// Degrade halves bandwidth; Restore brings the original back.
func TestLinkDegradeRestore(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, a, b := twoHosts(eng, crashLink)
	l := nw.FindLink("a", "b")
	if l == nil {
		t.Fatal("FindLink returned nil")
	}
	l.Degrade(0.5, 2, 0.25)
	if got := l.Config.BandwidthBps; got != 50e6 {
		t.Errorf("degraded bandwidth = %v, want 50e6", got)
	}
	if got := l.Config.Delay; got != 2*simcore.Millisecond {
		t.Errorf("degraded delay = %v, want 2ms", got)
	}
	if got := l.Config.LossProb; got != 0.25 {
		t.Errorf("degraded loss = %v, want 0.25", got)
	}
	// Degrade again: factors rebase on the original, not compound.
	l.Degrade(0.5, 0, -1)
	if got := l.Config.BandwidthBps; got != 50e6 {
		t.Errorf("re-degraded bandwidth = %v, want 50e6", got)
	}
	if got := l.Config.Delay; got != simcore.Millisecond {
		t.Errorf("re-degraded delay = %v, want original 1ms", got)
	}
	if !l.Degraded() {
		t.Error("link not marked degraded")
	}
	l.Restore()
	if l.Degraded() {
		t.Error("link still degraded after Restore")
	}
	if got := l.Config.BandwidthBps; got != 100e6 {
		t.Errorf("restored bandwidth = %v, want 100e6", got)
	}
	if got := l.Config.LossProb; got != 0 {
		t.Errorf("restored loss = %v, want 0", got)
	}
	_, _ = a, b
}

// A transfer across a flapping link must still complete (TCP recovers by
// retransmission), just slower.
func TestTransferSurvivesFlap(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, a, b := twoHosts(eng, crashLink)
	l := nw.FindLink("a", "b")
	// Three cycles from 50 ms: down for 200 ms, up for 100 ms.
	for i := 0; i < 3; i++ {
		down := simcore.Time(50*simcore.Millisecond) + simcore.Time(i)*simcore.Time(300*simcore.Millisecond)
		eng.At(down, func() { l.SetDown(true) })
		eng.At(down.Add(200*simcore.Millisecond), func() { l.SetDown(false) })
	}

	ln, _ := b.Listen(5000)
	var got int
	eng.Spawn("server", func(p *simcore.Proc) {
		c, err := ln.Accept(p)
		if err != nil {
			return
		}
		for {
			m, err := c.Recv(p)
			if err != nil {
				return
			}
			got += m.Size
		}
	})
	const total = 1 << 20
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 5000)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for sent := 0; sent < total; sent += 64 * 1024 {
			if err := c.Send(p, 64*1024, nil); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
		c.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != total {
		t.Errorf("received %d bytes, want %d", got, total)
	}
	if l.Down() {
		t.Error("link still down after flap sequence")
	}
}
