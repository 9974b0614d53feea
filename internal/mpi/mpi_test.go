package mpi

import (
	"fmt"
	"math"
	"testing"

	"microgrid/internal/simcore"
	"microgrid/internal/virtual"
)

// testGrid builds an n-host direct grid on fast Ethernet.
func testGrid(t *testing.T, eng *simcore.Engine, n int) *virtual.Grid {
	t.Helper()
	g, err := virtual.NewLANGrid(eng, "vm", n, 533, 533, 100e6, 25*simcore.Microsecond, 0, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func hostsOf(g *virtual.Grid, n int) []*virtual.Host {
	hs := make([]*virtual.Host, n)
	for i := range hs {
		hs[i] = g.Host(fmt.Sprintf("vm%d", i))
	}
	return hs
}

// runWorld launches fn over n ranks and fails the test on any rank error.
func runWorld(t *testing.T, n int, fn func(c *Comm) error) *World {
	t.Helper()
	eng := simcore.NewEngine(1)
	g := testGrid(t, eng, n)
	w, err := Launch(hostsOf(g, n), "test", 0, LaunchOptions{}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPingPong(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, 1000, "ping"); err != nil {
				return err
			}
			data, st, err := c.Recv(1, 8)
			if err != nil {
				return err
			}
			if data.(string) != "pong" || st.Source != 1 || st.Size != 2000 {
				return fmt.Errorf("got %v %+v", data, st)
			}
		} else {
			data, _, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if data.(string) != "ping" {
				return fmt.Errorf("got %v", data)
			}
			return c.Send(0, 8, 2000, "pong")
		}
		return nil
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tag 1 then tag 2; receiver takes tag 2 first.
			if err := c.Send(1, 1, 100, "first"); err != nil {
				return err
			}
			return c.Send(1, 2, 100, "second")
		}
		d2, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		d1, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if d2.(string) != "second" || d1.(string) != "first" {
			return fmt.Errorf("mismatch: %v %v", d1, d2)
		}
		// Received envelopes are recycled, so no slot of the inbox's
		// backing array past its length may still point at one.
		for _, env := range c.inbox[len(c.inbox):cap(c.inbox)] {
			if env != nil {
				return fmt.Errorf("inbox keeps a received envelope: %+v", *env)
			}
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runWorld(t, 4, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				_, st, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				seen[st.Source] = true
			}
			if len(seen) != 3 {
				return fmt.Errorf("sources = %v", seen)
			}
			return nil
		}
		return c.Send(0, 5, 64, nil)
	})
}

func TestSelfSend(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		if err := c.Send(c.Rank(), 3, 10, "self"); err != nil {
			return err
		}
		d, st, err := c.Recv(c.Rank(), 3)
		if err != nil {
			return err
		}
		if d.(string) != "self" || st.Source != c.Rank() {
			return fmt.Errorf("self recv %v %+v", d, st)
		}
		return nil
	})
}

func TestSendValidation(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		if err := c.Send(9, 0, 1, nil); err == nil {
			return fmt.Errorf("invalid rank accepted")
		}
		if err := c.Send(0, -5, 1, nil); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if _, _, err := c.Recv(9, 0); err == nil {
			return fmt.Errorf("invalid recv rank accepted")
		}
		return nil
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	var after [4]simcore.Time
	eng := simcore.NewEngine(1)
	g := testGrid(t, eng, 4)
	w, err := Launch(hostsOf(g, 4), "bar", 0, LaunchOptions{}, func(c *Comm) error {
		// Stagger arrival: rank r sleeps r*100ms before the barrier.
		c.Proc().Sleep(simcore.Duration(c.Rank()) * 100 * simcore.Millisecond)
		if err := c.Barrier(); err != nil {
			return err
		}
		after[c.Rank()] = c.Proc().Gettimeofday()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	// All ranks leave the barrier at ≥ the slowest rank's arrival (300ms).
	for r, ts := range after {
		if ts.Seconds() < 0.3 {
			t.Fatalf("rank %d left barrier at %v, before the slowest arrival", r, ts)
		}
		if ts.Seconds() > 0.35 {
			t.Fatalf("rank %d left barrier at %v, too late", r, ts)
		}
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runWorld(t, n, func(c *Comm) error {
				var data any
				if c.Rank() == 2%n {
					data = "payload"
				}
				got, err := c.Bcast(2%n, 4096, data)
				if err != nil {
					return err
				}
				if got.(string) != "payload" {
					return fmt.Errorf("rank %d got %v", c.Rank(), got)
				}
				return nil
			})
		})
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runWorld(t, n, func(c *Comm) error {
				vals := []float64{float64(c.Rank() + 1), 1}
				got, err := c.ReduceFloat64(0, vals, Sum)
				if err != nil {
					return err
				}
				wantSum := float64(n*(n+1)) / 2
				if c.Rank() == 0 {
					if got[0] != wantSum || got[1] != float64(n) {
						return fmt.Errorf("reduce = %v", got)
					}
				} else if got != nil {
					return fmt.Errorf("non-root got %v", got)
				}
				all, err := c.AllreduceFloat64([]float64{float64(c.Rank())}, MaxOp)
				if err != nil {
					return err
				}
				if all[0] != float64(n-1) {
					return fmt.Errorf("allreduce max = %v", all)
				}
				return nil
			})
		})
	}
}

func TestAllgather(t *testing.T) {
	runWorld(t, 5, func(c *Comm) error {
		out, err := c.Allgather(128, fmt.Sprintf("blk%d", c.Rank()))
		if err != nil {
			return err
		}
		for i, v := range out {
			if v.(string) != fmt.Sprintf("blk%d", i) {
				return fmt.Errorf("rank %d slot %d = %v", c.Rank(), i, v)
			}
		}
		return nil
	})
}

func TestAlltoallv(t *testing.T) {
	const n = 4
	runWorld(t, n, func(c *Comm) error {
		sizes := make([]int, n)
		data := make([]any, n)
		for j := 0; j < n; j++ {
			sizes[j] = 100 * (j + 1)
			data[j] = fmt.Sprintf("%d->%d", c.Rank(), j)
		}
		out, err := c.Alltoallv(sizes, data)
		if err != nil {
			return err
		}
		for i, v := range out {
			if v.(string) != fmt.Sprintf("%d->%d", i, c.Rank()) {
				return fmt.Errorf("rank %d from %d = %v", c.Rank(), i, v)
			}
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	runWorld(t, 4, func(c *Comm) error {
		out, err := c.Gather(1, 64, c.Rank()*10)
		if err != nil {
			return err
		}
		if c.Rank() != 1 {
			if out != nil {
				return fmt.Errorf("non-root got %v", out)
			}
			return nil
		}
		for i, v := range out {
			if v.(int) != i*10 {
				return fmt.Errorf("slot %d = %v", i, v)
			}
		}
		return nil
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		peer := 1 - c.Rank()
		// Both ranks Isend then Irecv: would deadlock if sends were
		// synchronous.
		req, err := c.Isend(peer, 9, 500000, nil)
		if err != nil {
			return err
		}
		rreq := c.Irecv(peer, 9)
		if err := rreq.Wait(); err != nil {
			return err
		}
		if rreq.Status().Size != 500000 {
			return fmt.Errorf("status = %+v", rreq.Status())
		}
		return req.Wait()
	})
}

func TestSendrecvExchangeNoDeadlock(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		peer := 1 - c.Rank()
		// Exchange messages larger than the transport send buffer.
		got, _, err := c.Sendrecv(peer, 4, 600000, c.Rank(), peer, 4)
		if err != nil {
			return err
		}
		if got.(int) != peer {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
}

func TestProbe(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 6, 50, nil)
		}
		// Wait for arrival, then probe before receiving.
		for {
			if st, ok := c.Probe(0, 6); ok {
				if st.Size != 50 {
					return fmt.Errorf("probe %+v", st)
				}
				break
			}
			c.Proc().Sleep(simcore.Millisecond)
		}
		_, _, err := c.Recv(0, 6)
		return err
	})
}

func TestWorldTimings(t *testing.T) {
	w := runWorld(t, 3, func(c *Comm) error {
		c.Proc().ComputeVirtualSeconds(0.5)
		return nil
	})
	el := w.MaxElapsed()
	if math.Abs(el.Seconds()-0.5) > 0.02 {
		t.Fatalf("elapsed = %v, want ≈0.5s", el)
	}
	for _, r := range w.Results {
		if r.Comm == nil || r.End < r.Start {
			t.Fatalf("bad result %+v", r)
		}
	}
}

func TestConnectValidation(t *testing.T) {
	eng := simcore.NewEngine(1)
	g := testGrid(t, eng, 1)
	if _, err := g.Host("vm0").Spawn("bad", func(p *virtual.Process) {
		if _, err := Connect(p, 5, 2, 0, func(int) string { return "vm0" }); err == nil {
			t.Error("rank out of range accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchEmptyHosts(t *testing.T) {
	if _, err := Launch(nil, "x", 0, LaunchOptions{}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("empty host list accepted")
	}
}

func TestMessageStatsCounted(t *testing.T) {
	w := runWorld(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if err := c.Send(1, 0, 1000, nil); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 5; i++ {
			if _, _, err := c.Recv(0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	c0 := w.Results[0].Comm
	// 5 app sends + barrier traffic.
	if c0.Sent < 5 || c0.BytesSent < 5000 {
		t.Fatalf("stats = sent %d bytes %d", c0.Sent, c0.BytesSent)
	}
	if w.Results[1].Comm.Received < 5 {
		t.Fatalf("received = %d", w.Results[1].Comm.Received)
	}
}

// TestRandomTrafficConservation: every rank fires a random burst of
// messages at random peers; global accounting must balance exactly —
// no loss, no duplication, order preserved per (src, tag) pair.
func TestRandomTrafficConservation(t *testing.T) {
	const n = 5
	eng := simcore.NewEngine(31)
	g := testGrid(t, eng, n)
	w, err := Launch(hostsOf(g, n), "chaos", 0, LaunchOptions{}, func(c *Comm) error {
		rng := c.Proc().Proc().Engine().DeriveRand(fmt.Sprintf("rank%d", c.Rank()))
		// Plan: sends[j] messages to rank j.
		sends := make([]int, n)
		total := 0
		for j := 0; j < n; j++ {
			if j == c.Rank() {
				continue
			}
			sends[j] = rng.Intn(8)
			total += sends[j]
		}
		// Announce counts with an allgather so receivers know what to
		// expect from each source.
		plans, err := c.Allgather(8*n, append([]int(nil), sends...))
		if err != nil {
			return err
		}
		// Fire the sends, sequence-stamped per destination.
		for j := 0; j < n; j++ {
			for k := 0; k < sends[j]; k++ {
				if err := c.Send(j, 5, 200+k, k); err != nil {
					return err
				}
			}
		}
		// Receive exactly what each source announced, in order.
		for src := 0; src < n; src++ {
			if src == c.Rank() {
				continue
			}
			expect := plans[src].([]int)[c.Rank()]
			for k := 0; k < expect; k++ {
				data, st, err := c.Recv(src, 5)
				if err != nil {
					return err
				}
				if data.(int) != k {
					return fmt.Errorf("rank %d from %d: got seq %v want %d", c.Rank(), src, data, k)
				}
				if st.Size != 200+k {
					return fmt.Errorf("size %d want %d", st.Size, 200+k)
				}
			}
		}
		// Nothing should remain queued for the app.
		if st, ok := c.Probe(AnySource, AnyTag); ok {
			return fmt.Errorf("rank %d has stray message %+v", c.Rank(), st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicWorld: identical runs give identical timings.
func TestDeterministicWorld(t *testing.T) {
	run := func() simcore.Duration {
		eng := simcore.NewEngine(17)
		g := testGrid(t, eng, 4)
		w, err := Launch(hostsOf(g, 4), "det", 0, LaunchOptions{}, func(c *Comm) error {
			for i := 0; i < 10; i++ {
				if _, err := c.AllreduceFloat64([]float64{1}, Sum); err != nil {
					return err
				}
				c.Proc().ComputeVirtualSeconds(0.01)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return w.MaxElapsed()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestRecvTimeout(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Nothing matching tag 9 ever arrives: must time out.
			start := c.Proc().Gettimeofday()
			_, _, timedOut, err := c.RecvTimeout(1, 9, 2*simcore.Second)
			if err != nil {
				return err
			}
			if !timedOut {
				return fmt.Errorf("RecvTimeout returned a message that was never sent")
			}
			if el := c.Proc().Gettimeofday().Sub(start); el < 2*simcore.Second {
				return fmt.Errorf("timed out early after %v", el)
			}
			// A real message still arrives through the same path.
			data, st, timedOut, err := c.RecvTimeout(1, 7, 30*simcore.Second)
			if err != nil || timedOut {
				return fmt.Errorf("second RecvTimeout: timedOut=%v err=%v", timedOut, err)
			}
			if data.(string) != "late" || st.Source != 1 {
				return fmt.Errorf("got %v %+v", data, st)
			}
			return nil
		}
		c.Proc().Sleep(5 * simcore.Second)
		return c.Send(0, 7, 100, "late")
	})
}
