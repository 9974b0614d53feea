package mpi

import (
	"testing"

	"microgrid/internal/simcore"
)

// pacedEngine runs eng's simulation on its own goroutine with a pacer
// process that sleeps one step of simulated time per tick and then
// blocks the engine on a real channel, so a test can advance the live
// simulation, processes included, between steps (RunUntil would shut
// the processes down). It returns the step function and a stop function
// that ends the run.
func pacedEngine(eng *simcore.Engine, step simcore.Duration) (advance func(), stop func() error) {
	tick, done, ran := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	eng.Spawn("pacer", func(p *simcore.Proc) {
		for range tick {
			p.Sleep(step)
			done <- struct{}{}
		}
		eng.Stop()
	})
	go func() { ran <- eng.Run() }()
	advance = func() {
		tick <- struct{}{}
		<-done
	}
	stop = func() error {
		close(tick)
		return <-ran
	}
	return advance, stop
}

// TestSendRecvZeroAlloc pins a blocking Send/Recv round trip between two
// ranks on two hosts at zero heap allocations: envelopes come from the
// ranks' free lists and go back once received, the transport's message
// path is allocation-free, and so are the CPU charges for each message.
func TestSendRecvZeroAlloc(t *testing.T) {
	eng := simcore.NewEngine(1)
	g := testGrid(t, eng, 2)
	payload := &struct{ n int }{}
	rounds := 0
	_, err := Launch(hostsOf(g, 2), "pingpong", 0, LaunchOptions{}, func(c *Comm) error {
		peer := 1 - c.Rank()
		for {
			if c.Rank() == 0 {
				if err := c.Send(peer, 3, 4000, payload); err != nil {
					return err
				}
			}
			data, st, err := c.Recv(peer, 3)
			if err != nil {
				return err
			}
			if data != payload || st.Source != peer || st.Size != 4000 {
				t.Errorf("rank %d got %v %+v", c.Rank(), data, st)
			}
			if c.Rank() == 1 {
				if err := c.Send(peer, 3, 4000, payload); err != nil {
					return err
				}
			} else {
				rounds++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	step, stop := pacedEngine(eng, simcore.Millisecond)
	for range 1000 {
		step()
	}
	before := rounds
	if before == 0 {
		t.Fatal("ping-pong did not start")
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("mpi Send/Recv round trip: %v allocs per step, want 0", allocs)
	}
	if got := rounds - before; got < 500 {
		t.Errorf("%d round trips in 1001 steps", got)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
