package workqueue

import (
	"fmt"
	"testing"

	"microgrid/internal/mpi"
	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/virtual"
)

// hetGrid builds a grid whose workers have the given MIPS ratings (rank 0
// master is always 533).
func hetGrid(t *testing.T, eng *simcore.Engine, workerMIPS []float64) (*virtual.Grid, []*virtual.Host) {
	t.Helper()
	base := netsim.MustParseAddr("1.11.11.1")
	cfg := virtual.Config{Direct: true}
	speeds := append([]float64{533}, workerMIPS...)
	for i, s := range speeds {
		name := fmt.Sprintf("vm%d", i)
		cfg.Hosts = append(cfg.Hosts, virtual.HostConfig{
			Name: name, IP: base + netsim.Addr(i),
			CPUSpeedMIPS: s, MappedPhysical: "p-" + name,
		})
		cfg.Phys = append(cfg.Phys, virtual.PhysConfig{Name: "p-" + name, CPUSpeedMIPS: s})
	}
	g, err := virtual.NewGrid(eng, cfg, virtual.LANWire(cfg.Hosts, 100e6, 25*simcore.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*virtual.Host, len(speeds))
	for i := range hosts {
		hosts[i] = g.Host(fmt.Sprintf("vm%d", i))
	}
	return g, hosts
}

// farm runs the workload and returns (result, makespan seconds).
func farm(t *testing.T, workerMIPS []float64, cfg Config) (*Result, float64) {
	t.Helper()
	eng := simcore.NewEngine(1)
	_, hosts := hetGrid(t, eng, workerMIPS)
	var res *Result
	w, err := mpi.Launch(hosts, "farm", 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		r, err := Run(c, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
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
	return res, w.MaxElapsed().Seconds()
}

func TestStaticHomogeneous(t *testing.T) {
	res, _ := farm(t, []float64{533, 533, 533}, Config{
		Units: 300, OpsPerUnit: 1e6, Policy: Static,
	})
	if res.UnitsDone != 300 {
		t.Fatalf("done = %d", res.UnitsDone)
	}
	for w := 1; w <= 3; w++ {
		if res.PerWorker[w] != 100 {
			t.Fatalf("worker %d did %d units", w, res.PerWorker[w])
		}
	}
}

func TestSelfSchedulingCompletes(t *testing.T) {
	res, _ := farm(t, []float64{533, 533}, Config{
		Units: 250, OpsPerUnit: 1e6, Policy: SelfScheduling,
	})
	if res.UnitsDone != 250 {
		t.Fatalf("done = %d", res.UnitsDone)
	}
	if res.PerWorker[1]+res.PerWorker[2] != 250 {
		t.Fatalf("per-worker = %v", res.PerWorker)
	}
	if res.PerWorker[0] != 0 {
		t.Fatal("master did unit work")
	}
}

// TestAdaptationBeatsStaticOnHeterogeneousGrid is the motivating
// experiment: with a 4:1 speed spread, self-scheduling adapts and wins.
func TestAdaptationBeatsStaticOnHeterogeneousGrid(t *testing.T) {
	workers := []float64{533, 533, 133} // one worker 4× slower
	cfg := Config{Units: 400, OpsPerUnit: 2e6}

	cfg.Policy = Static
	_, staticTime := farm(t, workers, cfg)
	cfg.Policy = SelfScheduling
	res, adaptiveTime := farm(t, workers, cfg)

	// Static is bounded by the slow worker doing 1/3 of the work at 1/4
	// speed; adaptive should cut the makespan by well over 30%.
	if adaptiveTime > 0.7*staticTime {
		t.Fatalf("adaptive %.3fs vs static %.3fs: insufficient gain", adaptiveTime, staticTime)
	}
	// The fast workers must have absorbed most of the load.
	if res.PerWorker[3] >= res.PerWorker[1] {
		t.Fatalf("slow worker did %d ≥ fast worker's %d", res.PerWorker[3], res.PerWorker[1])
	}
}

func TestSelfSchedulingAdaptsToContention(t *testing.T) {
	// Homogeneous CPUs, but worker 2's physical machine hosts a CPU hog:
	// self-scheduling routes work away from it.
	eng := simcore.NewEngine(1)
	g, hosts := hetGrid(t, eng, []float64{533, 533})
	// Contend host vm2's physical CPU.
	hogTask := g.Host("vm2").Phys.NewTask("hog")
	hogTask.SetBusyLoop(true)
	var res *Result
	w, err := mpi.Launch(hosts, "farm", 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		r, err := Run(c, Config{Units: 300, OpsPerUnit: 2e6, Policy: SelfScheduling})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Spawn("end", func(p *simcore.Proc) {
		p.Sleep(120 * simcore.Second)
		eng.Stop() // backstop for the busy loop keeping events alive
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if res.UnitsDone != 300 {
		t.Fatalf("done = %d", res.UnitsDone)
	}
	if res.PerWorker[2] >= res.PerWorker[1] {
		t.Fatalf("contended worker did %d ≥ clean worker's %d", res.PerWorker[2], res.PerWorker[1])
	}
}

func TestStaticRemainderDistribution(t *testing.T) {
	// 10 units over 3 workers: shares 4, 3, 3.
	res, _ := farm(t, []float64{533, 533, 533}, Config{
		Units: 10, OpsPerUnit: 1e6, Policy: Static,
	})
	if res.PerWorker[1] != 4 || res.PerWorker[2] != 3 || res.PerWorker[3] != 3 {
		t.Fatalf("shares = %v", res.PerWorker)
	}
}

func TestSelfSchedulingSingleWorker(t *testing.T) {
	res, _ := farm(t, []float64{533}, Config{
		Units: 37, OpsPerUnit: 1e6, Policy: SelfScheduling, MinChunk: 4,
	})
	if res.UnitsDone != 37 || res.PerWorker[1] != 37 {
		t.Fatalf("res = %+v", res)
	}
}

func TestPolicyString(t *testing.T) {
	if Static.String() != "static" || SelfScheduling.String() != "self-scheduling" {
		t.Fatalf("strings: %v %v", Static, SelfScheduling)
	}
	if Policy(99).String() != "?" {
		t.Fatal("unknown policy string")
	}
}

func TestRunValidation(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, hosts := hetGrid(t, eng, []float64{533})
	w, err := mpi.Launch(hosts, "bad", 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		if _, err := Run(c, Config{Units: 0, OpsPerUnit: 1, Policy: Static}); err == nil {
			return fmt.Errorf("zero units accepted")
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

// A worker's host crashes mid-farm: the fault-tolerant master declares it
// lost, re-dispatches its chunk, and every unit is counted exactly once.
func TestFaultTolerantWorkerCrash(t *testing.T) {
	eng := simcore.NewEngine(1)
	g, hosts := hetGrid(t, eng, []float64{533, 533, 533, 533})
	cfg := Config{
		Units:         60,
		OpsPerUnit:    2e7,
		Policy:        SelfScheduling,
		FaultTolerant: true,
		LostTimeout:   simcore.Second,
	}
	var res *Result
	w, err := mpi.Launch(hosts, "ftfarm", 0, mpi.LaunchOptions{SkipExitBarrier: true}, func(c *mpi.Comm) error {
		r, err := Run(c, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.After(500*simcore.Millisecond, func() { g.Host("vm2").Crash() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	_ = w // the crashed rank's error is expected; rank 0 is what matters
	if res == nil {
		t.Fatal("master produced no result")
	}
	if res.UnitsDone != cfg.Units {
		t.Fatalf("UnitsDone = %d, want %d", res.UnitsDone, cfg.Units)
	}
	if res.DeadWorkers == 0 {
		t.Error("no worker was declared dead despite the crash")
	}
	if res.LostUnits == 0 || res.RedispatchedUnits != res.LostUnits {
		t.Errorf("lost=%d redispatched=%d, want equal and nonzero",
			res.LostUnits, res.RedispatchedUnits)
	}
	if res.PerWorker[2] > 0 && res.PerWorker[2]+res.LostUnits > cfg.Units {
		t.Errorf("crashed worker credited implausibly: %v", res.PerWorker)
	}
	m := res.Metrics()
	if m["units_done"] != float64(cfg.Units) {
		t.Errorf("Metrics units_done = %v", m["units_done"])
	}
}

// Without fault tolerance the same crash deadlocks the farm: the master
// waits forever for the lost chunk. The engine reports it deterministically.
func TestNonFaultTolerantWorkerCrashHangs(t *testing.T) {
	eng := simcore.NewEngine(1)
	g, hosts := hetGrid(t, eng, []float64{533, 533, 533, 533})
	cfg := Config{Units: 60, OpsPerUnit: 2e7, Policy: SelfScheduling}
	if _, err := mpi.Launch(hosts, "farm", 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		_, err := Run(c, cfg)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	eng.After(500*simcore.Millisecond, func() { g.Host("vm2").Crash() })
	if err := eng.Run(); err == nil {
		t.Fatal("expected a deadlock from the non-fault-tolerant farm")
	}
}

func TestFaultTolerantRequiresSelfScheduling(t *testing.T) {
	_, tm := farm(t, []float64{533}, Config{Units: 4, OpsPerUnit: 1e6, Policy: SelfScheduling})
	_ = tm
	eng := simcore.NewEngine(1)
	_, hosts := hetGrid(t, eng, []float64{533})
	if _, err := mpi.Launch(hosts, "bad", 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		_, err := Run(c, Config{Units: 4, OpsPerUnit: 1e6, Policy: Static, FaultTolerant: true})
		if err == nil && c.Rank() == 0 {
			return fmt.Errorf("static+FT accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Ranks return immediately on the config error; drain the engine.
	_ = eng.Run()
}
