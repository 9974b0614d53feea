package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"microgrid/internal/scenario"
	"microgrid/internal/trace"
)

// pingScenario is a tiny two-host ping-pong scenario that simulates in
// well under a second of wall clock. Varying tag/seed yields distinct
// cache keys.
func pingScenario(tag string, seed int) string {
	return fmt.Sprintf(`scenario ping-%s
seed %d
target procs=2 cpu=500 mem=256MBytes net=100Mbps delay=10us
workload pingpong bytes=1024
`, tag, seed)
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func doReq(t *testing.T, s *Server, method, path, client, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if client != "" {
		req.Header.Set("X-Client-Key", client)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func submit(t *testing.T, s *Server, client, body string) (int, RunInfo) {
	t.Helper()
	w := doReq(t, s, "POST", "/v1/runs", client, body)
	var info RunInfo
	if w.Code == http.StatusOK || w.Code == http.StatusAccepted {
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
			t.Fatalf("decoding submit response: %v\n%s", err, w.Body.String())
		}
	}
	return w.Code, info
}

func getRun(t *testing.T, s *Server, id string) RunInfo {
	t.Helper()
	w := doReq(t, s, "GET", "/v1/runs/"+id, "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET run %s: status %d", id, w.Code)
	}
	var info RunInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatalf("decoding run info: %v", err)
	}
	return info
}

func waitTerminal(t *testing.T, s *Server, id string) RunInfo {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		info := getRun(t, s, id)
		if terminal(RunState(info.State)) {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s did not reach a terminal state", id)
	return RunInfo{}
}

func artifact(t *testing.T, s *Server, id, name string) (int, []byte) {
	t.Helper()
	w := doReq(t, s, "GET", "/v1/runs/"+id+"/"+name, "", "")
	return w.Code, w.Body.Bytes()
}

func scrape(t *testing.T, s *Server) string {
	t.Helper()
	w := doReq(t, s, "GET", "/metrics", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	return w.Body.String()
}

// TestServerCacheHitByteIdentical is the tentpole acceptance check:
// submitting the same scenario text twice simulates once; the second
// submission completes immediately from cache with byte-identical
// campaign.json, stdout, and trace artifacts.
func TestServerCacheHitByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	body := pingScenario("cache", 1)

	code, first := submit(t, s, "alice", body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if first.Cached {
		t.Fatal("first submission claims cached")
	}
	firstDone := waitTerminal(t, s, first.ID)
	if firstDone.State != string(StateDone) {
		t.Fatalf("first run state %s (%s: %s)", firstDone.State, firstDone.Failure, firstDone.Error)
	}

	code, second := submit(t, s, "bob", body)
	if code != http.StatusOK {
		t.Fatalf("second submit: status %d, want 200 (cache hit)", code)
	}
	if !second.Cached || second.State != string(StateDone) {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if second.Hash != first.Hash {
		t.Fatalf("hash mismatch: %s vs %s", second.Hash, first.Hash)
	}

	for _, name := range []string{"campaign.json", "stdout", "trace.jsonl"} {
		c1, b1 := artifact(t, s, first.ID, name)
		c2, b2 := artifact(t, s, second.ID, name)
		if c1 != http.StatusOK || c2 != http.StatusOK {
			t.Fatalf("%s: statuses %d/%d", name, c1, c2)
		}
		if len(b1) == 0 {
			t.Fatalf("%s: empty artifact", name)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s differs between fresh and cached run", name)
		}
	}

	prom := scrape(t, s)
	for _, want := range []string{
		`mgridd_cache_requests_total{result="hit"} 1`,
		`mgridd_cache_requests_total{result="miss"} 1`,
		`mgridd_runs_started_total 1`,
		`mgridd_runs_completed_total{status="ok"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestServerFormattingInsensitiveCacheHit: a reformatted scenario
// (comments, blank lines, shuffled options) hits the cache entry of its
// tidy twin because the key hashes the canonical serialization.
func TestServerFormattingInsensitiveCacheHit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	tidy := pingScenario("fmt", 9)
	messy := `# resubmitted from someone's editor

scenario ping-fmt
seed   9

workload pingpong bytes=1024
target delay=10us net=100Mbps mem=256MBytes cpu=500 procs=2
`
	_, first := submit(t, s, "a", tidy)
	waitTerminal(t, s, first.ID)
	code, second := submit(t, s, "b", messy)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("reformatted scenario missed the cache: status %d, %+v", code, second)
	}
	if second.Hash != first.Hash {
		t.Fatalf("canonical hash differs: %s vs %s", second.Hash, first.Hash)
	}
}

// TestServerFairShareOrder: with one worker and the dispatcher paused,
// interleaved submissions from three clients are executed round-robin
// across clients, FIFO within a client — and the order is exactly
// reproducible from the submission sequence.
func TestServerFairShareOrder(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	s.Pause()

	type sub struct{ client, tag string }
	subs := []sub{
		{"alice", "a1"}, {"alice", "a2"}, {"alice", "a3"},
		{"bob", "b1"}, {"carol", "c1"}, {"bob", "b2"},
	}
	ids := make(map[string]string) // tag → run id
	for i, sb := range subs {
		code, info := submit(t, s, sb.client, pingScenario(sb.tag, 100+i))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", sb.tag, code)
		}
		ids[sb.tag] = info.ID
	}

	prom := scrape(t, s)
	if !strings.Contains(prom, `mgridd_queue_depth{client="alice"} 3`) {
		t.Fatalf("/metrics missing alice depth 3:\n%s", prom)
	}

	s.Resume()
	for _, sb := range subs {
		if info := waitTerminal(t, s, ids[sb.tag]); info.State != string(StateDone) {
			t.Fatalf("run %s state %s (%s)", sb.tag, info.State, info.Error)
		}
	}

	// Execution order = startSeq order, recorded at dispatch.
	wantOrder := []string{"a1", "b1", "c1", "a2", "b2", "a3"}
	s.mu.Lock()
	seqs := make(map[string]int, len(ids))
	for tag, id := range ids {
		seqs[tag] = s.runs[id].startSeq
	}
	s.mu.Unlock()
	for i, tag := range wantOrder {
		if seqs[tag] != i+1 {
			t.Fatalf("execution order: got seqs %v, want %v", seqs, wantOrder)
		}
	}
}

// TestServerBoundedDepthRejection: a client at its queue bound gets an
// explicit 429 and a rejection metric; other clients are unaffected.
func TestServerBoundedDepthRejection(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.Pause()

	code, ok1 := submit(t, s, "alice", pingScenario("d1", 1))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if code, _ := submit(t, s, "alice", pingScenario("d2", 2)); code != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit: status %d, want 429", code)
	}
	code, ok2 := submit(t, s, "bob", pingScenario("d3", 3))
	if code != http.StatusAccepted {
		t.Fatalf("other client's submit: status %d", code)
	}

	if !strings.Contains(scrape(t, s), `mgridd_queue_rejections_total{client="alice"} 1`) {
		t.Fatal("/metrics missing alice rejection")
	}

	s.Resume()
	for _, id := range []string{ok1.ID, ok2.ID} {
		if info := waitTerminal(t, s, id); info.State != string(StateDone) {
			t.Fatalf("run %s state %s (%s)", id, info.State, info.Error)
		}
	}
	// The 429'd submission left no run behind.
	var listed struct {
		Runs []RunInfo `json:"runs"`
	}
	w := doReq(t, s, "GET", "/v1/runs", "", "")
	if err := json.Unmarshal(w.Body.Bytes(), &listed); err != nil {
		t.Fatalf("decoding run list: %v", err)
	}
	if len(listed.Runs) != 2 {
		t.Fatalf("run list has %d entries, want 2: %+v", len(listed.Runs), listed.Runs)
	}
}

// TestServerCancelQueuedRun: cancelling a queued-but-not-started run
// settles it canceled without ever occupying a worker, and later runs
// are unaffected.
func TestServerCancelQueuedRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Pause()

	_, victim := submit(t, s, "alice", pingScenario("v", 1))
	_, survivor := submit(t, s, "bob", pingScenario("s", 2))

	w := doReq(t, s, "DELETE", "/v1/runs/"+victim.ID, "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("cancel: status %d", w.Code)
	}
	info := getRun(t, s, victim.ID)
	if info.State != string(StateCanceled) || info.Status != "canceled" || info.Failure != "canceled" {
		t.Fatalf("cancelled run info: %+v", info)
	}
	if code, _ := artifact(t, s, victim.ID, "campaign.json"); code != http.StatusNotFound {
		t.Fatalf("cancelled-before-start run served an artifact (status %d)", code)
	}

	s.Resume()
	if got := waitTerminal(t, s, survivor.ID); got.State != string(StateDone) {
		t.Fatalf("survivor state %s (%s)", got.State, got.Error)
	}
	s.mu.Lock()
	victimSeq := s.runs[victim.ID].startSeq
	s.mu.Unlock()
	if victimSeq != 0 {
		t.Fatalf("cancelled run was dispatched (startSeq %d)", victimSeq)
	}
	if !strings.Contains(scrape(t, s), `mgridd_runs_completed_total{status="canceled"} 1`) {
		t.Fatal("/metrics missing canceled completion")
	}
}

// TestServerCoalescing: an identical submission arriving while its twin
// is queued rides that execution — one simulation, two completed runs,
// identical artifacts.
func TestServerCoalescing(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Pause()
	body := pingScenario("co", 5)

	_, leader := submit(t, s, "alice", body)
	code, follower := submit(t, s, "bob", body)
	if code != http.StatusAccepted || !follower.Coalesced {
		t.Fatalf("second identical submit not coalesced: status %d, %+v", code, follower)
	}

	s.Resume()
	l := waitTerminal(t, s, leader.ID)
	f := waitTerminal(t, s, follower.ID)
	if l.State != string(StateDone) || f.State != string(StateDone) {
		t.Fatalf("states %s/%s", l.State, f.State)
	}
	if !f.Cached {
		t.Fatal("follower not marked cached")
	}
	_, lb := artifact(t, s, leader.ID, "campaign.json")
	_, fb := artifact(t, s, follower.ID, "campaign.json")
	if !bytes.Equal(lb, fb) {
		t.Fatal("leader and follower campaign.json differ")
	}
	if !strings.Contains(scrape(t, s), `mgridd_cache_requests_total{result="coalesced"} 1`) {
		t.Fatal("/metrics missing coalesced counter")
	}
	if !strings.Contains(scrape(t, s), `mgridd_runs_started_total 1`) {
		t.Fatal("coalesced pair simulated more than once")
	}
}

// TestServerCancelQueuedLeaderPromotesFollower: cancelling the leader of
// a coalesced group while it is still queued promotes the first follower
// into the queue, which then executes for real.
func TestServerCancelQueuedLeaderPromotesFollower(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Pause()
	body := pingScenario("promo", 6)

	_, leader := submit(t, s, "alice", body)
	_, follower := submit(t, s, "bob", body)

	w := doReq(t, s, "DELETE", "/v1/runs/"+leader.ID, "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("cancel leader: status %d", w.Code)
	}
	if info := getRun(t, s, leader.ID); info.State != string(StateCanceled) {
		t.Fatalf("leader state %s", info.State)
	}

	s.Resume()
	f := waitTerminal(t, s, follower.ID)
	if f.State != string(StateDone) {
		t.Fatalf("promoted follower state %s (%s)", f.State, f.Error)
	}
	if f.Cached || f.Coalesced {
		t.Fatalf("promoted follower should have executed for real: %+v", f)
	}
	if code, b := artifact(t, s, follower.ID, "campaign.json"); code != http.StatusOK || len(b) == 0 {
		t.Fatalf("promoted follower artifact: status %d, %d bytes", code, len(b))
	}
}

// TestServerSubmitValidation: malformed or unrunnable submissions are
// rejected with 400 before touching the queue.
func TestServerSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, body, path string
	}{
		{"parse error", "not a scenario at all\n", "/v1/runs"},
		{"no workload", "scenario empty\nseed 1\ntarget procs=1 cpu=500\n", "/v1/runs"},
		{"absolute gis path", "scenario evil\ngis file=/etc/passwd\nworkload pingpong bytes=1\n", "/v1/runs"},
		{"dotdot gis path", "scenario evil\ngis file=../../secrets.ldif\nworkload pingpong bytes=1\n", "/v1/runs"},
		{"bad quick flag", pingScenario("q", 1), "/v1/runs?quick=maybe"},
	}
	for _, tc := range cases {
		if w := doReq(t, s, "POST", tc.path, "", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		}
	}
	if w := doReq(t, s, "GET", "/v1/runs/r999999", "", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown run: status %d, want 404", w.Code)
	}
}

// TestServerRejectsOversizedTraceRing: a posted trace buf sizes a ring
// in the server's memory, so one above trace.MaxBufSize is refused with
// 400 naming the limit, and no run is queued, built or started.
func TestServerRejectsOversizedTraceRing(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := doReq(t, s, "POST", "/v1/runs", "a", pingScenario("buf", 1)+"trace buf=99999999999\n")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), fmt.Sprint(trace.MaxBufSize)) {
		t.Errorf("error does not name the limit %d: %s", trace.MaxBufSize, w.Body.String())
	}
	if list := doReq(t, s, "GET", "/v1/runs", "", ""); !strings.Contains(list.Body.String(), `"runs":[]`) {
		t.Errorf("a run was recorded: %s", list.Body.String())
	}
	prom := scrape(t, s)
	for _, want := range []string{"mgridd_runs_started_total 0", `mgridd_cache_requests_total{result="miss"} 0`} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestServerQuickFlagSeparatesCache: the same scenario under quick and
// full modes occupies distinct cache entries.
func TestServerQuickFlagSeparatesCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := pingScenario("qk", 3)
	_, full := submit(t, s, "a", body)
	waitTerminal(t, s, full.ID)

	w := doReq(t, s, "POST", "/v1/runs?quick=1", "a", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("quick submit: status %d, want 202 (distinct cache entry)", w.Code)
	}
	var quick RunInfo
	if err := json.Unmarshal(w.Body.Bytes(), &quick); err != nil {
		t.Fatal(err)
	}
	if quick.Hash == full.Hash {
		t.Fatal("quick and full submissions share a cache key")
	}
	waitTerminal(t, s, quick.ID)
}

// TestServerStream: the stream endpoint yields RunInfo JSON lines and
// closes after the terminal state.
func TestServerStream(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	_, info := submit(t, s, "a", pingScenario("st", 4))
	waitTerminal(t, s, info.ID)

	w := doReq(t, s, "GET", "/v1/runs/"+info.ID+"/stream", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("stream: status %d", w.Code)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("stream produced no lines")
	}
	var last RunInfo
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last stream line: %v", err)
	}
	if !terminal(RunState(last.State)) {
		t.Fatalf("stream ended on non-terminal state %s", last.State)
	}
	if !strings.HasPrefix(lines[len(lines)-1], `{"id":`) {
		t.Fatalf("stream line does not lead with id: %s", lines[len(lines)-1])
	}
}

// partitionScenario is a tiny two-cluster scenario (two hosts joined by
// one 2 ms wide-area link) whose model partitions across shards.
func partitionScenario(shards int) string {
	engine := ""
	if shards > 0 {
		engine = fmt.Sprintf("engine parallel shards=%d\npartition auto\n", shards)
	}
	return fmt.Sprintf(`scenario part-cache
seed 3
target procs=2 cpu=500 net=100Mbps delay=10us
%stopology
  topology twosite
  host a0 1.0.1.1
  host b0 1.0.2.1
  link a0 b0 10Mbps 2ms
end
ranks a0 b0
workload pingpong bytes=1024
`, engine)
}

// TestServerPartitionCacheKey pins the partition layer's cache
// contract: submissions differing only in the parallel shard count
// produce byte-identical artifacts — the shard-matrix determinism
// guarantee — so they share one cache entry, while a serial submission
// (whose trace keeps CatEngine dispatch telemetry) stays distinct. Also
// checks the mgridd_run_shards metric.
func TestServerPartitionCacheKey(t *testing.T) {
	// First principles: shards=2 and shards=4 executed independently
	// (separate servers, no cache between them) yield the same bytes.
	fresh := func(shards int) *Artifacts {
		s := newTestServer(t, Config{Workers: 1})
		code, info := submit(t, s, "alice", partitionScenario(shards))
		if code != http.StatusAccepted {
			t.Fatalf("shards=%d: submit status %d", shards, code)
		}
		done := waitTerminal(t, s, info.ID)
		if done.State != string(StateDone) {
			t.Fatalf("shards=%d: state %s (%s)", shards, done.State, done.Error)
		}
		arts := &Artifacts{}
		for name, dst := range map[string]*[]byte{
			"campaign.json": &arts.CampaignJSON,
			"stdout":        &arts.Stdout,
			"trace.jsonl":   &arts.TraceJSONL,
		} {
			code, body := artifact(t, s, info.ID, name)
			if code != http.StatusOK {
				t.Fatalf("shards=%d: artifact %s status %d", shards, name, code)
			}
			*dst = body
		}
		return arts
	}
	a2, a4 := fresh(2), fresh(4)
	if !bytes.Equal(a2.CampaignJSON, a4.CampaignJSON) ||
		!bytes.Equal(a2.Stdout, a4.Stdout) ||
		!bytes.Equal(a2.TraceJSONL, a4.TraceJSONL) {
		t.Fatal("shards=2 and shards=4 artifacts differ; the shared cache key would be unsound")
	}

	// Therefore the keys coincide: on one server the shards=4 submission
	// is served from the shards=2 entry without simulating.
	if CacheKey(mustParse(t, partitionScenario(2)), false, Version) !=
		CacheKey(mustParse(t, partitionScenario(4)), false, Version) {
		t.Fatal("partitioned cache keys differ across shard counts")
	}
	s := newTestServer(t, Config{Workers: 1})
	code, first := submit(t, s, "alice", partitionScenario(2))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitTerminal(t, s, first.ID)
	code, second := submit(t, s, "alice", partitionScenario(4))
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("shards=4 after shards=2: status %d cached=%v, want a cache hit", code, second.Cached)
	}

	// A serial submission must NOT share the entry (its trace carries
	// engine dispatch telemetry the partitioned trace strips).
	if CacheKey(mustParse(t, partitionScenario(0)), false, Version) ==
		CacheKey(mustParse(t, partitionScenario(2)), false, Version) {
		t.Fatal("serial and partitioned cache keys coincide")
	}

	m := scrape(t, s)
	if !strings.Contains(m, `mgridd_run_shards{shards="2"} 1`) {
		t.Fatalf("mgridd_run_shards missing from metrics:\n%s", m)
	}
}

func mustParse(t *testing.T, text string) *scenario.Scenario {
	t.Helper()
	s, err := scenario.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerGISScenarioTraced: a scenario whose grid comes from an LDIF
// file under the server's base directory gets the same always-present
// trace artifact as a target-defined one — one run, with events.
func TestServerGISScenarioTraced(t *testing.T) {
	dir := t.TempDir()
	const ldif = `
dn: ou=Concurrent Systems Architecture Group, o=Grid

dn: hn=vma.ucsd.edu, ou=Concurrent Systems Architecture Group, o=Grid
Is_Virtual_Resource: Yes
Configuration_Name: Test_Config
Mapped_Physical_Resource: csag-226-67.ucsd.edu
CpuSpeed: 533
MemorySize: 256MBytes
Virtual_IP: 1.11.11.1

dn: hn=vmb.ucsd.edu, ou=Concurrent Systems Architecture Group, o=Grid
Is_Virtual_Resource: Yes
Configuration_Name: Test_Config
Mapped_Physical_Resource: csag-226-68.ucsd.edu
CpuSpeed: 533
MemorySize: 256MBytes
Virtual_IP: 1.11.11.2
`
	if err := os.WriteFile(filepath.Join(dir, "grid.ldif"), []byte(ldif), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, BaseDir: dir})
	code, info := submit(t, s, "alice", `scenario gis-ping
seed 1
gis file=grid.ldif config=Test_Config
workload pingpong bytes=1024
`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if done := waitTerminal(t, s, info.ID); done.State != string(StateDone) {
		t.Fatalf("run state %s (%s: %s)", done.State, done.Failure, done.Error)
	}
	code, body := artifact(t, s, info.ID, "trace.jsonl")
	if code != http.StatusOK {
		t.Fatalf("trace.jsonl: status %d", code)
	}
	runs, err := trace.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || len(runs[0].Events) == 0 {
		t.Fatalf("trace.jsonl holds %d runs, want one with events:\n%s", len(runs), body)
	}
}

// A POSTed scenario whose bare `trace` line asks for every category (a
// zero mask) gets a trace artifact with events, not an empty recorder.
func TestServerBareTraceRecords(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	code, info := submit(t, s, "alice", `scenario bare-trace
seed 1
target procs=2 cpu=533 net=100Mbps delay=25us
trace
workload pingpong bytes=1024
`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if done := waitTerminal(t, s, info.ID); done.State != string(StateDone) {
		t.Fatalf("run state %s (%s: %s)", done.State, done.Failure, done.Error)
	}
	code, body := artifact(t, s, info.ID, "trace.jsonl")
	if code != http.StatusOK {
		t.Fatalf("trace.jsonl: status %d", code)
	}
	runs, err := trace.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || len(runs[0].Events) == 0 {
		t.Fatalf("trace.jsonl holds %d runs, want one with events:\n%s", len(runs), body)
	}
}

// TestServerSerialTraceCanonical: a serial run's trace.jsonl is the
// canonical merged run, so it matches the partitioned submission's byte
// for byte. The trace masks engine telemetry (which only serial runs
// record) and its ring holds every event, so the two runs must record
// exactly the same events.
func TestServerSerialTraceCanonical(t *testing.T) {
	traced := func(shards int) []byte {
		text := strings.Replace(partitionScenario(shards), "workload ",
			"trace categories=all,-engine buf=1048576\nworkload ", 1)
		s := newTestServer(t, Config{Workers: 1})
		code, info := submit(t, s, "alice", text)
		if code != http.StatusAccepted {
			t.Fatalf("shards=%d: submit status %d", shards, code)
		}
		if done := waitTerminal(t, s, info.ID); done.State != string(StateDone) {
			t.Fatalf("shards=%d: state %s (%s)", shards, done.State, done.Error)
		}
		code, body := artifact(t, s, info.ID, "trace.jsonl")
		if code != http.StatusOK {
			t.Fatalf("shards=%d: trace.jsonl status %d", shards, code)
		}
		runs, err := trace.ReadJSONL(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 || len(runs[0].Events) == 0 || runs[0].Dropped != 0 {
			t.Fatalf("shards=%d: want one run with events and no drops, got %d runs", shards, len(runs))
		}
		return body
	}
	if serial, part := traced(0), traced(2); !bytes.Equal(serial, part) {
		t.Fatalf("serial trace.jsonl (%d bytes) differs from the shards=2 partitioned one (%d bytes)",
			len(serial), len(part))
	}
}
