package runner

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"microgrid/internal/core"
)

// chaosTasks picks the chaos experiments out of the quick campaign.
func chaosTasks(t *testing.T) []Task {
	t.Helper()
	var tasks []Task
	for _, task := range Campaign(core.ExperimentRun{Quick: true}) {
		if strings.HasPrefix(task.ID, "chaos-") {
			tasks = append(tasks, task)
		}
	}
	if len(tasks) < 3 {
		t.Fatalf("only %d chaos experiments registered, want >= 3", len(tasks))
	}
	return tasks
}

// TestChaosCampaignDeterministic is the acceptance gate for the fault
// subsystem: the chaos campaign must produce byte-identical campaign.json
// content at any worker count. Every fault time, jitter draw and backoff
// comes from per-engine seeded RNGs, so -j only changes wall clock.
func TestChaosCampaignDeterministic(t *testing.T) {
	ctx := context.Background()
	seq := Run(ctx, chaosTasks(t), Options{Workers: 1, Retries: -1})
	par := Run(ctx, chaosTasks(t), Options{Workers: 4, Retries: -1})

	for _, r := range seq {
		if r.Status != StatusOK {
			t.Fatalf("%s: status %s: %v", r.ID, r.Status, r.Err)
		}
		if r.Failure != FailureNone {
			t.Errorf("%s: failure kind %q on a clean pass", r.ID, r.Failure)
		}
	}
	jseq, err := CampaignJSON(seq, true)
	if err != nil {
		t.Fatal(err)
	}
	jpar, err := CampaignJSON(par, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jseq, jpar) {
		t.Errorf("campaign.json differs between -j1 and -j4:\n--- j1 ---\n%s\n--- j4 ---\n%s", jseq, jpar)
	}
}
