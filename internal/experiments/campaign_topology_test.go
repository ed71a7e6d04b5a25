package experiments_test

import (
	"bytes"
	"regexp"
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
	"fairsched/internal/topology"
	"fairsched/internal/workload"
)

// topoCampaign is a two-partition campaign whose scenario routes the
// lighter half of the users to fast/org/a and the rest to slow/org/b, with
// an SLO assignment so the per-queue attainment columns are live.
func topoCampaign(t *testing.T, parallel int) sweep.Campaign {
	t.Helper()
	topo, err := topology.Parse("part=fast:100,part=slow:100," +
		"queue=org/a:part=fast:guar=2,queue=org/b:part=slow")
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Campaign{
		Sources: []scenario.Source{
			scenario.Synthetic(workload.Config{Scale: 0.02, SystemSize: 100}),
		},
		Scenarios: []scenario.Scenario{
			mustBuiltinParse("queue=p50:org/a,default:org/b+slo=p50:30m,default:4h"),
		},
		Seeds:    []int64{42, 43},
		Specs:    mustSpecsSLO(t, "cplant24.nomax.all", "easy"),
		Study:    core.StudyConfig{SystemSize: 100, Topology: topo},
		Parallel: parallel,
	}
}

// TestCampaignTopologyDeterministicAcrossParallelism: a multi-partition
// campaign report must be byte-identical at every worker count, and its
// cell headers name the machine the cell ran on — both partitions, not the
// study's default size.
func TestCampaignTopologyDeterministicAcrossParallelism(t *testing.T) {
	render := func(parallel int) string {
		cells, err := topoCampaign(t, parallel).Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		experiments.RenderCampaign(&buf, cells)
		return buf.String()
	}
	serial := render(1)
	for _, probe := range []string{"per-queue", "per-partition", "org/a", "org/b", "SLO attainment"} {
		if !bytes.Contains([]byte(serial), []byte(probe)) {
			t.Fatalf("topology campaign report misses %q:\n%s", probe, serial)
		}
	}
	for _, seed := range []string{"(seed 42)", "(seed 43)"} {
		if !regexp.MustCompile(regexp.QuoteMeta(seed) + ` — \d+ jobs on 200 nodes\n`).MatchString(serial) {
			t.Fatalf("the %s cell header does not name the 200-node machine:\n%s", seed, serial)
		}
	}
	if got := render(8); got != serial {
		t.Fatal("report differs between -parallel 1 and 8")
	}
}

// TestCampaignFlatQueueRows: queue tags WITHOUT a topology still group
// per-queue report rows — the flat machine ran one scheduler, but delay
// and attainment read out per tagged queue.
func TestCampaignFlatQueueRows(t *testing.T) {
	c := sweep.Campaign{
		Sources: []scenario.Source{
			scenario.Synthetic(workload.Config{Scale: 0.02, SystemSize: 100}),
		},
		Scenarios: []scenario.Scenario{
			mustBuiltinParse("queue=p50:light,default:heavy"),
		},
		Seeds:    []int64{42},
		Specs:    mustSpecsSLO(t, "fcfs"),
		Study:    core.StudyConfig{SystemSize: 100},
		Parallel: 1,
	}
	cells, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := cells[0].Summaries[0]
	if len(s.Queues) != 2 || s.Queues[0].Path != "heavy" || s.Queues[1].Path != "light" {
		t.Fatalf("flat queue rows = %+v, want heavy+light", s.Queues)
	}
	if len(s.Partitions) != 0 {
		t.Fatalf("flat run grew partition rows: %+v", s.Partitions)
	}
	if s.Queues[0].Jobs+s.Queues[1].Jobs != s.Jobs {
		t.Errorf("queue rows cover %d jobs, run has %d",
			s.Queues[0].Jobs+s.Queues[1].Jobs, s.Jobs)
	}
	var buf bytes.Buffer
	experiments.RenderCampaign(&buf, cells)
	if !bytes.Contains(buf.Bytes(), []byte("per-queue")) {
		t.Fatalf("report misses the per-queue table:\n%s", buf.String())
	}
	if bytes.Contains(buf.Bytes(), []byte("per-partition")) {
		t.Fatalf("flat report grew a per-partition table:\n%s", buf.String())
	}
}
