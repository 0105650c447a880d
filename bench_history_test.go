package paramecium

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// historyLine is one line of BENCH_history.jsonl: the repo benchmark's
// medians for one workload, parent against change, over alternating
// pairs of runs.
type historyLine struct {
	Parent     string                   `json:"parent"`
	Commit     string                   `json:"commit"`
	Change     string                   `json:"change"`
	Workload   string                   `json:"workload"`
	Backfilled *bool                    `json:"backfilled"`
	Pairs      int                      `json:"pairs"`
	Seconds    float64                  `json:"seconds"`
	Seed       int                      `json:"seed"`
	CPUs       int                      `json:"cpus"`
	Metrics    map[string]historyMetric `json:"metrics"`
	Note       string                   `json:"note"`
}

// historyMetric is one end-to-end metric: the parent's and the
// change's median, their interquartile ranges, and in how many pairs
// the change was better.
type historyMetric struct {
	Parent    *float64 `json:"parent"`
	Change    *float64 `json:"change"`
	ParentIQR *float64 `json:"parent_iqr"`
	ChangeIQR *float64 `json:"change_iqr"`
	Better    *int     `json:"better"`
}

var shortHash = regexp.MustCompile(`^[0-9a-f]{7,40}$`)

// TestBenchHistorySchema holds BENCH_history.jsonl to BENCHMARK.json,
// which it only reads: every line is one JSON object naming a declared
// workload, and every metric it records is a declared end-to-end
// metric with both medians. A measured (not backfilled) line must
// carry both interquartile ranges of every metric.
func TestBenchHistorySchema(t *testing.T) {
	spec, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(spec, &bench); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range bench.EndToEnd {
		metrics[m.Name] = true
	}
	if len(workloads) == 0 || len(metrics) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or no end-to-end metrics")
	}

	data, err := os.ReadFile("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var l historyLine
		if err := dec.Decode(&l); err != nil {
			t.Errorf("line %d: %v", n, err)
			continue
		}
		if dec.More() {
			t.Errorf("line %d: more than one JSON value", n)
		}
		if !shortHash.MatchString(l.Parent) || (l.Commit != "" && !shortHash.MatchString(l.Commit)) {
			t.Errorf("line %d: parent %q / commit %q is not a commit hash", n, l.Parent, l.Commit)
		}
		if !workloads[l.Workload] {
			t.Errorf("line %d: workload %q is not in BENCHMARK.json", n, l.Workload)
		}
		if l.Backfilled == nil {
			t.Errorf("line %d: no backfilled flag", n)
		}
		if l.Pairs <= 0 || l.CPUs <= 0 || l.Seconds <= 0 {
			t.Errorf("line %d: pairs %d, cpus %d, seconds %g must be positive", n, l.Pairs, l.CPUs, l.Seconds)
		}
		if len(l.Metrics) == 0 {
			t.Errorf("line %d: no metrics", n)
		}
		measured := l.Backfilled != nil && !*l.Backfilled
		for name, m := range l.Metrics {
			if !metrics[name] {
				t.Errorf("line %d: metric %q is not an end-to-end metric of BENCHMARK.json", n, name)
			}
			for _, v := range []*float64{m.Parent, m.Change, m.ParentIQR, m.ChangeIQR} {
				if v != nil && *v < 0 {
					t.Errorf("line %d: %s has a negative value", n, name)
				}
			}
			if m.Parent == nil || m.Change == nil {
				t.Errorf("line %d: %s lacks a parent or change median", n, name)
			}
			if measured && (m.ParentIQR == nil || m.ChangeIQR == nil) {
				t.Errorf("line %d: measured %s lacks an interquartile range", n, name)
			}
			if m.Better != nil && (*m.Better < 0 || *m.Better > l.Pairs) {
				t.Errorf("line %d: %s better in %d of %d pairs", n, name, *m.Better, l.Pairs)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("BENCH_history.jsonl is empty")
	}
}
