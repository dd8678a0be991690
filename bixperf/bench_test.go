package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// bixstoreBin is built once from the repo for every test.
var bixstoreBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bixperf-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bixstoreBin = filepath.Join(dir, "bixstore")
	out, err := exec.Command("go", "build", "-o", bixstoreBin, "bitmapindex/cmd/bixstore").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building bixstore: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

func tinyConfig(t *testing.T, s *spec) config {
	return config{
		spec: s, seed: 7, dur: 300 * time.Millisecond, rows: 1 << 12,
		bixstore: bixstoreBin, work: t.TempDir(), out: io.Discard,
	}
}

// TestExactCountsRepeat runs every workload twice at a tiny size, untraced
// and traced, and asserts that the exact counts repeat bit for bit.
func TestExactCountsRepeat(t *testing.T) {
	exact := map[bool][]string{
		false: {"index_bytes_per_row", "success_frac"},
		true: {"core.scans_per_query", "core.ops_per_query", "storage.files_per_query",
			"storage.bytes_read_per_query", "cache.hit_rate"},
	}
	for _, s := range specs() {
		t.Run(s.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var first *result
				for i := 0; i < 2; i++ {
					res, err := run(tinyConfig(t, s), traced)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Fatalf("traced=%v: correct=%v, %d of %d failed", traced, res.Correct, res.Failed, res.Attempted)
					}
					if first == nil {
						first = res
						continue
					}
					for _, name := range exact[traced] {
						a, b := first.Metrics[name], res.Metrics[name]
						if a != b {
							t.Errorf("%s: %v then %v", name, a, b)
						}
					}
				}
				if traced && !s.table && first.Metrics["cache.hit_rate"].Value == 0 {
					t.Errorf("cache.hit_rate is 0 on a cached workload")
				}
				if traced && first.Metrics["core.scans_per_query"].Value == 0 {
					t.Errorf("core.scans_per_query is 0")
				}
			}
		})
	}
}

// TestTracedRunWritesSpans checks the span file and its parent links.
func TestTracedRunWritesSpans(t *testing.T) {
	s, _ := lookupSpec("tbl-roaring-lex-1m")
	cfg := tinyConfig(t, s)
	if _, err := run(cfg, true); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(cfg.work, s.name, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	names := map[string]int{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		names[sp.Name]++
		if sp.EndNS < sp.StartNS {
			t.Errorf("span %d ends before it starts", sp.ID)
		}
	}
	for _, sp := range spans {
		if p, ok := byID[sp.Parent]; sp.Parent != 0 && (!ok || p.Query != sp.Query) {
			t.Errorf("span %d (%s): parent %d missing or of another query", sp.ID, sp.Name, sp.Parent)
		}
	}
	for _, n := range []string{"bixstore.request", "bixstore.server", "catalog.create", "catalog.query",
		"storage.eval", "core.eval", "reorder.mapback"} {
		if names[n] == 0 {
			t.Errorf("no %s spans", n)
		}
	}
}

// TestPlantedWrongAnswer drives a fake server that answers from the
// brute force except for one wrong count and one wrong row id, and
// asserts that both count as failed.
func TestPlantedWrongAnswer(t *testing.T) {
	s, _ := lookupSpec("tbl-raw-1m")
	d := newDataset(s, 3, 1<<12)
	byText := map[string]int{}
	for i, q := range d.stream {
		byText[q.text] = i
	}
	wrongCount := 0
	wrongRIDs := slices.IndexFunc(d.stream, func(q query) bool { return len(q.rids) > 0 })
	for d.stream[wrongCount].text == d.stream[wrongRIDs].text {
		wrongCount++
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := byText[r.URL.Query().Get("q")]
		reply := queryReply{Matches: d.stream[i].count}
		if r.URL.Query().Get("rids") == "1" {
			reply.RIDs = slices.Clone(d.stream[i].rids)
		}
		switch d.stream[i].text {
		case d.stream[wrongCount].text:
			reply.Matches++
		case d.stream[wrongRIDs].text:
			reply.RIDs[0]++
		}
		json.NewEncoder(w).Encode(reply)
	}))
	defer srv.Close()

	res := drive(srv.URL, d.stream, 1, 500*time.Millisecond, nil)
	if res.attempted < len(d.stream) {
		t.Fatalf("only %d requests, stream has %d", res.attempted, len(d.stream))
	}
	if res.failed < 2 {
		t.Fatalf("failed = %d of %d; planted a wrong count and a wrong row id", res.failed, res.attempted)
	}
}

// TestSeedDeterminesInputs: the same seed regenerates the same data and
// query stream; another seed does not.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, s := range specs() {
		a, b, c := newDataset(s, 11, 1<<10), newDataset(s, 11, 1<<10), newDataset(s, 12, 1<<10)
		for col := range a.data {
			if !slices.Equal(a.data[col], b.data[col]) {
				t.Errorf("%s: column %d differs under one seed", s.name, col)
			}
		}
		same, other := true, true
		for i := range a.stream {
			same = same && a.stream[i].text == b.stream[i].text && a.stream[i].count == b.stream[i].count
			other = other && a.stream[i].text == c.stream[i].text
		}
		if !same {
			t.Errorf("%s: stream differs under one seed", s.name)
		}
		if other {
			t.Errorf("%s: seeds 11 and 12 give the same stream", s.name)
		}
	}
}

// TestQuartilesMatchPython pins the helper to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestRunSecondsMatchesBenchmark keeps the -seconds default equal to the
// run length BENCHMARK.json declares, so a run without the flag measures
// as long as the bounds assume.
func TestRunSecondsMatchesBenchmark(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, -seconds default = %d", bj.RunSeconds, runSeconds)
	}
}

// TestSpeedScale checks the scaling to reference speed: a kernel at its
// nominal time leaves times as they are, one twice as slow halves them,
// and each span takes the scale of the kernel timings around it.
func TestSpeedScale(t *testing.T) {
	var refs []refSample
	for k := 0; k < 20; k++ {
		took := refNominal
		if k >= 10 {
			took = 2 * refNominal
		}
		refs = append(refs, refSample{at: time.Duration(k) * refEvery, took: took})
	}
	sc := newSpeedScale(refs)
	if got := sc.at(refEvery / 2); got != 1 {
		t.Errorf("scale in the nominal half = %v, want 1", got)
	}
	if got := sc.at(15*refEvery + refEvery/2); got != 0.5 {
		t.Errorf("scale in the slow half = %v, want 0.5", got)
	}
	// Nine spans at scale 1, nine at 0.5 and the one between the halves
	// at 2/3 (its ends smooth to 1 and 2 kernel times).
	span := refEvery
	var want float64
	for k := 0; k < 19; k++ {
		s := map[bool]float64{true: 1, false: 0.5}[k < 9]
		if k == 9 {
			s = 1 / 1.5
		}
		want += float64(span-refs[k].took) * s
	}
	if got := float64(sc.elapsed()); math.Abs(got-want) > 1 {
		t.Errorf("elapsed = %v, want %v", time.Duration(got), time.Duration(want))
	}
	if raw, want := sc.rawElapsed(), 19*refEvery-28*refNominal; raw != want {
		t.Errorf("rawElapsed = %v, want %v", raw, want)
	}
}
