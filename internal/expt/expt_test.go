package expt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"latencyhide/internal/metrics"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("registry has %d experiments, want 19 (E1-E19)", len(all))
	}
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %d incomplete: %+v", i, e)
		}
	}
	// sorted numerically
	if all[0].ID != "E1" || all[9].ID != "E10" || all[18].ID != "E19" {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Fatalf("order %v", ids)
	}
	if Get("E3") == nil || Get("nope") != nil {
		t.Fatal("Get")
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale(""); err != nil || s != Quick {
		t.Fatal("default scale")
	}
	if s, err := ParseScale("full"); err != nil || s != Full {
		t.Fatal("full scale")
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

// TestRunAllQuick executes the entire reproduction harness at quick scale —
// every experiment must complete and emit at least one table.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	if err := Write(&buf, Run(All(), Quick, 0, nil), false); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, "=== "+e.ID+":") {
			t.Fatalf("%s missing from output", e.ID)
		}
	}
	if strings.Contains(out, "FAILED") {
		t.Fatalf("a table failed:\n%s", out)
	}
}

// TestRunAllParallelOutputIdentical pins the concurrency contract: the
// parallel harness must emit byte-for-byte the output of a strictly
// sequential run, at every worker count.
func TestRunAllParallelOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var seq bytes.Buffer
	seqErr := Write(&seq, Run(All(), Quick, 1, nil), true)
	for _, workers := range []int{0, 2, 4} {
		var par bytes.Buffer
		parErr := Write(&par, Run(All(), Quick, workers, nil), true)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("workers=%d: error mismatch: seq=%v par=%v", workers, seqErr, parErr)
		}
		if !bytes.Equal(seq.Bytes(), par.Bytes()) {
			t.Fatalf("workers=%d: output differs from sequential run (%d vs %d bytes)",
				workers, seq.Len(), par.Len())
		}
	}
}

// Shape assertions on individual experiments: these encode the
// paper-vs-measured comparisons EXPERIMENTS.md reports.
func TestE3SqrtShape(t *testing.T) {
	tables, err := Get("E3").Run(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || len(tables[0].Rows) < 3 {
		t.Fatal("E3 produced no data")
	}
	note := strings.Join(tables[0].Notes, " ")
	if !strings.Contains(note, "slope") {
		t.Fatalf("E3 note: %s", note)
	}
}

func TestE8SingleCopyPaysSqrtN(t *testing.T) {
	tables, err := Get("E8").Run(Quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) < 2 {
		t.Fatal("E8 empty")
	}
	// columns: n, sqrt(n), minLB, single-copy, overlap, load
	for _, r := range rows {
		var sqrtn, lb float64
		if _, err := sscan(r[1], &sqrtn); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(r[2], &lb); err != nil {
			t.Fatal(err)
		}
		if lb < sqrtn {
			t.Fatalf("certified LB %v below sqrt(n) %v", lb, sqrtn)
		}
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestE16ReplicationContrast(t *testing.T) {
	tables, err := Get("E16").Run(Quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) < 3 {
		t.Fatal("E16 empty")
	}
	for _, r := range rows {
		var dfRep, dbRep float64
		if _, err := sscan(r[3], &dfRep); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(r[5], &dbRep); err != nil {
			t.Fatal(err)
		}
		if dfRep != 1 {
			t.Fatalf("dataflow replication %v != 1", dfRep)
		}
		if dbRep < 2 {
			t.Fatalf("database replication %v < 2", dbRep)
		}
	}
}

func TestE12RedundancyRatioAboveOne(t *testing.T) {
	tables, err := Get("E12").Run(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tables[0].Rows {
		var ratio float64
		if _, err := sscan(r[4], &ratio); err != nil {
			t.Fatal(err)
		}
		if ratio <= 1.5 {
			t.Fatalf("stripping redundancy should hurt: ratio %v", ratio)
		}
	}
}

// E11c's observability columns must show bandwidth stalls growing as B
// shrinks: the B=1 row's bw-stall share is at least the B=log n row's, and
// strictly positive.
func TestE11BandwidthStallDirection(t *testing.T) {
	tables, err := Get("E11").Run(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 3 {
		t.Fatal("E11 missing tables")
	}
	rows := tables[2].Rows
	if len(rows) < 2 {
		t.Fatal("E11b empty")
	}
	// columns: bandwidth, slowdown, vs, bw-stall%, dep-stall%, peakQ
	var first, last float64
	if _, err := sscan(rows[0][3], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(rows[len(rows)-1][3], &last); err != nil {
		t.Fatal(err)
	}
	if last <= 0 {
		t.Fatalf("B=1 row has no bandwidth stalls: %v", rows)
	}
	if last < first {
		t.Fatalf("bw-stall share fell as B shrank: B=logn %v vs B=1 %v", first, last)
	}
}

func TestE6MeasuredAboveCertified(t *testing.T) {
	tables, err := Get("E6").Run(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tables[0].Rows {
		var measured, lb float64
		if _, err := sscan(r[4], &measured); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(r[5], &lb); err != nil {
			t.Fatal(err)
		}
		if measured < lb {
			t.Fatalf("clique chain measured %v below certified %v", measured, lb)
		}
	}
}

// E13's crash sweep must show the paper's replication surviving every single
// crash while the single-copy placement is uncomputable under all of them,
// and the outage curve must be monotone.
func TestE13ResilienceShape(t *testing.T) {
	tables, err := Get("E13").Run(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("E13 produced %d tables", len(tables))
	}
	crash := tables[0].Rows
	if len(crash) != 2 {
		t.Fatalf("E13a rows: %v", crash)
	}
	// columns: assignment, copies, completed, uncomputable, worst slowdown
	if !strings.HasPrefix(crash[0][2], "16/") || !strings.HasPrefix(crash[1][3], "16/") {
		t.Fatalf("E13a shape wrong: replicated completed=%q single uncomputable=%q",
			crash[0][2], crash[1][3])
	}
	// columns: outage frac, slowdown c=4, slowdown single, fault-stall%, dep-stall%
	var prevRep, prevSingle, firstSingle, lastSingle float64
	for i, r := range tables[1].Rows {
		var rep, single float64
		if _, err := sscan(r[1], &rep); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(r[2], &single); err != nil {
			t.Fatal(err)
		}
		if rep < prevRep || single < prevSingle {
			t.Fatalf("E13b slowdown not monotone in outage fraction: %v", tables[1].Rows)
		}
		prevRep, prevSingle = rep, single
		if i == 0 {
			firstSingle = single
		}
		lastSingle = single
	}
	if lastSingle <= firstSingle {
		t.Fatalf("E13b single-copy slowdown should grow with outages: %v -> %v", firstSingle, lastSingle)
	}
	// E13c (moving outage): same shape — single copy degrades monotonically
	// with the drift fraction, the replicated run absorbs every fraction.
	var prevC, firstC, lastC float64
	for i, r := range tables[2].Rows {
		var single float64
		if _, err := sscan(r[2], &single); err != nil {
			t.Fatal(err)
		}
		if single < prevC {
			t.Fatalf("E13c single-copy slowdown not monotone in drift fraction: %v", tables[2].Rows)
		}
		prevC = single
		if i == 0 {
			firstC = single
		}
		lastC = single
	}
	if lastC <= firstC {
		t.Fatalf("E13c single-copy slowdown should grow with the drift fraction: %v -> %v", firstC, lastC)
	}
}

// E18's acceptance shape: the adaptive run must beat static c=4 on at least
// one adversarial regime, the controller must never exceed its budget, and
// with mode=fault the fault-free row must make zero activations.
func TestE18AdaptiveBeatsStatic(t *testing.T) {
	tables, err := Get("E18").Run(Quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("E18 rows: %v", rows)
	}
	// columns: regime, slowdown c=4, slowdown c=2, slowdown adaptive,
	// activations, redundancy c=4, redundancy adaptive
	wins, activated := 0, 0
	for i, r := range rows {
		var s4, sa, acts float64
		if _, err := sscan(r[1], &s4); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(r[3], &sa); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(r[4], &acts); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if acts != 0 {
				t.Fatalf("E18 fault-free row activated %v standbys under mode=fault", acts)
			}
			continue
		}
		if sa < s4 {
			wins++
		}
		if acts > 0 {
			activated++
		}
	}
	if wins == 0 {
		t.Fatalf("adaptive never beat static c=4 on an adversarial regime: %v", rows)
	}
	if activated == 0 {
		t.Fatalf("the controller never activated under any regime: %v", rows)
	}
}

// E19's acceptance shape: every theorem family with samples clears its MAPE
// ceiling with zero certified-floor violations (Run errors otherwise), and
// the quick corpus populates all four families.
func TestE19TwinValidation(t *testing.T) {
	tables, err := Get("E19").Run(Quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("E19 rows: %v", rows)
	}
	// columns: family, n, mape, ceiling, in_band, cert_viol, status
	for _, r := range rows {
		var n float64
		if _, err := sscan(r[1], &n); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("family %s has no samples in the quick corpus", r[0])
		}
		if r[5] != "0" {
			t.Fatalf("family %s reports certified-floor violations: %v", r[0], r)
		}
		if r[6] != "PASS" {
			t.Fatalf("family %s did not pass: %v", r[0], r)
		}
	}
}

// A panicking experiment must be reported as that experiment's failure and
// must not take down concurrently running siblings.
func TestRunAllIsolatesPanics(t *testing.T) {
	id := "E99"
	register(&Experiment{
		ID: id, Title: "panics", Paper: "none",
		Run: func(Scale) ([]*metrics.Table, error) { panic("boom") },
	})
	defer delete(registry, id)
	var buf bytes.Buffer
	err := Write(&buf, Run(All(), Quick, 4, nil), false)
	if err == nil || !strings.Contains(err.Error(), "E99") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not reported as E99's error: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "FAILED: panic: boom") {
		t.Fatalf("panic missing from rendered output:\n%s", out)
	}
	// every real experiment still ran
	for _, e := range All() {
		if e.ID == id {
			continue
		}
		if !strings.Contains(out, "=== "+e.ID+":") {
			t.Fatalf("%s missing after sibling panic", e.ID)
		}
	}
}
