package main

import (
	"strings"
	"testing"

	"hepvine/internal/coffea"
	"hepvine/internal/hist"
)

// Each checker must reject a corrupted result; these feed it one.

func TestCheckEchoRejectsCorruptOutput(t *testing.T) {
	args := []byte("7/42")
	if err := checkEcho(args, []byte("7/42")); err != nil {
		t.Fatalf("intact output rejected: %v", err)
	}
	for _, bad := range [][]byte{[]byte("7/43"), []byte("7/4"), nil} {
		if checkEcho(args, bad) == nil {
			t.Errorf("corrupt output %q accepted", bad)
		}
	}
}

func testHists() *coffea.HistSet {
	hs := coffea.NewHistSet()
	h := hist.New(hist.Reg(10, 0, 100, "mjj"))
	for _, v := range []float64{5, 15, 15, 55, 99, 120} {
		h.FillW(0.1, v)
	}
	hs.H["mjj"] = h
	return hs
}

func TestCompareHistsRejectsCorruptResult(t *testing.T) {
	want := testHists()
	if err := compareHists(want.Clone(), want, histRelTol); err != nil {
		t.Fatalf("identical result rejected: %v", err)
	}
	if err := compareHists(want.Clone(), want, 0); err != nil {
		t.Fatalf("identical result rejected exactly: %v", err)
	}
	// Reordered additions move weighted bins in the last bits: accepted
	// within the tolerance, rejected by the exact comparison.
	nudged := want.Clone()
	nudged.H["mjj"].Counts[2] *= 1 + 1e-14
	if err := compareHists(nudged, want, histRelTol); err != nil {
		t.Fatalf("rounding difference rejected: %v", err)
	}
	if compareHists(nudged, want, 0) == nil {
		t.Error("exact comparison accepted a changed bin")
	}

	corrupt := map[string]func(hs *coffea.HistSet){
		"bin":      func(hs *coffea.HistSet) { hs.H["mjj"].Counts[2] *= 1.001 },
		"entries":  func(hs *coffea.HistSet) { hs.H["mjj"].Entries++ },
		"missing":  func(hs *coffea.HistSet) { delete(hs.H, "mjj"); hs.H["other"] = want.H["mjj"].Clone() },
		"extra":    func(hs *coffea.HistSet) { hs.H["other"] = want.H["mjj"].Clone() },
		"binning":  func(hs *coffea.HistSet) { hs.H["mjj"] = hist.New(hist.Reg(20, 0, 100, "mjj")) },
		"overflow": func(hs *coffea.HistSet) { hs.H["mjj"].Counts[len(hs.H["mjj"].Counts)-1] = 0 },
	}
	for name, corrupt := range corrupt {
		got := want.Clone()
		corrupt(got)
		if compareHists(got, want, histRelTol) == nil {
			t.Errorf("%s: corrupt result accepted", name)
		}
	}
	if compareHists(nil, want, histRelTol) == nil {
		t.Error("missing result accepted")
	}
}

func TestCheckMergeRejectsCorruptOutput(t *testing.T) {
	args := dagKey{"1", 0, 3}.leafArgs()
	good := expectedMerge(args)
	if err := checkMerge(args, good); err != nil {
		t.Fatalf("intact merge rejected: %v", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[7] ^= 1
	// A merge that dropped one leaf.
	short := expectedMerge(args[1:])
	for name, bad := range map[string][]byte{"bit flip": flipped, "dropped leaf": short, "truncated": good[:4]} {
		if checkMerge(args, bad) == nil {
			t.Errorf("%s: corrupt merge accepted", name)
		}
	}
}

// TestDAGRequestShape pins the gate DAG: 16 leaves with distinct
// arguments, then one merge reading every leaf by within-DAG reference.
func TestDAGRequestShape(t *testing.T) {
	args := dagKey{"9", 1, 2}.leafArgs()
	req := dagRequest(args)
	if len(req.Tasks) != gateLeaves+1 {
		t.Fatalf("%d tasks, want %d", len(req.Tasks), gateLeaves+1)
	}
	seen := map[string]bool{}
	for _, ts := range req.Tasks[:gateLeaves] {
		if seen[string(ts.Args)] {
			t.Fatalf("leaf arguments repeat: %q", ts.Args)
		}
		seen[string(ts.Args)] = true
	}
	merge := req.Tasks[gateLeaves]
	if merge.Func != "merge" || len(merge.Inputs) != gateLeaves {
		t.Fatalf("merge %+v", merge)
	}
	for _, in := range merge.Inputs {
		if !strings.HasPrefix(in.Task, "l") || in.Output != "v" {
			t.Fatalf("merge input %+v is not a leaf reference", in)
		}
	}
}

func TestIQMDropsOutlyingSlices(t *testing.T) {
	xs := []float64{100, 101, 99, 100, 102, 98, 100, 101, 5, 400, 100, 99}
	if got := iqm(xs); got < 99 || got > 101 {
		t.Fatalf("iqm = %v, want about 100", got)
	}
	if iqm(nil) != 0 {
		t.Fatal("iqm of no samples is not 0")
	}
}
