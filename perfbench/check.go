package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"hepvine/internal/coffea"
)

// Output checkers. Every run, timed or traced, passes its outputs
// through one of these; a failure marks the run incorrect and is never
// reported as a metric. check_test.go feeds each a corrupted result.

// checkEcho checks one calls-flat output: the echo function returns its
// arguments unchanged.
func checkEcho(args, out []byte) error {
	if !bytes.Equal(args, out) {
		return fmt.Errorf("output %q differs from arguments %q", out, args)
	}
	return nil
}

// histRelTol is the relative tolerance on weighted bin contents when a
// distributed DV3 result is compared with the serial coffea.RunLocal
// reference: the tree reduction adds the same weights in another order,
// so bins may differ in the last bits. Entry counts must match exactly.
const histRelTol = 1e-9

// compareHists checks got against want histogram by histogram: the same
// names, the same binning, equal entry counts, and every bin within
// relTol of the reference (relTol 0 demands bit-identical bins).
func compareHists(got, want *coffea.HistSet, relTol float64) error {
	if got == nil {
		return fmt.Errorf("no result")
	}
	if len(got.H) != len(want.H) {
		return fmt.Errorf("%d histograms, want %d", len(got.H), len(want.H))
	}
	for _, name := range want.Names() {
		w := want.H[name]
		g, ok := got.H[name]
		if !ok {
			return fmt.Errorf("histogram %q missing", name)
		}
		if g.Entries != w.Entries {
			return fmt.Errorf("histogram %q: %d entries, want %d", name, g.Entries, w.Entries)
		}
		if !g.Compatible(w) || len(g.Counts) != len(w.Counts) {
			return fmt.Errorf("histogram %q: binning differs", name)
		}
		for i, wv := range w.Counts {
			gv := g.Counts[i]
			if relTol == 0 {
				if math.Float64bits(gv) != math.Float64bits(wv) {
					return fmt.Errorf("histogram %q bin %d: %v, want exactly %v", name, i, gv, wv)
				}
				continue
			}
			scale := math.Max(math.Abs(gv), math.Abs(wv))
			if math.Abs(gv-wv) > relTol*scale {
				return fmt.Errorf("histogram %q bin %d: %v, want %v within %g", name, i, gv, wv, relTol)
			}
		}
	}
	return nil
}

// leafValue is what the gate workload's leaf function computes from its
// arguments, and merge sums over its inputs.
func leafValue(args []byte) uint64 {
	h := fnv.New64a()
	h.Write(args)
	return h.Sum64()
}

func encodeU64(v uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, v)
}

// expectedMerge is the merge output of a DAG whose leaves got leafArgs.
func expectedMerge(leafArgs [][]byte) []byte {
	var sum uint64
	for _, a := range leafArgs {
		sum += leafValue(a)
	}
	return encodeU64(sum)
}

// checkMerge checks a gate DAG's fetched merge output against the value
// computed locally from the leaves' arguments.
func checkMerge(leafArgs [][]byte, out []byte) error {
	want := expectedMerge(leafArgs)
	if !bytes.Equal(out, want) {
		return fmt.Errorf("merge output %x, want %x", out, want)
	}
	return nil
}
