package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hepvine/internal/obs"
)

// The tracer records a span around every call the benchmark makes into a
// layer of the program (submit, wait, run, HTTP submit/events/fetch,
// serial baseline, probes). Spans of one request share a request id; a
// span's parent is the span that caused it. Spans stay in memory and are
// written out when the run ends. Spans inside the program are not
// recorded here: the benchmark times each layer from outside.

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans and counts. All methods are safe for concurrent
// use, and all are no-ops on a nil receiver, so untraced runs pass nil.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
	rec    *obs.Recorder // the program's own event trace of the last traced cluster
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: make(map[string]int64)}
}

// newID allocates a span or request id (0 on a nil tracer).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span that ran from start to end and returns its
// id, for use as a parent.
func (t *tracer) add(name string, req, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.newID()
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// root records the span covering a whole request; its id is the request
// id, so the request's child spans name it as their parent.
func (t *tracer) root(name string, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: req, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count adds n to a named count recorded at a layer boundary.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// recorderIf returns, when traced, a fresh program event recorder to
// attach to the cluster being traced, replacing any earlier one; nil
// otherwise and on a nil tracer.
func (t *tracer) recorderIf(traced bool) *obs.Recorder {
	if t == nil || !traced {
		return nil
	}
	r := obs.NewRecorder()
	t.mu.Lock()
	t.rec = r
	t.mu.Unlock()
	return r
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans, counts and machine record under dir, with the
// program's event trace rendered as a Fig. 12-style timeline and a
// Fig. 7-style transfer matrix.
func (t *tracer) write(dir string, mach machine) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	counts := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	rec := t.rec
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

	if err := writeFile(filepath.Join(dir, "spans.jsonl"), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	summary := struct {
		Machine machine          `json:"machine"`
		Counts  map[string]int64 `json:"counts"`
		Spans   map[string]int   `json:"spans"`
		Events  int              `json:"program_events"`
	}{mach, counts, make(map[string]int), rec.Len()}
	for _, s := range spans {
		summary.Spans[s.Name]++
	}
	if err := writeFile(filepath.Join(dir, "summary.json"), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(summary)
	}); err != nil {
		return err
	}
	events := rec.Events()
	if err := writeFile(filepath.Join(dir, "timeline.csv"), func(w *bufio.Writer) error {
		return obs.WriteTimelineCSV(w, obs.Timeline(events, 50*time.Millisecond))
	}); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, "transfers.csv"), func(w *bufio.Writer) error {
		return obs.WriteMatrixCSV(w, obs.TransferMatrix(events))
	})
}

// writeFile creates path and fills it through a buffered writer.
func writeFile(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- statistics ----

// quantile returns the q-quantile (nearest rank) of xs; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms, us and secs convert durations to float64 units.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

func toMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func toUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// setPct records the p50 or p99 of samples under name with its count.
func (o *outcome) setPct(name string, samples []float64, q float64) {
	o.metrics[name] = quantile(samples, q)
	o.samples[name] = len(samples)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
