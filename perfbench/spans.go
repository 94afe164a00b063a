package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one period share its
// Period id; Parent is the span that made the call (0: none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Period int64  `json:"period"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and reads no clocks, so untraced runs pay nothing for it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, period int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Period: period, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int64) int64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := s.End - s.Start
	t.mu.Unlock()
	return d
}

// nameStats aggregates the closed spans of one name.
type nameStats struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// stats returns per-name totals and self times. A span's self time is
// its duration minus the part of it its children's intervals cover
// (children of one parent may overlap when they run on other
// goroutines, so the covered part is the union of their intervals).
func (t *tracer) stats() []nameStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*nameStats{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		ns := by[s.Name]
		if ns == nil {
			ns = &nameStats{Name: s.Name}
			by[s.Name] = ns
		}
		d := s.End - s.Start
		ns.Count++
		ns.TotalNs += d
		ns.SelfNs += d - covered(s, children[s.ID])
	}
	out := make([]nameStats, 0, len(by))
	for _, ns := range by {
		out = append(out, *ns)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps the host stamp, the per-name summary and every span as
// JSON lines.
func (t *tracer) write(path string, stamp host) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": stamp}); err != nil {
		f.Close()
		return err
	}
	for _, ns := range t.stats() {
		if err := enc.Encode(map[string]any{"summary": ns}); err != nil {
			f.Close()
			return err
		}
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary prints the per-name span table.
func (t *tracer) summary(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-34s %9s %12s %12s\n", "span", "count", "total ms", "self ms"); err != nil {
		return err
	}
	for _, ns := range t.stats() {
		if _, err := fmt.Fprintf(w, "%-34s %9d %12.3f %12.3f\n", ns.Name, ns.Count,
			float64(ns.TotalNs)/1e6, float64(ns.SelfNs)/1e6); err != nil {
			return err
		}
	}
	return nil
}

// selfNs returns the summed self time of the spans named name.
func (t *tracer) selfNs(name string) int64 {
	for _, ns := range t.stats() {
		if ns.Name == name {
			return ns.SelfNs
		}
	}
	return 0
}
