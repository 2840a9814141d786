package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"gammajoin/internal/walltime"
)

// tracer keeps the benchmark's own spans in memory: host wall-clock
// intervals around its calls into each layer. A nil or paused tracer records
// nothing, so untraced passes pay one branch per call site. All calls come
// from one goroutine (the sched engine calls its executor synchronously).
type tracer struct {
	t0       time.Time
	workload string
	pass     int
	paused   bool
	spans    []span
}

type span struct {
	id, parent int // parent 0 is the run itself
	name       string
	pass       int
	start, end time.Duration // since t0
}

func newTracer(workload string) *tracer {
	return &tracer{t0: walltime.Now(), workload: workload}
}

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(name string, parent int) int {
	if t == nil || t.paused {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, pass: t.pass, start: walltime.Since(t.t0)})
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].end = walltime.Since(t.t0)
}

// spanTotal is the time spans of one name took, in total and as self time:
// each span's duration minus the part of it its children cover.
type spanTotal struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// totals sums spans by name. Children of one span never overlap (every span
// is opened and closed on the one benchmark goroutine), so the covered part
// of a parent is the sum of its children's durations.
func (t *tracer) totals() map[string]spanTotal {
	covered := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.parent] += s.end - s.start
	}
	out := make(map[string]spanTotal)
	for _, s := range t.spans {
		d := s.end - s.start
		st := out[s.name]
		st.Count++
		st.TotalMs += ms(d)
		st.SelfMs += ms(d - covered[s.id])
		out[s.name] = st
	}
	return out
}

// writeTSV writes one line per span in the order they were opened.
func (t *tracer) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tworkload\tpass\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\n",
			s.id, s.parent, s.name, t.workload, s.pass, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
