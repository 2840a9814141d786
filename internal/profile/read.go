package profile

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gammajoin/internal/cost"
	"gammajoin/internal/trace"
)

// Readers for the two offline input formats:
//
//   - a spans TSV (trace.Recorder.WriteSpansTSV) — the raw timeline, from
//     which Load recomputes the full profile, and
//   - a profile TSV (Profile.WriteTSV) — a precomputed profile, loaded
//     verbatim (the interchange format gammaprof diff reads).
//
// Load sniffs the header line and dispatches.

// spansHeader is the first line WriteSpansTSV emits.
const spansHeader = "query\tattempt\tphase\tphase_name\tsite\trole\top\tbucket\tstart_ns\tdur_ns\tcpu_ns\tdisk_ns\tnet_ns\tevents"

// Load reads either input format and returns the profile. Spans input is
// profiled with the given model (carve-out pricing); profile input ignores
// the model — the carve-outs were priced when it was written.
func Load(r io.Reader, m *cost.Model) (*Profile, error) {
	br := bufio.NewReader(r)
	head, err := br.ReadString('\n')
	if err != nil && head == "" {
		return nil, fmt.Errorf("profile: empty input")
	}
	switch strings.TrimRight(head, "\n") {
	case spansHeader:
		qid, spans, err := parseSpans(br)
		if err != nil {
			return nil, err
		}
		return FromSpans(qid, spans, m)
	case tsvHeader:
		return readTSV(br)
	default:
		return nil, fmt.Errorf("profile: unrecognized input (want a spans TSV or a gammaprof profile TSV)")
	}
}

// parseSpans reads WriteSpansTSV rows (header already consumed).
func parseSpans(br *bufio.Reader) (queryID int, spans []*trace.Span, err error) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 1
	for sc.Scan() {
		line++
		row := sc.Text()
		if row == "" {
			continue
		}
		f := strings.Split(row, "\t")
		if len(f) != 14 {
			return 0, nil, fmt.Errorf("profile: spans line %d: %d fields, want 14", line, len(f))
		}
		ints := make([]int64, 0, 10)
		for _, idx := range []int{0, 1, 2, 4, 7, 8, 9, 10, 11, 12} {
			v, err := strconv.ParseInt(f[idx], 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("profile: spans line %d field %d: %w", line, idx+1, err)
			}
			ints = append(ints, v)
		}
		queryID = int(ints[0])
		sp := &trace.Span{
			Attempt:   int(ints[1]),
			Phase:     int(ints[2]),
			PhaseName: f[3],
			Site:      int(ints[3]),
			Role:      f[5],
			Op:        f[6],
			Bucket:    int(ints[4]),
			Start:     cost.Ns(ints[5]),
			Dur:       cost.Ns(ints[6]),
			CPU:       cost.Ns(ints[7]),
			Disk:      cost.Ns(ints[8]),
			Net:       cost.Ns(ints[9]),
		}
		if f[13] != "" {
			for _, evs := range strings.Split(f[13], " ") {
				ev, err := parseEvent(evs)
				if err != nil {
					return 0, nil, fmt.Errorf("profile: spans line %d: %w", line, err)
				}
				sp.Events = append(sp.Events, ev)
			}
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	return queryID, spans, nil
}

// parseEvent decodes one folded "kind@ns(detail)" event.
func parseEvent(s string) (trace.Event, error) {
	at := strings.IndexByte(s, '@')
	open := strings.IndexByte(s, '(')
	if at < 0 || open < at || !strings.HasSuffix(s, ")") {
		return trace.Event{}, fmt.Errorf("bad event %q", s)
	}
	ns, err := strconv.ParseInt(s[at+1:open], 10, 64)
	if err != nil {
		return trace.Event{}, fmt.Errorf("bad event time in %q: %w", s, err)
	}
	detail, err := strconv.ParseInt(s[open+1:len(s)-1], 10, 64)
	if err != nil {
		return trace.Event{}, fmt.Errorf("bad event detail in %q: %w", s, err)
	}
	return trace.Event{Kind: s[:at], Detail: detail, At: cost.Ns(ns)}, nil
}

// parseResource maps a printed resource back to its value.
func parseResource(s string) (Resource, error) {
	for i, n := range resNames {
		if n == s {
			return Resource(i), nil
		}
	}
	return 0, fmt.Errorf("profile: unknown resource %q", s)
}

// readTSV loads a WriteTSV profile (header already consumed).
func readTSV(br *bufio.Reader) (*Profile, error) {
	p := &Profile{}
	byIndex := make(map[int]int) // phase ordinal -> slot in p.Phases
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 1
	for sc.Scan() {
		line++
		row := sc.Text()
		if row == "" {
			continue
		}
		f := strings.Split(row, "\t")
		bad := func(err error) error {
			return fmt.Errorf("profile: tsv line %d: %w", line, err)
		}
		switch f[0] {
		case "meta":
			if len(f) != 3 {
				return nil, bad(fmt.Errorf("%d fields, want 3", len(f)))
			}
			v, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return nil, bad(err)
			}
			switch f[1] {
			case "query":
				p.QueryID = int(v)
			case "attempt":
				p.Attempt = int(v)
			case "attempts":
				p.Attempts = int(v)
			case "response_ns":
				p.ResponseNs = cost.Ns(v)
			case "wait_ns":
				p.WaitNs = cost.Ns(v)
			case "spread_ns":
				p.SpreadNs = cost.Ns(v)
			case "abandoned_ns":
				p.AbandonedNs = cost.Ns(v)
			default:
				return nil, bad(fmt.Errorf("unknown meta key %q", f[1]))
			}
		case "blame":
			if len(f) != 3 {
				return nil, bad(fmt.Errorf("%d fields, want 3", len(f)))
			}
			b, err := ParseBucket(f[1])
			if err != nil {
				return nil, bad(err)
			}
			v, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return nil, bad(err)
			}
			p.Blame[b] = cost.Ns(v)
		case "phase":
			if len(f) != 10 {
				return nil, bad(fmt.Errorf("%d fields, want 10", len(f)))
			}
			class, err := ParseClass(f[2])
			if err != nil {
				return nil, bad(err)
			}
			res, err := parseResource(f[4])
			if err != nil {
				return nil, bad(err)
			}
			var ints [6]int64
			for i, idx := range []int{1, 3, 5, 6, 7, 8} {
				if ints[i], err = strconv.ParseInt(f[idx], 10, 64); err != nil {
					return nil, bad(err)
				}
			}
			p.Phases = append(p.Phases, PhaseProfile{
				Index:     int(ints[0]),
				Name:      f[9],
				Class:     class,
				CritSite:  int(ints[1]),
				CritRes:   res,
				WorkNs:    cost.Ns(ints[2]),
				SchedNs:   cost.Ns(ints[3]),
				RetryNs:   cost.Ns(ints[4]),
				RetransNs: cost.Ns(ints[5]),
			})
			byIndex[int(ints[0])] = len(p.Phases) - 1
		case "phasesite":
			if len(f) != 6 {
				return nil, bad(fmt.Errorf("%d fields, want 6", len(f)))
			}
			var ints [5]int64
			var err error
			for i := 0; i < 5; i++ {
				if ints[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
					return nil, bad(err)
				}
			}
			slot, ok := byIndex[int(ints[0])]
			if !ok {
				return nil, bad(fmt.Errorf("phasesite row before its phase %d", ints[0]))
			}
			ph := &p.Phases[slot]
			ph.Sites = append(ph.Sites, SiteWork{
				Site: int(ints[1]),
				CPU:  cost.Ns(ints[2]),
				Disk: cost.Ns(ints[3]),
				Net:  cost.Ns(ints[4]),
			})
		default:
			return nil, bad(fmt.Errorf("unknown row kind %q", f[0]))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if got, want := p.BlameTotal(), p.ResponseNs; got != want {
		return nil, fmt.Errorf("profile: tsv blame buckets sum to %d ns but response_ns is %d — corrupt profile",
			got.Nanoseconds(), want.Nanoseconds())
	}
	return p, nil
}
