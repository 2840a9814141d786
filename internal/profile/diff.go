package profile

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"gammajoin/internal/cost"
)

// Diffing two profiles answers "why did it change?": per-bucket, per-phase
// (matched by name occurrence, so a bucket-count change still aligns the
// shared prefix of same-named phases), and per-site deltas, plus a one-line
// headline naming the phase and resource that moved most.

// PhaseDelta is one aligned phase pair (or a phase present on one side only).
type PhaseDelta struct {
	Name string
	A, B *PhaseProfile // nil when the phase exists on one side only
}

// ElapsedDelta is the phase's response-time movement (missing side = 0).
func (d *PhaseDelta) ElapsedDelta() cost.SimNs {
	var delta cost.SimNs
	if d.B != nil {
		delta += d.B.Elapsed()
	}
	if d.A != nil {
		delta -= d.A.Elapsed()
	}
	return delta
}

// resourceDelta sums one resource across a phase's sites (0 for a nil side).
func resourceSum(p *PhaseProfile, r Resource) cost.SimNs {
	if p == nil {
		return 0
	}
	var t cost.SimNs
	for _, sw := range p.Sites {
		switch r {
		case ResCPU:
			t += sw.CPU
		case ResDisk:
			t += sw.Disk
		case ResNet:
			t += sw.Net
		}
	}
	return t
}

// topResource names the resource whose summed site time moved most in the
// pair, and by how much.
func (d *PhaseDelta) topResource() (Resource, cost.SimNs) {
	best, bestMag := ResNone, cost.SimNs(0)
	var bestDelta cost.SimNs
	for _, r := range []Resource{ResCPU, ResDisk, ResNet} {
		delta := resourceSum(d.B, r) - resourceSum(d.A, r)
		mag := delta
		if mag < 0 {
			mag = -mag
		}
		if mag > bestMag {
			best, bestMag, bestDelta = r, mag, delta
		}
	}
	return best, bestDelta
}

// DiffReport aligns two profiles.
type DiffReport struct {
	A, B   *Profile
	Phases []PhaseDelta // b's phase order, then phases only a has
}

// Diff aligns a (baseline) and b (current). Phases pair up by the k-th
// occurrence of each name: algorithms name phases deterministically, so the
// pairing is stable even when bucket counts differ between the runs.
func Diff(a, b *Profile) *DiffReport {
	d := &DiffReport{A: a, B: b}
	aByName := make(map[string][]*PhaseProfile)
	for i := range a.Phases {
		ph := &a.Phases[i]
		aByName[ph.Name] = append(aByName[ph.Name], ph)
	}
	taken := make(map[string]int)
	for i := range b.Phases {
		ph := &b.Phases[i]
		var pa *PhaseProfile
		if k := taken[ph.Name]; k < len(aByName[ph.Name]) {
			pa = aByName[ph.Name][k]
			taken[ph.Name] = k + 1
		}
		d.Phases = append(d.Phases, PhaseDelta{Name: ph.Name, A: pa, B: ph})
	}
	// Phases only a has, in a's order.
	leftover := make(map[string]int)
	for i := range a.Phases {
		ph := &a.Phases[i]
		k := leftover[ph.Name]
		leftover[ph.Name] = k + 1
		if k >= taken[ph.Name] {
			d.Phases = append(d.Phases, PhaseDelta{Name: ph.Name, A: ph})
		}
	}
	return d
}

// Headline is the one-line answer: the largest-moving phase and the resource
// that moved inside it. Empty when the responses match exactly.
func (d *DiffReport) Headline() string {
	respDelta := d.B.ResponseNs - d.A.ResponseNs
	if respDelta == 0 {
		return ""
	}
	var top *PhaseDelta
	var topMag cost.SimNs
	for i := range d.Phases {
		pd := &d.Phases[i]
		mag := pd.ElapsedDelta()
		if mag < 0 {
			mag = -mag
		}
		if top == nil || mag > topMag {
			top, topMag = pd, mag
		}
	}
	head := fmt.Sprintf("response %+d ns (%.9f -> %.9f sim-s)",
		respDelta.Nanoseconds(), d.A.ResponseNs.Seconds(), d.B.ResponseNs.Seconds())
	if top == nil || topMag == 0 {
		return head
	}
	where := fmt.Sprintf("; top mover: phase %q %+d ns", top.Name, top.ElapsedDelta().Nanoseconds())
	if res, delta := top.topResource(); res != ResNone && delta != 0 {
		where += fmt.Sprintf(" (%s %+d ns)", res, delta.Nanoseconds())
	}
	switch {
	case top.A == nil:
		where += " [only in current]"
	case top.B == nil:
		where += " [only in baseline]"
	}
	return head + where
}

// WriteText renders the full diff: blame-bucket deltas, per-phase deltas
// with the moving resource, and per-site busy deltas.
func (d *DiffReport) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "gammaprof diff: response %.9f -> %.9f sim-s (%+d ns)\n",
		d.A.ResponseNs.Seconds(), d.B.ResponseNs.Seconds(),
		(d.B.ResponseNs - d.A.ResponseNs).Nanoseconds())
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "blame deltas:")
	fmt.Fprintf(bw, "  %-14s %14s %14s %14s\n", "bucket", "a_ns", "b_ns", "delta_ns")
	var moved bool
	for b := Bucket(0); b < NumBuckets; b++ {
		if d.A.Blame[b] == 0 && d.B.Blame[b] == 0 {
			continue
		}
		delta := d.B.Blame[b] - d.A.Blame[b]
		if delta == 0 {
			continue
		}
		moved = true
		fmt.Fprintf(bw, "  %-14s %14d %14d %+14d\n",
			b, d.A.Blame[b].Nanoseconds(), d.B.Blame[b].Nanoseconds(), delta.Nanoseconds())
	}
	if !moved {
		fmt.Fprintln(bw, "  (no bucket moved)")
	}
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "phase deltas (paired by name; a=baseline, b=current):")
	fmt.Fprintf(bw, "  %14s %14s %14s  %-4s  %s\n", "a_ns", "b_ns", "delta_ns", "res", "name")
	moved = false
	for i := range d.Phases {
		pd := &d.Phases[i]
		delta := pd.ElapsedDelta()
		if delta == 0 && pd.A != nil && pd.B != nil {
			continue
		}
		moved = true
		var aNs, bNs int64
		if pd.A != nil {
			aNs = pd.A.Elapsed().Nanoseconds()
		}
		if pd.B != nil {
			bNs = pd.B.Elapsed().Nanoseconds()
		}
		res, _ := pd.topResource()
		name := pd.Name
		switch {
		case pd.A == nil:
			name += " [only in b]"
		case pd.B == nil:
			name += " [only in a]"
		}
		fmt.Fprintf(bw, "  %14d %14d %+14d  %-4s  %s\n",
			aNs, bNs, delta.Nanoseconds(), res, name)
	}
	if !moved {
		fmt.Fprintln(bw, "  (no phase moved)")
	}
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "site deltas (busy ns over the profiled attempt):")
	fmt.Fprintf(bw, "  %4s %14s %14s %14s\n", "site", "a_ns", "b_ns", "delta_ns")
	aSites := siteBusyMap(d.A)
	bSites := siteBusyMap(d.B)
	ids := make([]int, 0, len(aSites)+len(bSites))
	for s := range aSites {
		ids = append(ids, s)
	}
	for s := range bSites {
		if _, ok := aSites[s]; !ok {
			ids = append(ids, s)
		}
	}
	sort.Ints(ids)
	moved = false
	for _, s := range ids {
		delta := bSites[s] - aSites[s]
		if delta == 0 {
			continue
		}
		moved = true
		fmt.Fprintf(bw, "  %4d %14d %14d %+14d\n",
			s, aSites[s].Nanoseconds(), bSites[s].Nanoseconds(), delta.Nanoseconds())
	}
	if !moved {
		fmt.Fprintln(bw, "  (no site moved)")
	}
	fmt.Fprintln(bw)
	if h := d.Headline(); h != "" {
		fmt.Fprintf(bw, "headline: %s\n", h)
	} else {
		fmt.Fprintln(bw, "headline: responses identical")
	}
	return bw.Flush()
}

func siteBusyMap(p *Profile) map[int]cost.SimNs {
	out := make(map[int]cost.SimNs)
	for _, st := range p.SiteTotals() {
		out[st.Site] = st.Busy()
	}
	return out
}
