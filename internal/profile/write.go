package profile

import (
	"bufio"
	"fmt"
	"io"

	"gammajoin/internal/cost"
)

// Writers. Both formats are fixed-layout and byte-deterministic: every value
// derives from simulated time and integer counters, so two same-seed runs
// print identical reports — gammaprof output sits under the same determinism
// gates as the simulator's own exporters.

// pct renders v as a share of total (0 when total is 0).
func pct(v, total cost.SimNs) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(v.Nanoseconds()) / float64(total.Nanoseconds())
}

// siteLabel prints a site id, "-" for the scheduler pseudo-site.
func siteLabel(site int) string {
	if site < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", site)
}

// WriteText renders the full profile: blame buckets, the critical path, the
// per-phase straggler table, and per-site totals.
func (p *Profile) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "gammaprof: query %d, response %.9f sim-s (attempt %d of %d profiled)\n",
		p.QueryID, p.ResponseNs.Seconds(), p.Attempt+1, p.Attempts)
	if p.WaitNs != 0 || p.SpreadNs != 0 {
		fmt.Fprintf(bw, "workload: wait %.9f + nominal %.9f + spread %.9f sim-s\n",
			p.WaitNs.Seconds(), (p.ResponseNs - p.WaitNs - p.SpreadNs).Seconds(),
			p.SpreadNs.Seconds())
	}
	if p.AbandonedNs != 0 {
		fmt.Fprintf(bw, "abandoned attempts: %d, wasting %.9f sim-s on the timeline\n",
			p.Attempts-1, p.AbandonedNs.Seconds())
	}
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "blame (where did the time go):")
	fmt.Fprintf(bw, "  %-14s %14s %7s\n", "bucket", "ns", "share")
	for b := Bucket(0); b < NumBuckets; b++ {
		fmt.Fprintf(bw, "  %-14s %14d %6.1f%%\n",
			b, p.Blame[b].Nanoseconds(), pct(p.Blame[b], p.ResponseNs))
	}
	fmt.Fprintf(bw, "  %-14s %14d %6.1f%%\n", "total", p.BlameTotal().Nanoseconds(),
		pct(p.BlameTotal(), p.ResponseNs))
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "critical path (phase barriers, successful attempt):")
	fmt.Fprintf(bw, "  %4s  %-9s %4s  %-4s %14s %14s %14s  %s\n",
		"ph", "class", "site", "res", "work_ns", "sched_ns", "cum_ns", "name")
	var cum cost.SimNs
	for i := range p.Phases {
		ph := &p.Phases[i]
		cum += ph.Elapsed()
		fmt.Fprintf(bw, "  %4d  %-9s %4s  %-4s %14d %14d %14d  %s\n",
			ph.Index, ph.Class, siteLabel(ph.CritSite), ph.CritRes,
			ph.WorkNs.Nanoseconds(), ph.SchedNs.Nanoseconds(), cum.Nanoseconds(), ph.Name)
	}
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "stragglers (per-phase busy ratio = site elapsed / barrier work):")
	fmt.Fprintf(bw, "  %4s  %5s  %6s %6s  %7s  %s\n",
		"ph", "sites", "mean", "min", "held-by", "name")
	for i := range p.Phases {
		ph := &p.Phases[i]
		mean, min := busyRatios(ph)
		fmt.Fprintf(bw, "  %4d  %5d  %6.3f %6.3f  %7s  %s\n",
			ph.Index, len(ph.Sites), mean, min, siteLabel(ph.CritSite), ph.Name)
	}
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "per-site totals (successful attempt):")
	fmt.Fprintf(bw, "  %4s %14s %14s %14s %14s %7s %9s\n",
		"site", "cpu_ns", "disk_ns", "net_ns", "busy_ns", "share", "barriers")
	totals := p.SiteTotals()
	var busyAll cost.SimNs
	for _, st := range totals {
		busyAll += st.Busy()
	}
	for _, st := range totals {
		fmt.Fprintf(bw, "  %4d %14d %14d %14d %14d %6.1f%% %9d\n",
			st.Site, st.CPU.Nanoseconds(), st.Disk.Nanoseconds(), st.Net.Nanoseconds(),
			st.Busy().Nanoseconds(), pct(st.Busy(), busyAll), st.Barriers)
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "identity: buckets sum to %d ns == response %d ns\n",
		p.BlameTotal().Nanoseconds(), p.ResponseNs.Nanoseconds())
	return bw.Flush()
}

// busyRatios returns the mean and minimum per-site busy ratio of a phase
// (1.0 for the barrier holder; 0 when the phase has no sites or no work).
func busyRatios(ph *PhaseProfile) (mean, min float64) {
	if len(ph.Sites) == 0 || ph.WorkNs == 0 {
		return 0, 0
	}
	min = 1
	var sum float64
	for _, sw := range ph.Sites {
		r := float64(sw.Elapsed().Nanoseconds()) / float64(ph.WorkNs.Nanoseconds())
		sum += r
		if r < min {
			min = r
		}
	}
	return sum / float64(len(ph.Sites)), min
}

// tsvHeader is the profile-TSV magic line; the readers sniff it.
const tsvHeader = "gammaprof\ttsv\tv1"

// WriteTSV renders the profile as a flat machine-readable table that
// round-trips through ReadTSV — the interchange format gammaprof diff
// reads.
func (p *Profile) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, tsvHeader)
	fmt.Fprintf(bw, "meta\tquery\t%d\n", p.QueryID)
	fmt.Fprintf(bw, "meta\tattempt\t%d\n", p.Attempt)
	fmt.Fprintf(bw, "meta\tattempts\t%d\n", p.Attempts)
	fmt.Fprintf(bw, "meta\tresponse_ns\t%d\n", p.ResponseNs.Nanoseconds())
	fmt.Fprintf(bw, "meta\twait_ns\t%d\n", p.WaitNs.Nanoseconds())
	fmt.Fprintf(bw, "meta\tspread_ns\t%d\n", p.SpreadNs.Nanoseconds())
	fmt.Fprintf(bw, "meta\tabandoned_ns\t%d\n", p.AbandonedNs.Nanoseconds())
	for b := Bucket(0); b < NumBuckets; b++ {
		fmt.Fprintf(bw, "blame\t%s\t%d\n", b, p.Blame[b].Nanoseconds())
	}
	for i := range p.Phases {
		ph := &p.Phases[i]
		fmt.Fprintf(bw, "phase\t%d\t%s\t%d\t%s\t%d\t%d\t%d\t%d\t%s\n",
			ph.Index, ph.Class, ph.CritSite, ph.CritRes,
			ph.WorkNs.Nanoseconds(), ph.SchedNs.Nanoseconds(),
			ph.RetryNs.Nanoseconds(), ph.RetransNs.Nanoseconds(), ph.Name)
		for _, sw := range ph.Sites {
			fmt.Fprintf(bw, "phasesite\t%d\t%d\t%d\t%d\t%d\n",
				ph.Index, sw.Site, sw.CPU.Nanoseconds(), sw.Disk.Nanoseconds(),
				sw.Net.Nanoseconds())
		}
	}
	return bw.Flush()
}
