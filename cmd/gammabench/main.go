// Command gammabench regenerates the tables and figures of Schneider &
// DeWitt (SIGMOD 1989) on the simulated Gamma machine.
//
// Usage:
//
//	gammabench -list
//	gammabench -exp all                 # every experiment, paper order
//	gammabench -exp fig5,fig7,table3    # a selection
//	gammabench -exp fig5 -outer 20000 -inner 2000   # scaled down
//	gammabench -alg hybrid -trace out.json -metrics out.tsv   # one traced join
//	gammabench -alg hybrid -prof hybrid.prof.txt              # blame + critical path
//	gammabench -exp fig5 -trace-dir traces/   # export every run's timeline
//	gammabench -exp fig5 -prof-dir profs/     # profile every run (gammaprof)
//
// Response times are simulated seconds from the Gamma-calibrated cost
// model; series shapes — orderings, crossovers, steps — reproduce the
// paper's (see EXPERIMENTS.md for the point-by-point comparison).
//
// -trace writes Chrome trace_event JSON over simulated time — load it at
// https://ui.perfetto.dev; -metrics writes the per-phase metric samples as
// TSV; -prof/-prof-dir write gammaprof blame/critical-path reports whose
// buckets sum bit-exactly to the reported response time
// (docs/OBSERVABILITY.md describes every format).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/experiments"
	"gammajoin/internal/fault"
	"gammajoin/internal/profile"
	"gammajoin/internal/sched"
	"gammajoin/internal/walltime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is gammabench with its arguments and output streams made explicit: it
// writes the report to stdout, status and errors to stderr, and returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gammabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list available experiments and exit")
		exp     = fs.String("exp", "all", "comma-separated experiment names, or 'all'")
		outer   = fs.Int("outer", 0, "override outer relation cardinality (default 100000)")
		inner   = fs.Int("inner", 0, "override inner relation cardinality (default 10000)")
		disks   = fs.Int("disks", 0, "override number of disk sites (default 8)")
		remote  = fs.Int("remote", 0, "override number of diskless join sites (default 8)")
		seed    = fs.Uint64("seed", 0, "override workload seed (default 1989)")
		timings = fs.Bool("t", false, "print wall-clock time per experiment")
		plot    = fs.Bool("plot", false, "also render figure results as ASCII charts")

		alg        = fs.String("alg", "", "run one joinABprime join with this algorithm (sort-merge|simple|grace|hybrid|hybrid-dyn) instead of -exp")
		ratio      = fs.Float64("ratio", 0.5, "memory ratio for the -alg run")
		estError   = fs.Float64("est-error", 0, "corrupt the optimizer's inner-size estimate by this factor (0 or 1 = exact; see docs/SCHEDULER.md, Dynamic Hybrid)")
		traceOut   = fs.String("trace", "", "with -alg: write the run's Chrome trace_event JSON to this file")
		metricsOut = fs.String("metrics", "", "with -alg or -mpl: write the run's metrics TSV to this file")
		traceDir   = fs.String("trace-dir", "", "export every experiment run's trace JSON + metrics/spans TSV into this directory")
		profOut    = fs.String("prof", "", "with -alg: write the run's gammaprof report to this file (text; *.tsv gets the machine-readable profile)")
		profDir    = fs.String("prof-dir", "", "write every run's gammaprof profile (<slug>.prof.txt + .prof.tsv; with -mpl, q<id>.prof.*) into this directory")

		faultSeed  = fs.Uint64("fault-seed", 0, "fault-schedule seed (enables fault injection with any -fault-* rate)")
		faultDisk  = fs.Float64("fault-disk", 0, "transient disk read-error probability per page read")
		faultNet   = fs.Float64("fault-net", 0, "network packet drop probability per remote packet")
		faultDup   = fs.Float64("fault-dup", 0, "network packet duplication probability per remote packet")
		faultMem   = fs.Float64("fault-mem", 0, "per-phase probability of a memory-budget change at the join sites")
		faultSwing = fs.Float64("fault-swing", 0, "per-batch probability of a budget swing (downward revoke or upward re-grant) during a dynamic-Hybrid build")
		faultCrash = fs.Float64("fault-crash", 0, "per-phase per-site crash probability (recovered by failover or query restart)")

		mirror        = fs.Bool("mirror", false, "chained-declustered mirrors: back each disk site's fragments up on its ring neighbor so a single crash fails over instead of restarting")
		detectTimeout = fs.Float64("detect-timeout", 0, "failure-detection heartbeat period in simulated ms (0 keeps the cost model's default period and miss count)")

		mpl         = fs.Int("mpl", 0, "run a multi-query workload at this multiprogramming level instead of -exp/-alg (see docs/SCHEDULER.md)")
		policy      = fs.String("policy", "fifo", "with -mpl: admission policy (fifo|fair|shrink|revoke)")
		queries     = fs.Int("queries", 8, "with -mpl: number of workload queries")
		arrivalSeed = fs.Uint64("arrival-seed", 0, "with -mpl: arrival-schedule seed (default: the workload seed)")
		gapMs       = fs.Float64("gap", 2000, "with -mpl: mean inter-arrival gap in simulated ms")
		poolMB      = fs.Float64("pool", 0, "with -mpl: join-memory pool in MB (default: 2x the inner relation)")

		deadlineMs  = fs.Float64("deadline", 0, "with -mpl: per-query relative deadline in simulated ms (0 = none; see docs/SCHEDULER.md, Overload and shedding)")
		shedPolicy  = fs.String("shed-policy", "none", "with -mpl: load-shedding policy (none|reject|largest|brownout)")
		queueCap    = fs.Int("queue-cap", 0, "with -mpl: bound the admission queue at this many waiters (0 = unbounded; needs -shed-policy)")
		offeredLoad = fs.Float64("offered-load", 0, "with -mpl: divide the mean arrival gap by this load factor (2 = twice the arrival rate)")
		shedSeed    = fs.Uint64("shed-seed", 0, "with -mpl: shed-victim tie-break salt")
		burst       = fs.Float64("burst", 0, "with -mpl: per-arrival probability of a zero-gap arrival burst")
		burstLen    = fs.Int("burst-len", 0, "with -mpl: arrivals per burst (default 4)")

		retryBudget  = fs.Int64("retry-budget", 0, "per-query fault-retry budget: disk retries and crash restarts consume it; exhausted queries are shed (0 = unlimited)")
		retryBackoff = fs.Float64("retry-backoff", 0, "base disk-retry backoff in simulated ms, doubled per retry and charged to the paying span")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range experiments.Catalog {
			fmt.Fprintln(stdout, e.Name)
		}
		return 0
	}

	cfg := experiments.DefaultConfig()
	if *outer > 0 {
		cfg.OuterN = *outer
	}
	if *inner > 0 {
		cfg.InnerN = *inner
	}
	if *disks > 0 {
		cfg.Disks = *disks
	}
	if *remote > 0 {
		cfg.Remote = *remote
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if cfg.InnerN > cfg.OuterN {
		fmt.Fprintln(stderr, "gammabench: -inner must not exceed -outer")
		return 2
	}
	if *faultDisk > 0 || *faultNet > 0 || *faultDup > 0 || *faultMem > 0 || *faultSwing > 0 || *faultCrash > 0 ||
		*retryBudget > 0 || *retryBackoff > 0 {
		cfg.Faults = &fault.Spec{
			Seed:            *faultSeed,
			DiskReadRate:    *faultDisk,
			NetDropRate:     *faultNet,
			NetDupRate:      *faultDup,
			MemPressureRate: *faultMem,
			BudgetSwingRate: *faultSwing,
			CrashRate:       *faultCrash,
			RetryBudget:     *retryBudget,
			RetryBackoffNs:  int64(*retryBackoff * 1e6),
		}
	}
	cfg.EstError = *estError

	cfg.Mirror = *mirror
	if *detectTimeout > 0 {
		// A -detect-timeout of T declares a site dead T simulated ms after
		// its last heartbeat: one heartbeat period of T ms, one missed beat.
		p := cost.DefaultParams()
		p.HeartbeatMs = cost.Ms(*detectTimeout)
		p.HeartbeatMisses = 1
		cfg.Model = cost.NewModel(p)
	}

	cfg.TraceDir = *traceDir
	cfg.ProfDir = *profDir

	h := experiments.NewHarness(cfg)
	fmt.Fprintf(stdout, "joinABprime: %d-tuple outer ⋈ %d-tuple inner, %d disk sites",
		cfg.OuterN, cfg.InnerN, cfg.Disks)
	if cfg.Remote > 0 {
		fmt.Fprintf(stdout, " (+%d diskless for remote runs)", cfg.Remote)
	}
	fmt.Fprintf(stdout, ", seed %d\n", cfg.Seed)
	if f := cfg.Faults; f != nil {
		fmt.Fprintf(stdout, "faults: seed %d disk %.3g drop %.3g dup %.3g mem %.3g swing %.3g crash %.3g\n",
			f.Seed, f.DiskReadRate, f.NetDropRate, f.NetDupRate, f.MemPressureRate, f.BudgetSwingRate, f.CrashRate)
	}
	if cfg.EstError > 0 && cfg.EstError != 1 {
		fmt.Fprintf(stdout, "optimizer: inner-size estimate corrupted by factor %.4g\n", cfg.EstError)
	}
	if cfg.Mirror {
		fmt.Fprintln(stdout, "mirrors: chained declustering on (each disk site backed up by its ring neighbor)")
	}
	fmt.Fprintln(stdout)

	if *mpl > 0 {
		ov := overloadFlags{
			deadlineMs:  *deadlineMs,
			shedPolicy:  *shedPolicy,
			queueCap:    *queueCap,
			offeredLoad: *offeredLoad,
			shedSeed:    *shedSeed,
			burst:       *burst,
			burstLen:    *burstLen,
			metricsOut:  *metricsOut,
		}
		if err := runWorkload(stdout, stderr, h, *mpl, *policy, *queries, *arrivalSeed, *gapMs, *poolMB, *traceDir, *profDir, ov); err != nil {
			fmt.Fprintln(stderr, "gammabench:", err)
			return 1
		}
		return 0
	}

	if *alg != "" {
		if err := runSingle(stdout, stderr, h, *alg, *ratio, *traceOut, *metricsOut, *profOut); err != nil {
			fmt.Fprintln(stderr, "gammabench:", err)
			return 1
		}
		return 0
	}

	var entries []experiments.Entry
	if *exp == "all" {
		entries = experiments.Catalog
	} else {
		for _, name := range strings.Split(*exp, ",") {
			e, err := experiments.Find(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(stderr, "gammabench:", err)
				return 2
			}
			entries = append(entries, e)
		}
	}

	for _, e := range entries {
		start := walltime.Now()
		results, err := e.Run(h)
		if err != nil {
			fmt.Fprintf(stderr, "gammabench: %s: %v\n", e.Name, err)
			return 1
		}
		for _, r := range results {
			fmt.Fprintln(stdout, r.Format())
			if *plot {
				if chart := r.Plot(64, 16); chart != "" {
					fmt.Fprintln(stdout, chart)
				}
			}
		}
		if *timings {
			fmt.Fprintf(stdout, "[%s took %v]\n\n", e.Name, walltime.Since(start).Round(time.Millisecond))
		}
	}
	printRecovery(stdout, h)
	return 0
}

// printRecovery summarizes the recovery ladder's work across every faulted
// run: one line, only when fault injection was on.
func printRecovery(w io.Writer, h *experiments.Harness) {
	if h.Config().Faults == nil {
		return
	}
	r := h.Recovery()
	fmt.Fprintf(w, "recovery: %d runs, %d restarts, %d failed over, %d phases redone, %.2fs wasted, %.2fs detecting, %d mirror page reads\n",
		r.Runs, r.Restarts, r.FailedOver, r.PhasesRedone,
		r.WastedWork.Seconds(), r.DetectionDelay.Seconds(), r.MirrorReads)
}

// parseAlg maps a flag value to an algorithm.
func parseAlg(name string) (core.Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "sort-merge", "sortmerge":
		return core.SortMerge, nil
	case "simple":
		return core.Simple, nil
	case "grace":
		return core.Grace, nil
	case "hybrid":
		return core.Hybrid, nil
	case "hybrid-dyn", "hybriddyn", "dynamic":
		return core.HybridDyn, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want sort-merge, simple, grace, hybrid, or hybrid-dyn)", name)
	}
}

// overloadFlags bundles the -mpl overload-control flags.
type overloadFlags struct {
	deadlineMs  float64
	shedPolicy  string
	queueCap    int
	offeredLoad float64
	shedSeed    uint64
	burst       float64
	burstLen    int
	metricsOut  string
}

// runWorkload runs a multi-query workload through the admission engine and
// prints its deterministic report. With -trace-dir, every query's timeline
// is exported as q<id>.trace.json / q<id>.spans.tsv — the per-query process
// tracks merge in Perfetto into one multi-query timeline. With -metrics, the
// engine's admission metrics (sched.shed, sched.timeout, sched.queue.depth)
// are exported in the same TSV schema as the per-query recovery metrics.
func runWorkload(stdout, stderr io.Writer, h *experiments.Harness, mpl int, policyName string, queries int, arrivalSeed uint64, gapMs, poolMB float64, traceDir, profDir string, ov overloadFlags) error {
	pol, err := sched.ParsePolicy(policyName)
	if err != nil {
		return err
	}
	shed, err := sched.ParseShedPolicy(ov.shedPolicy)
	if err != nil {
		return err
	}
	gap := gapMs * 1e6
	if ov.offeredLoad > 0 {
		gap /= ov.offeredLoad
	}
	res, err := h.Workload(experiments.WorkloadConfig{
		Queries:     queries,
		ArrivalSeed: arrivalSeed,
		MeanGap:     time.Duration(gap),
		Policy:      pol,
		MPL:         mpl,
		PoolBytes:   int64(poolMB * (1 << 20)),
		// Per-query trace exports need each query's own recorder, so the
		// per-(shape,grant) report cache must stay off here.
		CacheReports: false,
		Deadline:     time.Duration(ov.deadlineMs * 1e6),
		Shed:         shed,
		QueueCap:     ov.queueCap,
		ShedSeed:     ov.shedSeed,
		BurstRate:    ov.burst,
		BurstLen:     ov.burstLen,
	})
	if err != nil {
		return err
	}
	if err := res.WriteText(stdout); err != nil {
		return err
	}
	if ov.metricsOut != "" {
		if err := experiments.WriteFile(ov.metricsOut, res.Metrics.WriteTSV); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "workload metrics written to %s\n", ov.metricsOut)
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		for _, q := range res.Queries {
			if q.Report == nil {
				continue // shed before admission: no execution, no timeline
			}
			base := filepath.Join(traceDir, fmt.Sprintf("q%d", q.ID))
			if err := experiments.WriteFile(base+".trace.json", q.Report.Trace.WriteChrome); err != nil {
				return err
			}
			if err := experiments.WriteFile(base+".spans.tsv", q.Report.Trace.WriteSpansTSV); err != nil {
				return err
			}
		}
		// Status goes to stderr: stdout is the deterministic report
		// TestGolden pins, and the directory path varies.
		fmt.Fprintf(stderr, "per-query traces written to %s\n", traceDir)
	}
	if profDir != "" {
		if err := os.MkdirAll(profDir, 0o755); err != nil {
			return err
		}
		for i := range res.Queries {
			q := &res.Queries[i]
			p, err := profile.FromQueryResult(q, h.Config().Model)
			if err != nil {
				return fmt.Errorf("profiling q%d: %w", q.ID, err)
			}
			base := filepath.Join(profDir, fmt.Sprintf("q%d", q.ID))
			if err := experiments.WriteFile(base+".prof.txt", p.WriteText); err != nil {
				return err
			}
			if err := experiments.WriteFile(base+".prof.tsv", p.WriteTSV); err != nil {
				return err
			}
		}
		fmt.Fprintf(stderr, "per-query profiles written to %s\n", profDir)
	}
	return nil
}

// runSingle executes one joinABprime join on the local configuration and
// optionally exports its timeline, metric samples, and gammaprof profile.
func runSingle(stdout, stderr io.Writer, h *experiments.Harness, algName string, ratio float64, traceOut, metricsOut, profOut string) error {
	a, err := parseAlg(algName)
	if err != nil {
		return err
	}
	rep, err := h.Run(experiments.RunKey{Alg: a, HPJA: true, Ratio: ratio})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s (memory ratio %.4g): %.2f simulated seconds, %d phases, %d buckets\n",
		a, ratio, rep.Response.Seconds(), len(rep.Phases), rep.Buckets)
	fmt.Fprintf(stdout, "disk-site cpu utilization %.1f%%, bottleneck busy %.2fs, forming local fraction %.2f\n",
		100*rep.UtilDisk, rep.BottleneckBusy.Seconds(), rep.FormingLocalFrac())
	if rep.FailedOver > 0 {
		fmt.Fprintf(stdout, "failed over %d crash(es) at sites %v: %d phases redone, %d mirror page reads, %.2fs wasted, %.2fs detecting\n",
			rep.FailedOver, rep.DeadSites, rep.PhasesRedone, rep.MirrorReads,
			rep.WastedWork.Seconds(), rep.DetectionDelay.Seconds())
	}
	if rep.Restarts > 0 {
		fmt.Fprintf(stdout, "recovered from %d crash(es) at sites %v, wasting %.2fs\n",
			rep.Restarts, rep.DeadSites, rep.WastedWork.Seconds())
	}
	write := func(path, kind string, emit func(w io.Writer) error) error {
		if err := experiments.WriteFile(path, emit); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s written to %s\n", kind, path)
		return nil
	}
	if traceOut != "" {
		if err := write(traceOut, "trace", rep.Trace.WriteChrome); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		if err := write(metricsOut, "metrics", rep.Trace.WriteMetricsTSV); err != nil {
			return err
		}
	}
	if profOut != "" {
		p, err := profile.FromReport(rep, h.Config().Model)
		if err != nil {
			return err
		}
		emit := p.WriteText
		if strings.HasSuffix(profOut, ".tsv") {
			emit = p.WriteTSV
		}
		if err := write(profOut, "profile", emit); err != nil {
			return err
		}
	}
	return nil
}
