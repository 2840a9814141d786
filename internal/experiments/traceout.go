package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/profile"
	"gammajoin/internal/sched"
)

// Slug renders the run key as a filename-safe identifier, used to name
// per-run trace exports under Config.TraceDir.
func (k RunKey) Slug() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s_r%.4g", k.Alg, k.Ratio)
	if k.Remote {
		b.WriteString("_remote")
	} else {
		b.WriteString("_local")
	}
	if k.HPJA {
		b.WriteString("_hpja")
	}
	if k.Filter {
		b.WriteString("_filter")
	}
	if k.ForceBuckets > 0 {
		fmt.Fprintf(&b, "_b%d", k.ForceBuckets)
	}
	if k.AllowOverflow {
		b.WriteString("_ovf")
	}
	if k.Skew != "" {
		b.WriteString("_" + strings.ToLower(k.Skew))
	}
	if k.FilterForming {
		b.WriteString("_ff")
	}
	if k.BucketTuning {
		b.WriteString("_tuned")
	}
	if k.Mixed {
		b.WriteString("_mixed")
	}
	if k.AselB {
		b.WriteString("_aselb")
	}
	if k.EstError > 0 && k.EstError != 1 {
		fmt.Fprintf(&b, "_est%.4g", k.EstError)
	}
	return b.String()
}

// WriteFile creates the file at path, writes it with emit and closes it.
// Every trace, metrics, spans and profile export goes through it.
func WriteFile(path string, emit func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// writeTraceFiles exports one run's timeline and metric samples.
func writeTraceFiles(dir, slug string, rep *core.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: trace dir: %w", err)
	}
	base := filepath.Join(dir, slug)
	if err := WriteFile(base+".trace.json", rep.Trace.WriteChrome); err != nil {
		return err
	}
	if err := WriteFile(base+".metrics.tsv", rep.Trace.WriteMetricsTSV); err != nil {
		return err
	}
	return WriteFile(base+".spans.tsv", rep.Trace.WriteSpansTSV)
}

// writeProfFiles profiles one run (Config.ProfDir) into the human-readable
// report and the machine-readable TSV. FromReport enforces the accounting
// identity — buckets summing to anything but the reported response is an
// error here, not a skewed report.
func writeProfFiles(dir, slug string, rep *core.Report, m *cost.Model) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: prof dir: %w", err)
	}
	p, err := profile.FromReport(rep, m)
	if err != nil {
		return fmt.Errorf("experiments: profile %s: %w", slug, err)
	}
	return writeProfile(filepath.Join(dir, slug), p)
}

// writeProfile writes a profile's text report and TSV to base.prof.txt and
// base.prof.tsv.
func writeProfile(base string, p *profile.Profile) error {
	if err := WriteFile(base+".prof.txt", p.WriteText); err != nil {
		return err
	}
	return WriteFile(base+".prof.tsv", p.WriteTSV)
}

// writeWorkloadProfFiles profiles every query of one workload run
// (<prefix>_q<id>.prof.txt/tsv). The workload identity extends the per-run
// one: wait + nominal buckets + contention spread == the scheduled response.
func writeWorkloadProfFiles(dir, prefix string, res *sched.Result, m *cost.Model) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: prof dir: %w", err)
	}
	for i := range res.Queries {
		qr := &res.Queries[i]
		p, err := profile.FromQueryResult(qr, m)
		if err != nil {
			return fmt.Errorf("experiments: profile %s q%d: %w", prefix, qr.ID, err)
		}
		if err := writeProfile(filepath.Join(dir, fmt.Sprintf("%s_q%d", prefix, qr.ID)), p); err != nil {
			return err
		}
	}
	return nil
}
