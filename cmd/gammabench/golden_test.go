package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/profile"
)

// Flag sets shared by several rows.
const (
	exports = " -trace-dir $D/trace -prof-dir $D/prof"
	chaos   = "-exp fig5 -outer 8000 -inner 800 -fault-disk 0.02 -fault-net 0.02 -fault-dup 0.02 -fault-mem 0.3 -fault-crash 0.05 -fault-seed "
	avail   = "-exp fig5 -outer 8000 -inner 800 -fault-seed 7 -fault-crash 0.05"
	single  = " -outer 8000 -inner 800 -ratio 0.3 -est-error 2.5 -fault-seed 11 -fault-disk 0.02 -fault-net 0.02 -fault-mem 0.3 -fault-swing 0.5" +
		" -trace $D/trace.json -metrics $D/metrics.tsv -prof $D/prof.txt"
)

// golden pins gammabench's outputs across commits. Each row is one
// invocation, with $D naming a fresh temporary directory, and its digest is
// one SHA-256 over the stdout and every file written under $D. Every output
// is a function of the flags alone, so a digest moves only when the
// simulator's behaviour does: after a deliberate change, paste the digest
// the failure prints and name the row in the change description. A row with
// no digest must fail with a non-zero exit and a one-line message on stderr.
// check, when set, asserts a property the digest cannot show.
var golden = []struct {
	name, args, digest string
	check              func(t *testing.T, dir, stdout string)
}{
	{"all", "-exp all -outer 8000 -inner 800" + exports, "336d9b338445ce0315e3e4b6413b9deb9af314d4e13824d5054539f29bd66eb0", checkProfiles},
	{"tables", "-exp table1,table2 -outer 20000 -inner 2000", "f9acd2464a66a9e657ee9ed264b536eeb804d5b36dbdebeeebb10b13f5512575", nil},
	{"chaos-3", chaos + "3", "7574590bfdba5dd33e00a9b18108fae257b7a7587662cfe434d46f58a7a1481e", nil},
	{"chaos-17", chaos + "17", "8cf2c99403a84d1af59f0ec83af253ca52f74b9a9ac70e0681cf1b3e62181da5", nil},
	{"chaos-1989", chaos + "1989", "52903c14cf85ee17af90488470091112d8948b4392e259da15167f7aae79f175", nil},
	{"avail", avail, "5a023fc817ec42988a975491802bf926b09dd728e9dbe18af29c6e8617fdb596", nil},
	{"avail-mirror", avail + " -mirror" + exports, "23a60e17583204ecaaa51876d5a957d9a802678b39c751f2d55537216c7d05d8", checkFailover},
	{"degrade", "-exp degrade -outer 20000 -inner 2000 -fault-seed 77 -fault-mem 0.5 -fault-swing 0.5 -trace-dir $D/trace", "5ff95a4fe266a40fd219fffa951da5232cceab562ca1fb3f23e4bbf09ba7a1b5", nil},
	{"overload", "-exp overload -outer 10000 -inner 1000", "b7e515dc8437fa0a56ef0f4f45771c5a83168c10539ec4b79453f318651b3ba1", nil},
	{"overload-workload", "-outer 10000 -inner 1000 -mpl 3 -queries 12 -gap 400 -deadline 30000 -shed-policy largest" +
		" -queue-cap 4 -retry-budget 4 -fault-seed 7 -fault-disk 0.02 -retry-backoff 1 -metrics $D/metrics.tsv", "418c1521fcfdd9a2609bdeb4e7a9bc9a7eddd7261b642010831871e9505849bc", nil},
	{"mpl-fair", "-outer 8000 -inner 800 -mpl 8 -policy fair" + exports, "0fb2a46b3b7928dfcf994f8c9583eb995ebbec1de0c8b812ea6856da8f10d16e", nil},
	{"mpl-revoke", "-outer 8000 -inner 800 -mpl 6 -policy revoke -fault-seed 5 -fault-mem 0.5 -fault-swing 0.5 -metrics $D/metrics.tsv" + exports, "0113d3f5e711220054a1e69bf2c1dee2e093b4d539114a5fa12c8a246e70eed1", nil},
	{"alg-sort-merge", "-alg sort-merge" + single, "dc752ad000323e51639b7f2acfcd967874c9aa152665e5470267638e81e82fbf", nil},
	{"alg-simple", "-alg simple" + single, "e59ed2323e7e930adc9d912a89017cf61591240ea972e38be2a3ca61f7d4881d", nil},
	{"alg-grace", "-alg grace" + single, "285ee106ce2b705719128b74a61204b43833b6ef756810136b4275d59148ea30", nil},
	{"alg-hybrid", "-alg hybrid" + single, "957373dbb11e5e1802c7ac2c46eb263728ba29e52c234fc94a982a264f19eace", nil},
	{"alg-hybrid-dyn", "-alg hybrid-dyn" + single, "47ae9c6d43461b9a425b23c426e71b44a4aea7f803db2f01588937e99fe139d0", nil},

	{"mirror-one-disk", "-disks 1 -mirror -exp fig5 -outer 800 -inner 80", "", nil},
	{"inner-exceeds-outer", "-outer 800 -inner 8000", "", nil},
	{"unknown-exp", "-exp nope", "", nil},
	{"unknown-alg", "-alg nope", "", nil},
	{"ratio-nan", "-alg hybrid -ratio NaN -outer 800 -inner 80", "", nil},
	{"ratio-overflow", "-alg hybrid -ratio 1e300 -outer 800 -inner 80", "", nil},
}

func TestGolden(t *testing.T) {
	for _, row := range golden {
		t.Run(row.name, func(t *testing.T) {
			code, dir, stdout, stderr, sum := runGolden(t, row.args)
			if row.digest == "" {
				if code == 0 || strings.Count(stderr, "\n") != 1 {
					t.Errorf("exit %d, stderr %q: want a non-zero exit and a one-line message", code, stderr)
				}
				return
			}
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if sum != row.digest {
				// A second run tells a deterministic move from a flaky output.
				if _, _, _, _, again := runGolden(t, row.args); again != sum {
					t.Errorf("nondeterministic: two runs digest to %s and %s", sum, again)
				} else {
					t.Errorf("moved: digest %s, want %s", sum, row.digest)
				}
			}
			if row.check != nil {
				row.check(t, dir, stdout)
			}
		})
	}
}

// runGolden runs gammabench in-process with $D bound to a fresh directory
// and returns the exit code, the directory, both streams and the digest.
func runGolden(t *testing.T, args string) (code int, dir, stdout, stderr, digest string) {
	t.Helper()
	dir = t.TempDir()
	argv := strings.Fields(args)
	for i := range argv {
		argv[i] = strings.ReplaceAll(argv[i], "$D", dir)
	}
	var out, errs bytes.Buffer
	code = run(argv, &out, &errs)
	h := sha256.New()
	fmt.Fprintf(h, "stdout %d\n%s", out.Len(), out.Bytes())
	// WalkDir visits files in lexical order, so the digest is independent
	// of the order they were written in.
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return code, dir, out.String(), errs.String(), hex.EncodeToString(h.Sum(nil))
}

// checkFailover requires the mirrored crash sweep to absorb every crash by
// failover: no query restart, and at least one failover.
func checkFailover(t *testing.T, _, stdout string) {
	var runs, restarts, failedOver int
	i := strings.Index(stdout, "\nrecovery: ")
	if i < 0 {
		t.Fatal("no recovery line")
	}
	if _, err := fmt.Sscanf(stdout[i+1:], "recovery: %d runs, %d restarts, %d failed over",
		&runs, &restarts, &failedOver); err != nil {
		t.Fatal(err)
	}
	if restarts != 0 || failedOver == 0 {
		t.Errorf("mirrored sweep: %d restarts, %d failed over; want 0 restarts and at least 1 failover", restarts, failedOver)
	}
}

// checkProfiles requires every profile to carry the identity line (its
// blame buckets sum to the response), and gammaprof's offline profile of
// every spans TSV to reproduce the in-process report byte for byte.
func checkProfiles(t *testing.T, dir, _ string) {
	reports, _ := filepath.Glob(filepath.Join(dir, "prof", "*.prof.txt"))
	for _, path := range reports {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte("\nidentity: buckets sum to")) {
			t.Errorf("%s: no identity line", filepath.Base(path))
		}
	}
	spans, _ := filepath.Glob(filepath.Join(dir, "trace", "*.spans.tsv"))
	for _, path := range spans {
		slug := strings.TrimSuffix(filepath.Base(path), ".spans.tsv")
		want, err := os.ReadFile(filepath.Join(dir, "prof", slug+".prof.txt"))
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := profile.Load(f, cost.Default())
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", slug, err)
		}
		var got bytes.Buffer
		if err := p.WriteText(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: offline profile differs from the in-process report", slug)
		}
	}
	if len(reports) == 0 || len(spans) == 0 {
		t.Errorf("%d profiles and %d span tables written, want both", len(reports), len(spans))
	}
}
