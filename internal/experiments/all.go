package experiments

import "fmt"

// Entry names one runnable experiment.
type Entry struct {
	Name string
	Run  func(h *Harness) ([]*Result, error)
}

func one(f func(h *Harness) (*Result, error)) func(h *Harness) ([]*Result, error) {
	return func(h *Harness) ([]*Result, error) {
		r, err := f(h)
		if err != nil {
			return nil, err
		}
		return []*Result{r}, nil
	}
}

// Catalog lists every experiment in paper order.
var Catalog = []Entry{
	{"fig5", one((*Harness).Figure5)},
	{"fig6", one((*Harness).Figure6)},
	{"fig7", one((*Harness).Figure7)},
	{"fig8", one((*Harness).Figure8)},
	{"fig9", one((*Harness).Figure9)},
	{"fig10-13", (*Harness).Figures10to13},
	{"fig14", one((*Harness).Figure14)},
	{"fig15", one((*Harness).Figure15)},
	{"fig16", one((*Harness).Figure16)},
	{"table1", one((*Harness).Table1)},
	{"table2", one((*Harness).Table2)},
	{"table3", one((*Harness).Table3)},
	{"table4", one((*Harness).Table4)},
	{"table3x", one((*Harness).Table3Extras)},
	{"appendixA", one((*Harness).AppendixA)},

	// Extensions: the paper's future work and prose claims, measured.
	{"ext-formfilter", one((*Harness).ExtFormingFilters)},
	{"ext-tuning", one((*Harness).ExtBucketTuning)},
	{"ext-mixed", one((*Harness).ExtMixedConfig)},
	{"ext-util", one((*Harness).ExtUtilization)},
	{"ext-aselb", one((*Harness).ExtJoinAselB)},
	{"ext-speedup", one((*Harness).ExtSpeedup)},
	{"ext-growing", one((*Harness).ExtGrowingRelations)},
	{"ext-multiuser", one((*Harness).ExtMultiuser)},
	{"mpl-sweep", one((*Harness).MPLSweep)},
	{"degrade", one((*Harness).DegradationCurve)},
	{"overload", one((*Harness).GoodputCurve)},
}

// Find returns the catalog entry with the given name.
func Find(name string) (Entry, error) {
	for _, e := range Catalog {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("experiments: unknown experiment %q", name)
}
