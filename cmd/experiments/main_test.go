package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		list, want string
		errHas     []string
	}{
		// "all" is the paper's evaluation and the repo's extensions, in
		// reading order; longhaul and sched-grid run only when named.
		{list: "all", want: "table1,table2,fig5,fig6,fig7,fig8,fig9,fig10,fig12,fig14,fig15,ablations,gossip,visibility,faults"},
		{list: "longhaul,sched-grid", want: "longhaul,sched-grid"},
		{list: "fig10,fig11", want: "fig10"},
		{list: "fig13, table1 ,fig12,table1", want: "fig12,table1"},
		{list: "faults,all,longhaul", want: "faults,table1,table2,fig5,fig6,fig7,fig8,fig9,fig10,fig12,fig14,fig15,ablations,gossip,visibility,longhaul"},
		{list: "fig9,figg10", errHas: []string{`unknown experiment "figg10"`, "fig9", "fig10=fig11", "all", "longhaul"}},
		{list: "", errHas: []string{`unknown experiment ""`}},
		{list: "fig9,", errHas: []string{`unknown experiment ""`}},
	} {
		exps, err := resolve(tc.list)
		if tc.errHas != nil {
			if err == nil {
				t.Errorf("resolve(%q) accepted", tc.list)
			}
			for _, want := range tc.errHas {
				if err != nil && !strings.Contains(err.Error(), want) {
					t.Errorf("resolve(%q): error %q does not name %q", tc.list, err, want)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("resolve(%q): %v", tc.list, err)
			continue
		}
		ids := make([]string, len(exps))
		for i, e := range exps {
			ids[i] = e.ID
		}
		if got := strings.Join(ids, ","); got != tc.want {
			t.Errorf("resolve(%q) = %s, want %s", tc.list, got, tc.want)
		}
	}
}

func TestRunQuick(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "table1,fig11,fig10", "-seed", "42", "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for want, n := range map[string]int{
		"### Table 1: hyperparameters":                  1,
		"### Figures 10 & 11: FedAvg vs DAG vs FedProx": 1, // the aliased pair is one sweep
		"(table1 completed in":                          1,
		"(fig10 completed in":                           1,
		"at quick scale)":                               2,
	} {
		if got := strings.Count(out.String(), want); got != n {
			t.Errorf("%q appears %d time(s), want %d, in:\n%s", want, got, n, out.String())
		}
	}

	// A typo anywhere in the list fails before the first experiment runs.
	out.Reset()
	if err := run([]string{"-exp", "table1,nope"}, &out); err == nil || out.Len() != 0 {
		t.Errorf("run with an unknown ID: err = %v after printing %q", err, out.String())
	}
	// So does a negative budget, as a usage error: it must not fall back to
	// NumCPU.
	if err := run([]string{"-exp", "table1", "-workers", "-1"}, &out); !errors.As(err, new(usageError)) || out.Len() != 0 {
		t.Errorf("run with -workers -1: err = %v after printing %q, want a usage error before the first run", err, out.String())
	}
}
