package sim

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/par"
)

// The metric gate. testdata/experiments.golden holds one line per metric of
// every experiment, "<id>/<metric> <value>", at Quick scale and seed 42.
// Regenerate with
//
//	SPECDAG_REGEN_GOLDEN=1 go test ./internal/sim -run TestExperimentsGolden
//
// and only for a change that is meant to move results (a new default, a
// changed draw order, a new experiment); a diff in the golden is the review
// surface of such a change. Values are pinned at four significant digits
// because that is what holds across machines: math.Exp on amd64 picks an FMA
// path by CPU feature, so last-bit equality is promised within a process —
// where the two worker-count passes are compared with == — not between hosts.
const (
	goldenPath   = "testdata/experiments.golden"
	goldenDigits = 4
)

// pin is one metric of one pass over the table, keyed as the golden keys it.
type pin struct {
	key   string // "<id>/<metric>"
	value float64
}

func TestExperimentsTable(t *testing.T) {
	taken := map[string]bool{"all": true}
	claim := func(id string) {
		if id == "" || taken[id] || strings.ContainsAny(id, ", \t\n/") {
			t.Errorf("experiment ID %q is empty, taken or not an -exp list element", id)
		}
		taken[id] = true
	}
	for _, e := range Experiments() {
		claim(e.ID)
		if e.Alias != "" {
			claim(e.Alias)
		}
		if e.Run == nil {
			t.Errorf("%s: no runner", e.ID)
		}
	}
}

// runTable runs every experiment at Quick scale, seed 42, on a budget of the
// given size and returns the metrics in table order.
func runTable(t *testing.T, slots int) []pin {
	t.Helper()
	env := Env{Pool: par.NewBudget(slots)}
	var pass []pin
	for _, e := range Experiments() {
		text, metrics, err := e.Run(context.Background(), env, Quick, 42)
		if err != nil {
			t.Fatalf("%s on %d slot(s): %v", e.ID, slots, err)
		}
		if strings.TrimSpace(text) == "" {
			t.Errorf("%s renders to nothing", e.ID)
		}
		names := map[string]bool{}
		for _, m := range metrics {
			if names[m.Name] || m.Name == "" || strings.ContainsAny(m.Name, " \t\n") {
				t.Errorf("%s: metric name %q is empty, repeated or not a b.ReportMetric unit", e.ID, m.Name)
			}
			names[m.Name] = true
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s/%s = %v", e.ID, m.Name, m.Value)
			}
			pass = append(pass, pin{e.ID + "/" + m.Name, m.Value})
		}
	}
	return pass
}

// disagreements lists the metrics on which two passes differ: a key only one
// of them holds, or values that are not the same float64.
func disagreements(aName string, a []pin, bName string, b []pin) []string {
	var out []string
	inB := make(map[string]float64, len(b))
	for _, p := range b {
		inB[p.key] = p.value
	}
	inA := make(map[string]bool, len(a))
	for _, p := range a {
		inA[p.key] = true
		if v, ok := inB[p.key]; !ok {
			out = append(out, fmt.Sprintf("%s: in %s, not in %s", p.key, aName, bName))
		} else if !(p.value == v) {
			out = append(out, fmt.Sprintf("%s: %v in %s, %v in %s", p.key, p.value, aName, v, bName))
		}
	}
	for _, p := range b {
		if !inA[p.key] {
			out = append(out, fmt.Sprintf("%s: in %s, not in %s", p.key, bName, aName))
		}
	}
	return out
}

func formatGolden(pass []pin) string {
	var b strings.Builder
	for _, p := range pass {
		fmt.Fprintf(&b, "%s %s\n", p.key, strconv.FormatFloat(p.value, 'g', goldenDigits, 64))
	}
	return b.String()
}

func parseGolden(text string) ([]pin, error) {
	var pass []pin
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		key, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || !strings.Contains(key, "/") {
			return nil, fmt.Errorf("golden line %q is not \"<id>/<metric> <value>\"", line)
		}
		pass = append(pass, pin{key, v})
	}
	return pass, nil
}

// againstGolden compares a pass with golden text at the golden's precision.
func againstGolden(pass []pin, golden string) ([]string, error) {
	want, err := parseGolden(golden)
	if err != nil {
		return nil, err
	}
	got, _ := parseGolden(formatGolden(pass)) // rounds; what formatGolden writes parses
	return disagreements("this run", got, "the golden", want), nil
}

// TestExperimentsGolden runs the whole table on a 1-slot and a 4-slot
// budget: the two passes must agree on every float64 exactly (worker count
// and scheduling never change results), and match the committed golden.
func TestExperimentsGolden(t *testing.T) {
	t.Parallel()
	one, four := runTable(t, 1), runTable(t, 4)
	for _, d := range disagreements("the 1-slot pass", one, "the 4-slot pass", four) {
		t.Error(d)
	}
	if os.Getenv("SPECDAG_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(formatGolden(one)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with SPECDAG_REGEN_GOLDEN=1): %v", err)
	}
	diffs, err := againstGolden(one, string(golden))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Error(d)
	}
}

// TestGoldenFailureModes: every way the gate can fail names the metric.
func TestGoldenFailureModes(t *testing.T) {
	run := []pin{{"fig9/FMNIST-clustered-dag-median", 0.8666666666666667}, {"fig15/evals-active5", 101.8}}
	// lastBit matches the golden at its four digits and fails ==.
	lastBit := []pin{{run[0].key, math.Nextafter(run[0].value, 1)}, run[1]}
	const golden = "fig9/FMNIST-clustered-dag-median 0.8667\nfig15/evals-active5 101.8\n"

	for _, tc := range []struct {
		name   string
		pass   []pin
		golden string
		want   []string // one substring per expected failure, in order
		bad    bool     // the golden itself is rejected
	}{
		{name: "match", pass: run, golden: golden},
		{name: "match at four digits", pass: lastBit, golden: golden},
		{name: "changed value", pass: run, golden: strings.Replace(golden, "0.8667", "0.8666", 1),
			want: []string{"fig9/FMNIST-clustered-dag-median: 0.8667 in this run, 0.8666 in the golden"}},
		{name: "missing metric", pass: run, golden: golden + "fig9/Poets-dag-median 0.375\n",
			want: []string{"fig9/Poets-dag-median: in the golden, not in this run"}},
		{name: "unexpected metric", pass: run, golden: "fig15/evals-active5 101.8\n",
			want: []string{"fig9/FMNIST-clustered-dag-median: in this run, not in the golden"}},
		{name: "same name under another id", pass: run, golden: strings.Replace(golden, "fig15/", "fig14/", 1),
			want: []string{"fig15/evals-active5: in this run", "fig14/evals-active5: in the golden"}},
		{name: "empty golden", pass: run, golden: "", bad: true},
		{name: "golden line without a value", pass: run, golden: "fig9/x\n", bad: true},
		{name: "golden value not a number", pass: run, golden: "fig9/x zero\n", bad: true},
		{name: "golden key without an id", pass: run, golden: "x 1\n", bad: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := againstGolden(tc.pass, tc.golden)
			if (err != nil) != tc.bad {
				t.Fatalf("err = %v, want rejected = %v", err, tc.bad)
			}
			checkFailures(t, got, tc.want)
		})
	}

	for _, tc := range []struct {
		name  string
		other []pin
		want  []string
	}{
		{"passes agree", run, nil},
		{"passes disagree in the last bit", lastBit, []string{run[0].key + ": 0.8666666666666667 in a, 0.8666666666666668 in b"}},
		{"pass missing a metric", run[:1], []string{"fig15/evals-active5: in a, not in b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkFailures(t, disagreements("a", run, "b", tc.other), tc.want)
		})
	}
}

func checkFailures(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("failures %q, want %d", got, len(want))
	}
	for i := range want {
		if !strings.Contains(got[i], want[i]) {
			t.Errorf("failure %q does not say %q", got[i], want[i])
		}
	}
}
