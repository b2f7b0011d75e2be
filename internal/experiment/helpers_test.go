package experiment

import (
	"testing"
)

func TestParamsForScales(t *testing.T) {
	q, err := paramsFor(4096, Quick)
	if err != nil {
		t.Fatal(err)
	}
	f, err := paramsFor(4096, Full)
	if err != nil {
		t.Fatal(err)
	}
	if q.Tinner != 24 || f.Tinner != 48 {
		t.Errorf("Tinner quick=%d full=%d, want 24/48", q.Tinner, f.Tinner)
	}
	if _, err := paramsFor(1000, Quick); err == nil {
		t.Error("accepted invalid N")
	}
}

func TestLogOf(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 4096: 12, 65536: 16}
	for n, want := range cases {
		if got := logOf(n); got != want {
			t.Errorf("logOf(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMaxDevFrac(t *testing.T) {
	o := stabilityOutcome{minSize: 3000, maxSize: 5000}
	if got := o.maxDevFrac(4096); got != (4096.0-3000)/4096 {
		t.Errorf("maxDevFrac = %v", got)
	}
	o = stabilityOutcome{minSize: 4000, maxSize: 6000}
	if got := o.maxDevFrac(4096); got != (6000.0-4096)/4096 {
		t.Errorf("maxDevFrac = %v", got)
	}
}

func TestVerdictStrings(t *testing.T) {
	if v := verdict(true, "yes", "no"); v != "REPRODUCED: yes" {
		t.Errorf("verdict = %q", v)
	}
	if v := verdict(false, "yes", "no"); v != "DEVIATION: no" {
		t.Errorf("verdict = %q", v)
	}
}

func TestBudgetLabel(t *testing.T) {
	if budgetLabel(0) != "0" {
		t.Error("zero budget label")
	}
	if budgetLabel(8) != "8/epoch" {
		t.Error("nonzero budget label")
	}
}

func TestRunStabilityRejectsBadParams(t *testing.T) {
	q, err := paramsFor(4096, Quick)
	if err != nil {
		t.Fatal(err)
	}
	bad := q
	bad.Tinner = logOf(bad.N) // below the ω(log N) floor of 2·log N
	if _, err := runStability(bad, stabilityArm{"none", 0}, 1, 1); err == nil {
		t.Error("accepted invalid params")
	}
}

func TestRunStabilityAdversaryArm(t *testing.T) {
	q, err := paramsFor(4096, Quick)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runStability(q, stabilityArm{"delete-random", 8}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.minSize == 0 || out.maxSize < out.minSize {
		t.Errorf("outcome %+v", out)
	}
	if out.violatedAt != -1 {
		t.Errorf("tiny budget violated the interval at epoch %d", out.violatedAt)
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		1234:   "1234",
		-5678:  "-5678",
		12.34:  "12.3",
		-45.6:  "-45.6",
		0.1234: "0.123",
	}
	for in, want := range cases {
		if got := fmtF(in); got != want {
			t.Errorf("fmtF(%v) = %q, want %q", in, got, want)
		}
	}
	if fmtI(42) != "42" {
		t.Error("fmtI")
	}
}
