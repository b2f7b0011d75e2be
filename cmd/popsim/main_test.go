package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"popstab"
)

func TestRunMinimal(t *testing.T) {
	err := run([]string{"-n", "4096", "-tinner", "24", "-epochs", "1", "-q"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunWithAdversaryAndCSV pins the -csv trace byte for byte: long
// format, grouped by series, keyed by epoch. The rows are the seed-1
// trajectory's.
func TestRunWithAdversaryAndCSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "trace.csv")
	err := run([]string{"-n", "4096", "-tinner", "24", "-epochs", "2", "-q",
		"-adv", "greedy", "-budget", "4", "-csv", csv})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	const want = "series,x,y\n" +
		"population,0,4097\npopulation,1,4098\n" +
		"births,0,13\nbirths,1,9\n" +
		"deaths,0,16\ndeaths,1,12\n"
	if string(data) != want {
		t.Errorf("CSV trace:\n%s\nwant:\n%s", data, want)
	}
}

// TestWriteCSV pins writeCSV's long format on hand-made reports: the
// header, then every epoch's population, births and deaths in series order,
// with values as shortest floats (a million-agent population prints as
// 1.048576e+06).
func TestWriteCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	reps := []popstab.EpochReport{
		{Epoch: 0, EndSize: 4096, Births: 3, Deaths: 0},
		{Epoch: 1, EndSize: 1 << 20, Births: 0, Deaths: 12},
	}
	if err := writeCSV(path, reps); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "series,x,y\n" +
		"population,0,4096\npopulation,1,1.048576e+06\n" +
		"births,0,3\nbirths,1,0\n" +
		"deaths,0,0\ndeaths,1,12\n"
	if string(data) != want {
		t.Errorf("CSV trace:\n%s\nwant:\n%s", data, want)
	}
	if err := writeCSV(filepath.Join(path, "missing", "x.csv"), reps); err == nil {
		t.Error("writeCSV into a missing directory returned no error")
	}
}

func TestRunBaselineProtocol(t *testing.T) {
	if err := run([]string{"-n", "4096", "-tinner", "24", "-epochs", "1", "-q",
		"-protocol", "attempt2"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunListAdversaries pins that -list-adv prints exactly the names -adv
// accepts: every listed name runs, and the list spans both registries.
func TestRunListAdversaries(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = run([]string{"-list-adv"})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Fields(string(out))
	for _, want := range []string{"none", "greedy", "delete-patch", "patch-combo"} {
		if !slices.Contains(names, want) {
			t.Errorf("-list-adv omits %s: %v", want, names)
		}
	}
	for _, name := range names {
		if err := run([]string{"-n", "4096", "-tinner", "24", "-epochs", "0", "-q", "-adv", name}); err != nil {
			t.Errorf("-adv %s (listed) rejected: %v", name, err)
		}
	}
}

func TestRunTorusTopology(t *testing.T) {
	if err := run([]string{"-n", "4096", "-tinner", "24", "-epochs", "1", "-q",
		"-topology", "torus", "-adv", "greedy", "-budget", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRogueExtension(t *testing.T) {
	if err := run([]string{"-n", "4096", "-tinner", "24", "-epochs", "1", "-q",
		"-rogues", "16", "-rogue-every", "12"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRogueOnTorus(t *testing.T) {
	if err := run([]string{"-n", "4096", "-tinner", "24", "-epochs", "1", "-q",
		"-topology", "torus", "-rogues", "16", "-rogue-every", "12"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-n", "1000"},                                      // invalid N
		{"-adv", "bogus"},                                   // unknown adversary
		{"-protocol", "bogus"},                              // unknown protocol
		{"-n", "4096", "-bits", "7"},                        // unsupported codec
		{"-gamma", "3"},                                     // invalid gamma
		{"-topology", "moebius"},                            // unknown topology
		{"-n", "4096", "-rewire", "0.3"},                    // rewire without smallworld topology
		{"-n", "4096", "-rogues", "-1"},                     // negative rogues... parsed but rejected downstream
		{"-n", "4096", "-spread", "0.5"},                    // spread without torus topology
		{"-n", "4096", "-rogues", "4", "-rogue-every", "0"}, // invalid period
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
