package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestRunMinimal(t *testing.T) {
	err := run([]string{"-n", "4096", "-tinner", "24", "-epochs", "1", "-q"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithAdversaryAndCSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "trace.csv")
	err := run([]string{"-n", "4096", "-tinner", "24", "-epochs", "1", "-q",
		"-adv", "greedy", "-budget", "4", "-csv", csv})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty CSV trace")
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
