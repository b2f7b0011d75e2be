package main

import (
	"testing"

	"popstab"
)

// cellSpec is a quick grid base on topology, with the patch ball the
// spatial cells act on.
func cellSpec(topology string) popstab.Spec {
	return popstab.Spec{N: 4096, Tinner: 24, Seed: 1, Topology: topology,
		Patch: &popstab.BallSpec{X: 0.5, Y: 0.5, R: 0.05}}
}

func TestRunCell(t *testing.T) {
	dev, violated, stats, err := runCell(cellSpec("mixed"), 2, "delete-random", 8)
	if err != nil {
		t.Fatal(err)
	}
	if dev < 0 || dev > 1 {
		t.Errorf("deviation %v out of range", dev)
	}
	if violated {
		t.Error("tiny budget violated the interval")
	}
	if stats.Rounds == 0 || stats.StepNS == 0 {
		t.Errorf("cell round stats empty: %+v", stats)
	}
}

func TestRunCellZeroBudget(t *testing.T) {
	if _, _, _, err := runCell(cellSpec("mixed"), 1, "greedy", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunCellTorus(t *testing.T) {
	if _, _, _, err := runCell(cellSpec("torus"), 1, "greedy", 8); err != nil {
		t.Fatal(err)
	}
}

func TestRunCellBadStrategy(t *testing.T) {
	if _, _, _, err := runCell(cellSpec("mixed"), 1, "bogus", 8); err == nil {
		t.Error("accepted unknown strategy")
	}
}

func TestRunSmallGrid(t *testing.T) {
	if err := run([]string{"-n", "4096", "-tinner", "24", "-epochs", "1", "-budgets", "0,4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadBudgets(t *testing.T) {
	if err := run([]string{"-budgets", "x"}); err == nil {
		t.Error("accepted non-numeric budget")
	}
	if err := run([]string{"-topology", "moebius"}); err == nil {
		t.Error("accepted unknown topology")
	}
}

// TestRunCellGallery smoke-tests one adversarial cell on each of the new
// gallery topologies.
func TestRunCellGallery(t *testing.T) {
	for _, topo := range []string{"grid", "ring", "smallworld"} {
		if _, _, _, err := runCell(cellSpec(topo), 1, "greedy", 8); err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
	}
}

// TestRunCellPatchFamily smoke-tests each patch strategy on a spatial
// topology (rewire strategies on SmallWorld, where they bind).
func TestRunCellPatchFamily(t *testing.T) {
	for _, name := range popstab.SpatialAdversaryNames() {
		topo := "ring"
		if name == "rewire-deny" || name == "rewire-deny-all" {
			topo = "smallworld"
		}
		if _, _, _, err := runCell(cellSpec(topo), 1, name, 8); err != nil {
			t.Fatalf("%s on %v: %v", name, topo, err)
		}
	}
}
