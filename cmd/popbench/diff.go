package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// loadReport parses one -json document from disk.
func loadReport(path string) (*jsonReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: not a popbench -json document: %w", path, err)
	}
	if rep.SchemaVersion < 1 || len(rep.Experiments) == 0 {
		return nil, fmt.Errorf("%s: not a popbench -json document (schema %d, %d experiments)",
			path, rep.SchemaVersion, len(rep.Experiments))
	}
	return &rep, nil
}

// runDiff compares two -json documents exactly and writes a summary to w.
// Every experiment of the old document must appear in the new one with
// the same verdict, tables and notes; the first difference in each is
// reported, and any difference fails the diff. Wall times and host fields
// (elapsed_ms, total_ms, num_cpu, workers, go_version) are not compared.
// Documents of a different scale or seed are rejected outright: every cell
// would differ, which says nothing about the change under test.
func runDiff(w io.Writer, oldPath, newPath string) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	if oldRep.Scale != newRep.Scale || oldRep.Seed != newRep.Seed {
		return fmt.Errorf("cannot compare scale=%s seed=%d (%s) against scale=%s seed=%d (%s)",
			oldRep.Scale, oldRep.Seed, oldPath, newRep.Scale, newRep.Seed, newPath)
	}

	newByID := map[string]jsonExperiment{}
	for _, e := range newRep.Experiments {
		newByID[e.ID] = e
	}
	oldByID := map[string]jsonExperiment{}
	for _, e := range oldRep.Experiments {
		oldByID[e.ID] = e
	}

	var drifts []string
	for _, oldE := range oldRep.Experiments {
		newE, ok := newByID[oldE.ID]
		if !ok {
			drifts = append(drifts, fmt.Sprintf("%s (%s): missing from the new run", oldE.ID, oldE.Title))
			continue
		}
		if d := firstDrift(oldE, newE); d != "" {
			drifts = append(drifts, d)
		}
	}
	// Experiments present only in the new document are reported as "added"
	// — informational, never a failure: a PR that introduces an experiment
	// should not need a baseline refresh to merge, and an added DEVIATION
	// is the new experiment's own problem (popbench -json already exits
	// non-zero on it), not a drift from the baseline.
	var added []string
	for _, newE := range newRep.Experiments {
		if _, ok := oldByID[newE.ID]; !ok {
			status := "DEVIATION"
			if newE.Reproduced {
				status = "reproduced"
			}
			added = append(added, fmt.Sprintf("%s (%s)", newE.ID, status))
		}
	}

	fmt.Fprintf(w, "experiments: %d compared, %d drifted, %d added\n",
		len(oldRep.Experiments), len(drifts), len(added))
	for _, a := range added {
		fmt.Fprintf(w, "  added: %s (informational; refresh the baseline to start gating it)\n", a)
	}
	if len(drifts) > 0 {
		for _, d := range drifts {
			fmt.Fprintf(w, "DRIFT: %s\n", d)
		}
		return fmt.Errorf("%d experiment(s) drifted from %s; first: %s", len(drifts), oldPath, drifts[0])
	}
	fmt.Fprintln(w, "no drift: every verdict, table cell and note matches")
	return nil
}

// firstDrift names the first difference between two records of the same
// experiment — its verdict, then each table's title, columns, rows and
// cells, then each note — or returns "" when they are equal.
func firstDrift(o, n jsonExperiment) string {
	id := o.ID
	if o.Verdict != n.Verdict {
		return fmt.Sprintf("%s: verdict %q -> %q", id, o.Verdict, n.Verdict)
	}
	if len(o.Tables) != len(n.Tables) {
		return fmt.Sprintf("%s: %d tables -> %d", id, len(o.Tables), len(n.Tables))
	}
	for i, ot := range o.Tables {
		nt := n.Tables[i]
		if ot.Title != nt.Title {
			return fmt.Sprintf("%s table %d: title %q -> %q", id, i+1, ot.Title, nt.Title)
		}
		where := fmt.Sprintf("%s table %q", id, ot.Title)
		if !slices.Equal(ot.Cols, nt.Cols) {
			return fmt.Sprintf("%s: columns %q -> %q", where, ot.Cols, nt.Cols)
		}
		if len(ot.Rows) != len(nt.Rows) {
			return fmt.Sprintf("%s: %d rows -> %d", where, len(ot.Rows), len(nt.Rows))
		}
		for r, orow := range ot.Rows {
			nrow := nt.Rows[r]
			if len(orow) != len(nrow) {
				return fmt.Sprintf("%s row %d: %d cells -> %d", where, r+1, len(orow), len(nrow))
			}
			for c, cell := range orow {
				if cell != nrow[c] {
					col := fmt.Sprint(c + 1)
					if c < len(ot.Cols) {
						col = fmt.Sprintf("%q", ot.Cols[c])
					}
					return fmt.Sprintf("%s row %d column %s: %q -> %q", where, r+1, col, cell, nrow[c])
				}
			}
		}
	}
	if len(o.Notes) != len(n.Notes) {
		return fmt.Sprintf("%s: %d notes -> %d", id, len(o.Notes), len(n.Notes))
	}
	for i, note := range o.Notes {
		if note != n.Notes[i] {
			return fmt.Sprintf("%s note %d: %q -> %q", id, i+1, note, n.Notes[i])
		}
	}
	return ""
}
