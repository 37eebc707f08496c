package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

func loadReports(path string) (map[string]report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []report
	if err := json.Unmarshal(buf, &list); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]report{}
	for _, r := range list {
		out[r.Workload] = r
	}
	return out, nil
}

// compareReports checks a candidate report against a base, pair by
// pair: every (workload, end-to-end metric) may worsen by at most its
// bound, nothing may have failed, and when both runs used the same
// seed virtual_s — the paper's metric, a pure function of the inputs —
// must repeat exactly. It prints one row per pair and returns the
// process exit code.
func compareReports(arg string) int {
	basePath, candPath, ok := strings.Cut(arg, ",")
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: -compare wants base.json,candidate.json")
		return 2
	}
	base, err := loadReports(basePath)
	if err == nil {
		var cand map[string]report
		if cand, err = loadReports(candPath); err == nil {
			return printComparison(base, cand)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func printComparison(base, cand map[string]report) int {
	breaches := 0
	fmt.Printf("%-10s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "candidate", "worse by", "bound", "verdict")
	for _, w := range workloads {
		b, okB := base[w.Name]
		c, okC := cand[w.Name]
		if !okB || !okC {
			continue // a report may cover one workload
		}
		if b.Stamp.Traced || c.Stamp.Traced {
			fmt.Printf("%-10s traced reports carry no end-to-end metrics\n", w.Name)
			breaches++
			continue
		}
		if b.Result.Failed+c.Result.Failed > 0 {
			fmt.Printf("%-10s failed operations: base %d, candidate %d\n", w.Name, b.Result.Failed, c.Result.Failed)
			breaches++
		}
		for _, d := range endToEnd {
			bv, cv := b.Result.Metrics[d.Name].Value, c.Result.Metrics[d.Name].Value
			worse := worsening(bv, cv, d.Better)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "BREACH"
			case d.Name == "virtual_s" && b.Stamp.Seed == c.Stamp.Seed && bv != cv:
				verdict = "BREACH (same seed must repeat exactly)"
			}
			if verdict != "ok" {
				breaches++
			}
			fmt.Printf("%-10s %-20s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n", w.Name, d.Name, bv, cv, 100*worse, 100*d.Bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("%d breach(es)\n", breaches)
		return 1
	}
	return 0
}
