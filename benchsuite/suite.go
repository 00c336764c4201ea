package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// tracedSeconds is the window of a -suite traced child: 5 s untraced
// (for trace.overhead_pct), then 5 s traced.
const tracedSeconds = 10

// suiteFile is the -suite -out document; -compare reads sets of them.
type suiteFile struct {
	Seed    int64              `json:"seed"`
	Seconds int                `json:"seconds"`
	Results map[string]*result `json:"results"`
	Traced  map[string]*result `json:"traced,omitempty"`
}

// runSuite runs every workload in a fresh child process of this binary,
// so heap state, caches and rusage never carry over between workloads.
// It reports whether every run was correct.
func runSuite(stdout io.Writer, seed int64, seconds int, traced bool, out, spans string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	ctx := context.Background()
	doc := suiteFile{Seed: seed, Seconds: seconds, Results: map[string]*result{}}
	ok := true
	for _, w := range workloads {
		r, err := runChild(ctx, stdout, exe, w.name, seed, seconds, false, "")
		if err != nil {
			return false, err
		}
		doc.Results[w.name] = r
		ok = ok && r.Correct
	}
	if traced {
		doc.Traced = map[string]*result{}
		for _, w := range workloads {
			spansOut := ""
			if spans != "" {
				spansOut = strings.TrimSuffix(spans, ".json") + "-" + w.name + ".json"
			}
			r, err := runChild(ctx, stdout, exe, w.name, seed, tracedSeconds, true, spansOut)
			if err != nil {
				return false, err
			}
			doc.Traced[w.name] = r
			ok = ok && r.Correct
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// runChild runs one workload in a child process, echoes its metric
// lines and returns its parsed result. A child that exits non-zero
// after printing a result is an incorrect run, not an error.
func runChild(ctx context.Context, stdout io.Writer, exe, workload string, seed int64, seconds int, traced bool, spans string) (*result, error) {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds),
		"-trace", "0",
	}
	if traced {
		args[len(args)-1] = "1"
		if spans != "" {
			args = append(args, "-spans", spans)
		}
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	data, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("workload %s: no result line: %w", workload, err)
	}
	var exitErr *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exitErr) {
		return nil, fmt.Errorf("workload %s: %w", workload, runErr)
	}
	if _, err := io.WriteString(stdout, strings.Join(lines[:len(lines)-1], "\n")+"\n"); err != nil {
		return nil, err
	}
	return &r, nil
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkDoc is the part of BENCHMARK.json the suite reads.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &doc, nil
}

// loadSet reads every -suite result file matching pattern and returns,
// per workload and metric, the values of all runs.
func loadSet(pattern string) (map[string]map[string][]float64, int, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, 0, err
	}
	if len(files) == 0 {
		return nil, 0, fmt.Errorf("no result files match %q", pattern)
	}
	sort.Strings(files)
	set := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, 0, err
		}
		var doc suiteFile
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, 0, fmt.Errorf("parse %s: %w", f, err)
		}
		for w, r := range doc.Results {
			if set[w] == nil {
				set[w] = map[string][]float64{}
			}
			for m, v := range r.Metrics {
				set[w][m] = append(set[w][m], v.Value)
			}
		}
	}
	return set, len(files), nil
}

// spread is the quartile distance as a share of the median.
func spread(v []float64) (med, share float64) {
	q1, q2, q3 := quartiles(v)
	return q2, ratio(q3-q1, q2)
}

// verdict judges set B against set A for one metric: a row is
// unresolved when either side's spread exceeds the bound; otherwise B is
// worse or better when its median moved past the bound.
func verdict(a, b []float64, m bound) (string, float64) {
	medA, spreadA := spread(a)
	medB, spreadB := spread(b)
	change := ratio(medB-medA, medA)
	if m.Better == "higher" {
		change = -change
	}
	noisy := spreadA > m.Bound || spreadB > m.Bound
	switch {
	case len(a) == 0 || len(b) == 0 || noisy:
		return "unresolved", change
	case change > m.Bound:
		return "worse", change
	case change < -m.Bound:
		return "better", change
	default:
		return "same", change
	}
}

// runCompare prints one row per (workload, end-to-end metric) and
// reports whether any row is worse or unresolved.
func runCompare(w io.Writer, benchPath, patA, patB string) (bool, error) {
	doc, err := readBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	setA, nA, err := loadSet(patA)
	if err != nil {
		return false, err
	}
	setB, nB, err := loadSet(patB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %d runs (%s)   B: %d runs (%s); change is B vs A, positive = worse\n", nA, patA, nB, patB)
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "spreadA", "spreadB", "bound", "verdict")
	flagged := false
	for _, wl := range workloads {
		for _, m := range doc.EndToEnd {
			a, b := setA[wl.name][m.Name], setB[wl.name][m.Name]
			v, change := verdict(a, b, m)
			medA, spA := spread(a)
			medB, spB := spread(b)
			fmt.Fprintf(w, "%-13s %-18s %12.4g %12.4g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, medA, medB, change*100, spA*100, spB*100, m.Bound*100, v)
			if v == "worse" || v == "unresolved" {
				flagged = true
			}
		}
	}
	return flagged, nil
}
