// Command benchsuite is the repository benchmark: five join workloads
// that together cover the layers one VO join crosses (transport and
// envelope, XML parse, negotiation engine, Ed25519 verification and its
// cache, store commit and party reload, standby shipping).
//
// One workload per process:
//
//	benchsuite --workload join-hot --seed 1 --seconds 20 --trace 0
//
// builds the fixture (timed as setup_s), warms up for 3 s untimed, times
// the window, checks every verdict and the end-of-run invariants, and
// prints one line per metric ("workload metric value unit samples")
// followed by a one-line JSON result. With --trace 1 it reports the
// per-layer metrics of a traced window instead. The exit status is 1 when
// any correctness check failed.
//
// -suite runs every workload, each in a fresh child process of this
// binary; -compare judges two sets of -suite results against the bounds
// in BENCHMARK.json. README.md describes the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsuite: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, dispatches to a mode and returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload in-process and print its result")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs (member picks, write mix, rogue members, policy values)")
		seconds  = fs.Int("seconds", 20, "length of the timed window in seconds")
		trace    = fs.Int("trace", 0, "1 runs a traced window and reports per-layer metrics instead of end-to-end ones")
		spans    = fs.String("spans", "", "with -trace 1, write the recorded spans as JSON to this file (with -suite: a prefix)")
		suite    = fs.Bool("suite", false, "run every workload, each in a fresh child process")
		out      = fs.String("out", "", "with -suite, write the collected results as JSON to this file")
		compare  = fs.Bool("compare", false, "compare two sets of -suite result files: -compare 'A*.json' 'B*.json'")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		log.Printf("-trace must be 0 or 1, got %d", *trace)
		return 2
	}
	if *seconds < 1 {
		log.Printf("-seconds must be at least 1, got %d", *seconds)
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			log.Print("-compare needs two result-file patterns")
			return 2
		}
		worse, err := runCompare(stdout, benchmarkFile, fs.Arg(0), fs.Arg(1))
		if err != nil {
			log.Print(err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	case *suite:
		ok, err := runSuite(stdout, *seed, *seconds, *trace == 1, *out, *spans)
		if err != nil {
			log.Print(err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	case *workload != "":
		spec := workloadByName(*workload)
		if spec == nil {
			log.Printf("unknown workload %q (have %s)", *workload, workloadNames())
			return 2
		}
		cfg := defaultConfig(*seed, time.Duration(*seconds)*time.Second)
		cfg.trace = *trace == 1
		cfg.spansOut = *spans
		res, err := runWorkload(spec, cfg)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := res.print(stdout, spec.name); err != nil {
			log.Print(err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	default:
		fs.Usage()
		return 2
	}
}

// benchmarkFile holds the metric bounds -compare reads; the benchmark
// runs from the repository root.
const benchmarkFile = "BENCHMARK.json"

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run, printed as the last line of standard
// output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// samples is the sample count behind each metric, printed on the
	// human-readable lines only.
	samples map[string]int
	// extra holds per-layer metrics an untraced run also measured; they
	// are printed, not returned.
	extra        map[string]float64
	extraSamples int
	// notes are printed as comment lines before the metrics.
	notes []string
}

func newResult() *result {
	return &result{Metrics: map[string]metricValue{}, samples: map[string]int{}}
}

// set records metric m of the catalogue with its sample count.
func (r *result) set(m metricDef, v float64, samples int) {
	r.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	r.samples[m.name] = samples
}

// print writes the comment lines, one line per metric in catalogue
// order, and the JSON result as the last line.
func (r *result) print(w io.Writer, workload string) error {
	for _, n := range r.notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		v, ok := r.Metrics[m.name]
		samples := r.samples[m.name]
		if !ok {
			x, ok := r.extra[m.name]
			if !ok {
				continue
			}
			v, samples = metricValue{Value: x, Unit: m.unit}, r.extraSamples
		}
		if _, err := fmt.Fprintf(w, "%s %s %s %s %d\n", workload, m.name, formatValue(v.Value), v.Unit, samples); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// formatValue renders a value for the text lines; the JSON line carries
// every digit.
func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}
