// Command servicebench is the campaign service's benchmark. It hosts
// wsnlinkd daemons in its own process (serve.Open plus Server.Handler on a
// loopback listener, configured as wsnlinkd configures them), drives them
// with closed-loop clients over real HTTP, checks every row it receives,
// and reports end-to-end metrics (tracing off) or, with --trace 1, per-layer
// metrics from a traced run and a layer-by-layer replay.
//
// Usage, from the root of the repository:
//
//	bash servicebench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//	bash servicebench/run.sh --workload churn --seed 7 --seconds 10 --trace 1
//	bash servicebench/run.sh compare old.out new.out
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the full
// result documents (host fingerprint, ungated metrics, sample counts), one
// per workload. compare reads two saved standard outputs. The exit status
// is non-zero when any campaign failed or any row differed from its
// reference.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
)

// resultDoc is the full result of one workload run.
type resultDoc struct {
	Schema    string            `json:"schema"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Reported holds the end-to-end metrics outside the gated set: the
	// p99 latencies the run has enough samples for, and throughput
	// retention.
	Reported map[string]metric `json:"reported,omitempty"`
	Samples  map[string]int    `json:"samples,omitempty"`
	Failures []string          `json:"failures,omitempty"`
}

const schema = "wsnlink-servicebench/v1"

// line is the one-line result the last line of standard output carries.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
	}
	os.Exit(code)
}

// run executes the command line and returns the exit status: 0 when every
// campaign verified, 1 when some failed, 2 for a usage or benchmark error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout)
	}
	fs := flag.NewFlagSet("servicebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: churn, bulk, replay, fabric or all")
		seed    = fs.Uint64("seed", 1, "workload seed: every campaign seed and sample draw derives from it")
		seconds = fs.Float64("seconds", 10, "seconds of load to measure")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run and per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			return 2, err
		}
		ws = []*workload{w}
	}

	// The daemons' data lives under the checkout's build directory and is
	// removed when the run ends.
	dir, err := freshDir(".bench_build", "servicebench-")
	if err != nil {
		return 2, err
	}
	defer removeData(dir)

	var docs []*resultDoc
	for _, w := range ws {
		doc, err := runWorkload(ctx, w, *seed, *seconds, *trace == 1, dir)
		if err != nil {
			return 2, fmt.Errorf("%s: %w", w.name, err)
		}
		docs = append(docs, doc)
		printReport(stderr, doc)
		if err := json.NewEncoder(stdout).Encode(doc); err != nil {
			return 2, err
		}
	}
	res := summary(docs)
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		return 2, err
	}
	if !res.Correct {
		return 1, errors.New("some campaigns failed or differed from their reference")
	}
	return 0, nil
}

// runWorkload measures one workload and assembles its result document.
func runWorkload(ctx context.Context, w *workload, seed uint64, seconds float64, traced bool, dir string) (*resultDoc, error) {
	doc := &resultDoc{
		Schema: schema, Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Host: currentHost(), Metrics: map[string]metric{},
	}
	var values map[string]float64
	var defs []metricDef
	var passes []*pass
	if !traced {
		p := newPass(w, seed, nil, dir)
		if err := p.run(ctx, seconds); err != nil {
			return nil, err
		}
		passes = []*pass{p}
		gated, reported, samples := p.endToEnd()
		values, defs, doc.Samples = gated, endToEndDefs, samples
		doc.Reported = map[string]metric{}
		for _, d := range reportedDefs {
			if v, ok := reported[d.name]; ok && !math.IsNaN(v) {
				doc.Reported[d.name] = metric{v, d.unit}
			}
		}
	} else {
		// Half the time untraced, half traced: their row rates give the
		// tracing overhead. Then the layer replay.
		a := newPass(w, seed, nil, dir)
		if err := a.run(ctx, seconds/2); err != nil {
			return nil, err
		}
		tr := newTracer()
		b := newPass(w, seed, tr, dir)
		if err := b.run(ctx, seconds/2); err != nil {
			return nil, err
		}
		l, err := runLayers(ctx, w, seed, tr, dir)
		if err != nil {
			return nil, err
		}
		passes = []*pass{a, b}
		values, defs = perLayer(w, a, b, l, tr), perLayerDefs
	}
	for _, p := range passes {
		n, f := p.tally()
		doc.Attempted += n
		doc.Failed += f
		for _, err := range p.failures(5) {
			doc.Failures = append(doc.Failures, err.Error())
		}
	}
	if doc.Attempted == 0 {
		return nil, errors.New("no campaign was attempted")
	}
	if bad, ok := finite(values); !ok {
		return nil, fmt.Errorf("metric %s is not a finite number", bad)
	}
	for _, d := range defs {
		doc.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	doc.Correct = doc.Failed == 0
	return doc, nil
}

// summary folds the result documents into the final line. With one
// workload its metrics appear under their own names; with several each is
// prefixed by its workload.
func summary(docs []*resultDoc) line {
	res := line{Correct: true, Metrics: map[string]metric{}}
	for _, d := range docs {
		res.Correct = res.Correct && d.Correct
		res.Attempted += d.Attempted
		res.Failed += d.Failed
		for k, v := range d.Metrics {
			if len(docs) > 1 {
				k = d.Workload + "." + k
			}
			res.Metrics[k] = v
		}
	}
	return res
}

// printReport writes the human-readable report: every metric by name with
// its unit and better direction, the reported-only ones and why a p99 is
// missing.
func printReport(w io.Writer, d *resultDoc) {
	h := d.Host
	fmt.Fprintf(w, "servicebench %s seed=%d seconds=%g trace=%t: %d campaigns, %d failed\n",
		d.Workload, d.Seed, d.Seconds, d.Trace, d.Attempted, d.Failed)
	fmt.Fprintf(w, "  host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	defs := endToEndDefs
	if d.Trace {
		defs = perLayerDefs
	}
	for _, m := range defs {
		v := d.Metrics[m.name]
		fmt.Fprintf(w, "  %-38s %14.6g %-6s (%s is better)\n", m.name, v.Value, v.Unit, m.better)
	}
	if !d.Trace {
		n := d.Samples["campaigns"]
		for _, m := range reportedDefs {
			v, ok := d.Reported[m.name]
			switch {
			case ok && m.name == "throughput_retention":
				fmt.Fprintf(w, "  %-38s %14.6g %-6s (%s is better; not gated)\n", m.name, v.Value, v.Unit, m.better)
			case ok:
				fmt.Fprintf(w, "  %-38s %14.6g %-6s (%s is better; %d samples, %d beyond; not gated)\n",
					m.name, v.Value, v.Unit, m.better, n, beyond(n, 99))
			default:
				fmt.Fprintf(w, "  %-38s %14s %-6s (not reported: %d samples leave %d beyond p99, %d needed)\n",
					m.name, "-", m.unit, n, beyond(n, 99), tailMinBeyond)
			}
		}
	}
	for _, f := range d.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

// compare prints the metric ratios between two saved standard outputs of
// the benchmark. When they were measured on different machines or
// toolchains it says so first and marks every line CROSS-HOST.
func compare(args []string, stdout io.Writer) (int, error) {
	if len(args) != 2 {
		return 2, errors.New("usage: servicebench compare old.out new.out")
	}
	old, err := readDocs(args[0])
	if err != nil {
		return 2, err
	}
	cur, err := readDocs(args[1])
	if err != nil {
		return 2, err
	}
	byKey := map[string]*resultDoc{}
	for _, d := range old {
		byKey[fmt.Sprintf("%s/%t", d.Workload, d.Trace)] = d
	}
	for _, d := range cur {
		o, ok := byKey[fmt.Sprintf("%s/%t", d.Workload, d.Trace)]
		if !ok {
			continue
		}
		mark := ""
		if same, diff := o.Host.sameMachine(d.Host); !same {
			mark = " CROSS-HOST"
			fmt.Fprintf(stdout, "%s: WARNING host fingerprints differ: %s\n", d.Workload, diff)
		}
		names := make([]string, 0, len(d.Metrics))
		for k := range d.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			ov, ok := o.Metrics[k]
			if !ok {
				continue
			}
			nv := d.Metrics[k]
			fmt.Fprintf(stdout, "%-8s %-38s %14.6g -> %-14.6g %s x%.3f%s\n",
				d.Workload, k, ov.Value, nv.Value, nv.Unit, nv.Value/ov.Value, mark)
		}
	}
	return 0, nil
}

// readDocs reads the result documents from a saved standard output,
// skipping the final summary line.
func readDocs(path string) ([]*resultDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []*resultDoc
	for dec := json.NewDecoder(f); ; {
		var d resultDoc
		if err := dec.Decode(&d); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if d.Schema == schema {
			docs = append(docs, &d)
		}
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no %s result documents", path, schema)
	}
	return docs, nil
}
