// Command benchjson distills `go test -bench` output into one
// benchstat-compatible JSON document and gates it. It parses one or
// more bench-output files (stdin when none are given), aggregates
// repeated -count runs into per-benchmark medians, and writes a single
// JSON document that keeps the raw benchmark lines verbatim — so
//
//	jq -r '.lines[]' out.json | benchstat /dev/stdin
//
// reconstructs input benchstat accepts, while the medians stay
// greppable without any tooling. The committed BENCH_pr*.json files
// are its output from earlier changes, kept as history.
//
// Gates turn the document into a regression tripwire:
//
//	-gate 'BenchmarkEvaluateMaterialized/BenchmarkEvaluateVirtual>=5.0'
//	-zero 'BenchmarkEvaluateVirtual'
//
// -gate requires the ratio of two benchmarks' median ns/op to meet a
// floor; -zero requires a benchmark's median allocs/op to be exactly
// zero. Both are evaluated after the JSON is written (the file records
// each verdict), and any failure exits nonzero, so `make bench-alloc`
// fails loudly when the scoring hot path starts allocating. Gates are
// within-file: comparing two commits is `vbench -compare`'s job.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sample is one parsed benchmark result line.
type sample struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
	hasMem      bool
}

// Benchmark is the aggregated (median) result of one benchmark across
// repeated -count runs, as serialized into the output document.
type Benchmark struct {
	Name        string  `json:"name"` // GOMAXPROCS suffix stripped
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Gate is a recorded gate verdict.
type Gate struct {
	Gate  string  `json:"gate"`
	Ratio float64 `json:"ratio,omitempty"`
	Value float64 `json:"value,omitempty"`
	Pass  bool    `json:"pass"`
}

// Report is the whole output document.
type Report struct {
	Format     string      `json:"format"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Gates      []Gate      `json:"gates,omitempty"`
	Lines      []string    `json:"lines"`
}

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var (
		out   = flag.String("o", "", "output file (default stdout)")
		gates stringList
		zeros stringList
	)
	flag.Var(&gates, "gate", "NUM/DEN>=RATIO: median ns/op ratio floor (repeatable)")
	flag.Var(&zeros, "zero", "NAME: require median allocs/op == 0 (repeatable)")
	flag.Parse()

	var lines []string
	if flag.NArg() == 0 {
		var err error
		if lines, err = readLines(os.Stdin); err != nil {
			fatal(err)
		}
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		ls, err := readLines(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		lines = append(lines, ls...)
	}

	rep, err := build(lines)
	if err != nil {
		fatal(err)
	}
	failed, err := applyGates(rep, gates, zeros)
	if err != nil {
		fatal(err)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d gate(s) failed:\n", len(failed))
		for _, g := range failed {
			fmt.Fprintf(os.Stderr, "  %s\n", g)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(2)
}

func readLines(r io.Reader) ([]string, error) {
	var lines []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}

// keep reports whether a line belongs in the benchstat-reconstructable
// lines array: benchmark results plus the configuration header keys
// benchstat groups by.
func keep(line string) bool {
	if strings.HasPrefix(line, "Benchmark") {
		return true
	}
	for _, k := range []string{"goos:", "goarch:", "pkg:", "cpu:"} {
		if strings.HasPrefix(line, k) {
			return true
		}
	}
	return false
}

// baseName strips the -GOMAXPROCS suffix go test appends to benchmark
// names, so repeated runs and gate references match regardless of the
// machine's core count.
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func parseLine(line string) (string, sample, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", sample{}, false
	}
	var s sample
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", sample{}, false
		}
		switch f[i+1] {
		case "ns/op":
			s.nsPerOp, seen = v, true
		case "B/op":
			s.bytesPerOp, s.hasMem = v, true
		case "allocs/op":
			s.allocsPerOp, s.hasMem = v, true
		}
	}
	if !seen {
		return "", sample{}, false
	}
	return baseName(f[0]), s, true
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func build(lines []string) (*Report, error) {
	rep := &Report{Format: "go-bench-median/v1"}
	samples := make(map[string][]sample)
	var order []string
	for _, line := range lines {
		if keep(line) {
			rep.Lines = append(rep.Lines, line)
		}
		name, s, ok := parseLine(line)
		if !ok {
			continue
		}
		if _, dup := samples[name]; !dup {
			order = append(order, name)
		}
		samples[name] = append(samples[name], s)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark result lines in input")
	}
	for _, name := range order {
		ss := samples[name]
		pick := func(get func(sample) float64) float64 {
			xs := make([]float64, len(ss))
			for i, s := range ss {
				xs[i] = get(s)
			}
			return median(xs)
		}
		b := Benchmark{
			Name:        name,
			Runs:        len(ss),
			NsPerOp:     pick(func(s sample) float64 { return s.nsPerOp }),
			AllocsPerOp: pick(func(s sample) float64 { return s.allocsPerOp }),
		}
		if ss[0].hasMem {
			b.BytesPerOp = pick(func(s sample) float64 { return s.bytesPerOp })
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, nil
}

func (r *Report) find(name string) (Benchmark, error) {
	want := baseName(name)
	for _, b := range r.Benchmarks {
		if b.Name == want {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("gate references unknown benchmark %q", name)
}

// applyGates evaluates every -gate and -zero against the report,
// records each verdict in rep.Gates, and returns descriptions of the
// failed ones.
func applyGates(rep *Report, gates, zeros []string) (failed []string, err error) {
	for _, g := range gates {
		spec, floorStr, ok := strings.Cut(g, ">=")
		if !ok {
			return nil, fmt.Errorf("bad -gate %q: want NUM/DEN>=RATIO", g)
		}
		numName, denName, ok := strings.Cut(spec, "/")
		if !ok {
			return nil, fmt.Errorf("bad -gate %q: want NUM/DEN>=RATIO", g)
		}
		floor, err := strconv.ParseFloat(strings.TrimSpace(floorStr), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -gate %q: %v", g, err)
		}
		num, err := rep.find(strings.TrimSpace(numName))
		if err != nil {
			return nil, err
		}
		den, err := rep.find(strings.TrimSpace(denName))
		if err != nil {
			return nil, err
		}
		if den.NsPerOp == 0 {
			return nil, fmt.Errorf("gate %q: zero denominator median", g)
		}
		ratio := num.NsPerOp / den.NsPerOp
		pass := ratio >= floor
		rep.Gates = append(rep.Gates, Gate{Gate: g, Ratio: ratio, Pass: pass})
		if !pass {
			failed = append(failed, fmt.Sprintf("%s (ratio %.2f)", g, ratio))
		}
	}
	for _, z := range zeros {
		b, err := rep.find(strings.TrimSpace(z))
		if err != nil {
			return nil, err
		}
		pass := b.AllocsPerOp == 0
		rep.Gates = append(rep.Gates, Gate{Gate: "zero-allocs:" + z, Value: b.AllocsPerOp, Pass: pass})
		if !pass {
			failed = append(failed, fmt.Sprintf("zero-allocs:%s (%.0f allocs/op)", z, b.AllocsPerOp))
		}
	}
	return failed, nil
}
