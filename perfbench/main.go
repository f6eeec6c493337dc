// Command perfbench is the repository benchmark. It runs one named
// workload for a given workload seed, checks every answer the program
// returns, and prints one JSON object as the last line of standard
// output: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a separate traced run.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload gaode-1m-lora -seed 1 -seconds 45 -trace 0
//
// The benchmark drives the program only through its public entry points
// (synth.Generate, core.NewEngine, Engine.Search,
// partition.Index.PartitionBucketed and the seqserver binary over
// loopback HTTP) and times those calls from its own code. README.md in
// this directory explains the workloads and how to read the output.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run returns.
type report struct {
	Attempted int
	Failed    int
	// Incorrect lists the answers that failed a check (capped); any
	// entry makes the run incorrect.
	Incorrect []string
	Metrics   map[string]metric
	// Detail is workload-specific context for the written record: tail
	// percentiles and sample counts, per-step tables, absent layers.
	Detail map[string]any
}

// maxReported caps how many incorrect answers a record lists.
const maxReported = 20

func (r *report) incorrect(format string, args ...any) {
	r.Failed++
	if len(r.Incorrect) < maxReported {
		r.Incorrect = append(r.Incorrect, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// runCtx is what every workload gets from the command line.
type runCtx struct {
	Seed      int64
	Window    time.Duration
	Traced    bool
	SeqServer string
	OutDir    string
	Log       io.Writer
	// Repeats overrides the repeat share of the HTTP request mix when
	// not negative.
	Repeats float64
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.Log, "perfbench: "+format+"\n", args...)
}

// benchWorkload is one named benchmark workload.
type benchWorkload struct {
	Name string
	Run  func(rc *runCtx) (*report, error)
}

var workloads = []benchWorkload{
	{Name: "gaode-1m-lora", Run: gaode1mLORA.run},
	{Name: "http-gaode-100k", Run: httpGaode100k.run},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: gaode-1m-lora or http-gaode-100k")
	seed := fl.Int64("seed", 1, "workload seed: the same seed gives the same dataset and queries")
	seconds := fl.Int("seconds", 20, "measured seconds per run")
	traceFlag := fl.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	seqserver := fl.String("seqserver", "", "path to the built seqserver binary (http workloads)")
	outDir := fl.String("out", ".bench_build/perfbench", "directory for the run record and trace")
	repeats := fl.Float64("repeat-share", -1, "share of repeated popular queries in the http-gaode-100k mix, 0 to 1; negative keeps the workload's own")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].Name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *repeats > 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0 or 1 and -repeat-share <= 1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rc := &runCtx{
		Seed:      *seed,
		Window:    time.Duration(*seconds) * time.Second,
		Traced:    *traceFlag == 1,
		SeqServer: *seqserver,
		OutDir:    *outDir,
		Log:       stderr,
		Repeats:   *repeats,
	}
	prov := provenanceOf(w.Name, rc)
	rep, err := w.Run(rc)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.Incorrect) == 0, rep.Attempted, rep.Failed, rep.Metrics}
	record := map[string]any{
		"provenance": prov,
		"result":     result,
		"incorrect":  rep.Incorrect,
		"detail":     rep.Detail,
	}
	recPath := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, *seed, *traceFlag))
	if b, err := json.MarshalIndent(record, "", "  "); err == nil {
		if err := os.WriteFile(recPath, b, 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing record:", err)
		}
	}
	for _, msg := range rep.Incorrect {
		fmt.Fprintln(stderr, "perfbench: INCORRECT:", msg)
	}
	pl, _ := json.Marshal(map[string]any{"provenance": prov, "record": recPath})
	fmt.Fprintln(stdout, string(pl))
	rl, _ := json.Marshal(result)
	fmt.Fprintln(stdout, string(rl))
	if !result.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// provenance names the host, toolchain, source and inputs of a result.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	GitSHA       string `json:"git_sha"`
	SourceSHA256 string `json:"source_sha256"`
	StartedAt    string `json:"started_at"`
}

func provenanceOf(name string, rc *runCtx) provenance {
	return provenance{
		Workload:     name,
		Seed:         rc.Seed,
		Seconds:      int(rc.Window / time.Second),
		Trace:        rc.Traced,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		GitSHA:       gitSHA(),
		SourceSHA256: sourceDigest("."),
		StartedAt:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA returns HEAD when the working directory is the top of a git
// work tree, and "unknown" otherwise (a plain source checkout, or a
// directory nested inside some unrelated repository).
func gitSHA() string {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return "unknown"
	}
	wd, err := os.Getwd()
	if err != nil || filepath.Clean(strings.TrimSpace(string(top))) != filepath.Clean(wd) {
		return "unknown"
	}
	sha, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// sourceDigest hashes the paths and contents of every regular file under
// root outside dot-directories (.git, build output): it identifies the
// measured source even where no git metadata exists.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
