// Command perfbench is the repository's benchmark: it runs one workload
// through the layers' public functions, checks every output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// one JSON object on the last line of standard output.
//
//	go run . -workload paper-crash -seed 1 -seconds 25 -trace 0
//
// Run it from the repository root through run.sh, which builds it; see
// README.md for the workloads and the metric table.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose execution digests are pinned.
const defaultSeed = 1

// A run sets its workload up at least minSetups times, and more until
// the set-ups sum to setupBudget, up to maxSetups; setup_s is the
// median.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// repResult is one repetition of a workload's fixed operation list.
type repResult struct {
	wall      time.Duration // summed wall time of the timed operations
	msgs      int64         // messages counted by metrics.Counters
	digests   []uint64      // execution digests, in operation order
	attempted int64         // operations attempted
	failures  []string      // failed checks, errors, failed jobs, 429s
}

func (r *repResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload. setup is timed for setup_s; it
// runs several times, each after close, and once more, untimed, before
// the traced pass. stage runs, untimed, before every setup and puts in
// place what the set-up finds on disk. rep runs one repetition, traced
// when spans is non-nil (parent is the repetition's span). perLayer
// reports the workload's per-layer metrics from both passes, and the
// failures of any checks it makes on the way.
type workload interface {
	stage(seed uint64) error
	setup(seed uint64) error
	rep(r int, spans *spanLog, parent int, trace string) repResult
	perLayer(untraced, traced []repResult) (map[string]float64, []string)
	close()
}

// pins are repetition 0's execution digests at defaultSeed, in operation
// order. simd-jobs' digests hash the interactive and the fleet client's
// fresh results.
var pins = map[string][]uint64{
	"paper-crash": {0xb5e8e70698b6f5f4, 0xc00d0a5ed94f881a, 0xc9f39a9a73e8f82c},
	"dense-flood": {0x9326b2136a803ce1, 0x850643f11331c0cf},
	"simd-jobs":   {0xb55a0f284dff6e4f, 0x39d9ac1522d3179d},
	"tcp-elect":   {0x4cc423033a6a326c},
}

var workloads = map[string]func() workload{
	"paper-crash": func() workload { return &paperCrash{} },
	"dense-flood": func() workload { return &denseFlood{} },
	"simd-jobs":   func() workload { return &simdJobs{} },
	"tcp-elect":   func() workload { return &tcpElect{} },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayerUnits are the metric names and units the run
// prints; BENCHMARK.json at the repository root lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
}

var perLayerUnits = []struct{ name, unit string }{
	{"core.elect_s", "s"},
	{"core.agree_s", "s"},
	{"core.minagree_s", "s"},
	{"netsim.node_round_ns", "ns"},
	{"netsim.active_node_frac", "ratio"},
	{"netsim.split_round_us_p50", "us"},
	{"netsim.fused_round_us_p50", "us"},
	{"netsim.fused_round_us_p90", "us"},
	{"netsim.msg_ns", "ns"},
	{"netsim.msgs", "count"},
	{"netsim.bits", "count"},
	{"netsim.rounds", "count"},
	{"fault.calls", "count"},
	{"fault.crashes", "count"},
	{"fault.busy_s", "s"},
	{"baseline.gossip_s", "s"},
	{"baseline.wc_s", "s"},
	{"topo.msg_ns", "ns"},
	{"topo.round_us_p50", "us"},
	{"topo.compile_s", "s"},
	{"realnet.connect_s", "s"},
	{"realnet.round_us_p50", "us"},
	{"realnet.round_us_p99", "us"},
	{"wire.frame_ns", "ns"},
	{"simsvc.open_s", "s"},
	{"simsvc.submit_ms_p50.miss", "ms"},
	{"simsvc.submit_ms_p99.miss", "ms"},
	{"simsvc.submit_ms_p50.hit", "ms"},
	{"simsvc.batch_submit_ms_p50", "ms"},
	{"simsvc.wait_ms_p99.interactive", "ms"},
	{"simsvc.wait_ms_p99.fleet", "ms"},
	{"simsvc.job_ms_p50", "ms"},
	{"simsvc.job_ms_p99", "ms"},
	{"simsvc.jobs_per_s", "jobs/s"},
	{"simsvc.overlap_frac", "ratio"},
	{"simsvc.cache_hit_frac", "ratio"},
	{"simsvc.rejected", "count"},
	{"baseline.job_ms", "ms"},
	{"bench.msgs_per_s", "msgs/s"},
	{"bench.peak_rss_mb", "MiB"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.fail_frac", "ratio"},
}

func main() {
	name := flag.String("workload", "", "workload: paper-crash, dense-flood, simd-jobs or tcp-elect")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; inputs are a function of it")
	seconds := flag.Float64("seconds", 25, "measuring time per pass")
	trace := flag.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	outDir := flag.String("out", "", "directory for the run report and spans (none when empty)")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload paper-crash|dense-flood|simd-jobs|tcp-elect -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := run(mk(), *name, *seed, *seconds, *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w workload, name string, seed uint64, seconds float64, traced bool, outDir string) error {
	epoch := time.Now()
	prov := provenance(seed, name)
	for _, k := range sortedKeys(prov) {
		fmt.Printf("# %s: %s\n", k, prov[k])
	}

	var setups []float64
	var spent time.Duration
	defer w.close()
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if len(setups) > 0 {
			w.close()
		}
		if err := w.stage(seed); err != nil {
			return fmt.Errorf("stage: %w", err)
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}

	budget := time.Duration(seconds * float64(time.Second))
	var untraced []repResult
	start := time.Now()
	for r := 0; ; r++ {
		runtime.GC()
		rr := w.rep(r, nil, 0, "")
		untraced = append(untraced, rr)
		fmt.Printf("# rep %d: %.3fs, %d msgs, %d failures\n", r, rr.wall.Seconds(), rr.msgs, len(rr.failures))
		// Stop when another repetition like this one would overrun the
		// budget; the first always runs.
		if elapsed := time.Since(start); elapsed+rr.wall > budget {
			break
		}
	}

	// The peak resident set of the set-ups and the untraced pass, read
	// before the traced pass can raise it.
	peakRSS := peakRSSMiB()

	var tracedReps []repResult
	var spans *spanLog
	if traced {
		// A fresh set-up, so simd-jobs' cache holds only the journal's
		// results again.
		w.close()
		if err := w.stage(seed); err != nil {
			return fmt.Errorf("traced pass stage: %w", err)
		}
		if err := w.setup(seed); err != nil {
			return fmt.Errorf("traced pass setup: %w", err)
		}
		spans = newSpanLog(epoch)
		root := spans.begin(name, 0, name)
		for r := range untraced {
			trace := fmt.Sprintf("%s/rep%d", name, r)
			runtime.GC()
			id := spans.begin(fmt.Sprintf("rep %d", r), root, trace)
			rr := w.rep(r, spans, id, trace)
			spans.end(id)
			tracedReps = append(tracedReps, rr)
			fmt.Printf("# traced rep %d: %.3fs, %d failures\n", r, rr.wall.Seconds(), len(rr.failures))
		}
		spans.end(root)
	}

	var attempted int64
	var failures []string
	for _, reps := range [][]repResult{untraced, tracedReps} {
		for _, rr := range reps {
			attempted += rr.attempted
			failures = append(failures, rr.failures...)
		}
	}
	failures = append(failures, checkDigests(pins[name], seed, untraced, tracedReps)...)
	values := map[string]float64{}
	if traced {
		layers, bad := w.perLayer(untraced, tracedReps)
		failures = append(failures, bad...)
		for k, v := range layers {
			values[k] = v
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}

	walls := make([]float64, len(untraced))
	var msgs, wall float64
	for i, rr := range untraced {
		walls[i] = rr.wall.Seconds()
		msgs += float64(rr.msgs)
		wall += rr.wall.Seconds()
	}
	values["wall_s"] = median(walls)
	values["bench.msgs_per_s"] = msgs / wall
	values["setup_s"] = median(setups)
	values["bench.peak_rss_mb"] = peakRSS
	if attempted < 1 {
		attempted = 1
	}
	values["bench.fail_frac"] = float64(len(failures)) / float64(attempted)
	if traced {
		tw := make([]float64, len(tracedReps))
		for i, rr := range tracedReps {
			tw[i] = rr.wall.Seconds()
		}
		values["bench.trace_overhead_frac"] = median(tw)/median(walls) - 1
	}
	for k, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(values, k) // no sample: printed as 0, absent from the report
		}
	}

	out := output{Correct: len(failures) == 0, Attempted: attempted, Failed: int64(len(failures)), Metrics: map[string]metric{}}
	list := endToEnd
	if traced {
		list = perLayerUnits
	}
	for _, m := range list {
		out.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	if outDir != "" {
		if err := writeReport(outDir, name, seed, traced, prov, values, untraced, tracedReps, setups, failures, spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkDigests compares every repetition's execution digests between
// the untraced and traced passes, and repetition 0 against the pinned
// digests at the default seed.
func checkDigests(pinned []uint64, seed uint64, untraced, traced []repResult) []string {
	var bad []string
	for i, rr := range traced {
		if !equalDigests(rr.digests, untraced[i].digests) {
			bad = append(bad, fmt.Sprintf("rep %d: traced digests %x differ from untraced %x", i, rr.digests, untraced[i].digests))
		}
	}
	if seed == defaultSeed && !equalDigests(untraced[0].digests, pinned) {
		bad = append(bad, fmt.Sprintf("rep 0: digests %x, pinned %x", untraced[0].digests, pinned))
	}
	return bad
}

func equalDigests(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// provenance describes the host, toolchain and code a result came from.
func provenance(seed uint64, name string) map[string]string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]string{
		"workload":   name,
		"seed":       strconv.FormatUint(seed, 10),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpu":        cpuModel(),
		"commit":     commit,
		"source":     sourceDigest("."),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod under root, so
// a result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); path != root && strings.HasPrefix(base, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeReport stores the run's provenance, every metric it computed,
// its samples and failures, and the traced pass's spans.
func writeReport(dir, name string, seed uint64, traced bool, prov map[string]string, values map[string]float64,
	untraced, tracedReps []repResult, setups []float64, failures []string, spans *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := 0
	if traced {
		mode = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, mode))
	walls := func(reps []repResult) []float64 {
		out := make([]float64, len(reps))
		for i, rr := range reps {
			out[i] = rr.wall.Seconds()
		}
		return out
	}
	report := map[string]any{
		"provenance":     prov,
		"metrics":        values,
		"setup_s":        setups,
		"rep_wall_s":     walls(untraced),
		"traced_wall_s":  walls(tracedReps),
		"failures":       failures,
		"repetitions":    len(untraced),
		"setup_samples":  len(setups),
		"traced_repeats": len(tracedReps),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if spans != nil {
		return spans.write(base + ".spans.jsonl")
	}
	return nil
}
