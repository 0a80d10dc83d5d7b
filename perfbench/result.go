package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the metrics an untraced run prints, with their units, in
// BENCHMARK.json's order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"work_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer names the metrics a traced run prints, with their units. Every
// workload prints all of them; a layer the workload does not exercise
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"survey.shard_ns", "ns"},
	{"simnet.merge_ns", "ns"},
	{"zmapper.scan_ns", "ns"},
	{"zmapper.merge_ns", "ns"},
	{"netmodel.respond_ns_per_call", "ns"},
	{"netmodel.respond_calls", "count"},
	{"sim.self_ns", "ns"},
	{"simnet.shard_skew", "ratio"},
	{"wire.decode_ns_per_pkt", "ns"},
	{"wire.encode_ns_per_pkt", "ns"},
	{"simnet.probes_sent", "count"},
	{"simnet.deliveries", "count"},
	{"simnet.packets_received", "count"},
	{"survey.records", "count"},
	{"survey.response_rate", "ratio"},
	{"survey.probes_per_s", "1/s"},
	{"zmapper.probes_per_s", "1/s"},
	{"core.match_ns", "ns"},
	{"core.records_per_s", "1/s"},
	{"core.table1_ns", "ns"},
	{"core.quantiles_ns", "ns"},
	{"core.matrix_ns", "ns"},
	{"core.match_alloc_mb", "MB"},
	{"core.delayed_recovered", "count"},
	{"survey.read_ns_per_record", "ns"},
	{"advisor.observe_ns_per_record", "ns"},
	{"advisor.publish_ns_p50", "ns"},
	{"advisor.publish_ns_max", "ns"},
	{"advisor.publishes", "count"},
	{"advisor.samples_per_record", "ratio"},
	{"ingest.records_per_s", "1/s"},
	{"go.gc_pause_p99_us", "us"},
	{"advisor.lookup_ns", "ns"},
	{"advisor.handler_ns", "ns"},
	{"advisor.handler_allocs_per_req", "count"},
	{"net.residual_us", "us"},
	{"advisor.recover_ns", "ns"},
	{"serve.lookup_p50_us", "us"},
	{"serve.lookup_p99_us", "us"},
	{"serve.max_rps", "1/s"},
	{"serve.generator_lag_p99_us", "us"},
	{"serve.status_2xx", "count"},
	{"serve.status_4xx", "count"},
	{"serve.status_5xx", "count"},
	{"serve.status_503", "count"},
	{"serve.conn_errors", "count"},
	{"serve.wrong", "count"},
	{"error_frac", "ratio"},
	{"pipeline.accounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// metricSet builds the result metrics for names from values; a name with
// no value reads 0.
func metricSet(names []struct{ name, unit string }, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n.name] = metric{Value: values[n.name], Unit: n.unit}
	}
	return out
}

// provenance records where and on what a run was measured.
type provenance struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Commit     string         `json:"commit"`
	SourceHash string         `json:"source_sha256"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
}

// newProvenance describes this run. The checkout the benchmark runs in may
// not be a git repository, so the source tree's digest identifies the code
// when no commit is available.
func newProvenance(root, workload string, seed uint64, seconds int, traced bool) provenance {
	p := provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	p.SourceHash, _ = sourceHash(root)
	return p
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// sourceHash digests the Go sources and module files under root, skipping
// build output and version-control state.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == buildDirName) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\n", rel)
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fileDigest returns the SHA-256 of a file's contents.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// peakRSSMB returns VmHWM of /proc/<pid>/status in MiB (0 if unreadable).
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// readJSON decodes path into v.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// jsonLine encodes the result as one line.
func jsonLine(r result) (string, error) {
	b, err := json.Marshal(r)
	return string(b), err
}
