package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The benchmark reads the CPU times it reports from /proc: the aggregate
// line of /proc/stat for the share of CPU time the hypervisor stole during
// a run (recorded as provenance, never used to filter samples), and each
// thread's schedstat for the CPU time a process under test has run.

// cpuTimes is the aggregate CPU line of /proc/stat, in clock ticks.
type cpuTimes struct {
	steal, total uint64
}

// readCPU reads the aggregate CPU times (zero if /proc/stat is unreadable,
// which makes every steal share 0).
func readCPU() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		// guest and guest_nice (fields 9 and 10) are already included in
		// user and nice.
		if i < 8 {
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// stealShare returns the share of CPU time stolen between two reads.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// taskCPU returns the CPU time the live threads of process pid have run,
// from /proc/<pid>/task/*/schedstat, in nanoseconds. The scheduler charges
// a task only for time it actually ran, so time stolen by the hypervisor is
// not in it: the work metrics built on it hold still while the host's other
// tenants come and go. A process that is gone reads 0.
func taskCPU(pid int) time.Duration {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var sum int64
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			n, _ := strconv.ParseInt(f[0], 10, 64)
			sum += n
		}
	}
	return time.Duration(sum)
}
