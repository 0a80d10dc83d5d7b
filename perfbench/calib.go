package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host this benchmark runs on shares its cores with other tenants,
// and how much CPU time a fixed piece of work takes moves with their load:
// on a 2-vCPU host, a pipeline worker's CPU time went from 5.4 s to 11 s
// between one minute and the next and stayed there. Every CPU time the
// benchmark gates is therefore measured against a reference: a fixed loop
// of the benchmark's own, timed on every CPU between the pieces of
// measured work. Its CPU time tells how fast the host runs, and the run's
// CPU times are scaled to the speed at which the loop takes refNominal.
// The loop uses none of the program's code, so a change to the program
// moves the scaled times by the same share as the raw ones.

// refNominal is the reference loop's CPU time at nominal host speed, the
// speed the gated CPU times are expressed at.
const refNominal = 100 * time.Millisecond

// refIters is the number of steps of one reference loop.
const refIters = 50_000_000

// refTables are the reference loops' tables, one per thread, kept from
// run to run so that only the first run pays for faulting them in.
var refTables [maxConns][]uint64

// refLoop runs the reference loop once on the calling goroutine's locked
// thread and returns the CPU time the thread spent on it: a linear
// congruential generator scattering adds over a 512 KiB table, so that
// both the core and its caches are exercised.
func refLoop(slot int) time.Duration {
	if refTables[slot] == nil {
		refTables[slot] = make([]uint64, 1<<16)
	}
	table := refTables[slot]
	t0 := threadCPU()
	x := uint64(slot) + 1
	for i := 0; i < refIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		table[x>>48] += x
	}
	return threadCPU() - t0
}

// runRef runs the reference loop on maxConns threads at once, one per CPU
// the load may use, and returns their mean CPU time.
func runRef() time.Duration {
	var wg sync.WaitGroup
	var cpu [maxConns]time.Duration
	for i := range cpu {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			cpu[i] = refLoop(i)
		}(i)
	}
	wg.Wait()
	var sum time.Duration
	for _, c := range cpu {
		sum += c
	}
	return sum / maxConns
}

// threadCPU returns the CPU time the calling thread has run, from its
// schedstat (see taskCPU), or 0 if it is unreadable.
func threadCPU() time.Duration {
	b, err := os.ReadFile("/proc/thread-self/schedstat")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	n, _ := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(n)
}

// refClock collects a run's readings of the reference loop.
type refClock struct {
	runs []float64 // every reading, in seconds
}

// newRefClock warms the loop up, since its first run faults its tables
// in, and takes the first reading.
func newRefClock() (*refClock, error) {
	runRef()
	c := &refClock{}
	if c.read(); c.runs[0] <= 0 {
		return nil, fmt.Errorf("the reference loop read no CPU time from /proc/thread-self/schedstat")
	}
	return c, nil
}

// read runs the loop once more and records its CPU time.
func (c *refClock) read() { c.runs = append(c.runs, runRef().Seconds()) }

// atRefSpeed scales the median of CPU times measured in a run to nominal
// host speed, by the median of the run's reference loop readings.
func atRefSpeed(cpu, refs []float64) float64 {
	return median(cpu) * refNominal.Seconds() / median(refs)
}
