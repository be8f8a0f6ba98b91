package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Linux's CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
const (
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

// cpuTime returns the CPU time all of the process's threads have used:
// the clock the benchmark times work with, except a library op or a
// loading INSERT (see threadCPUTime). On a shared virtual machine
// the wall clock also counts the time the hypervisor runs other guests on
// this machine's CPUs (steal: 20–30% of a run's CPU time where the
// reference figures were taken), which varies from run to run.
func cpuTime() time.Duration { return clock(clockProcessCPU) }

// threadCPUTime returns the CPU time the calling OS thread has used: the
// clock a library op or a loading INSERT is timed with, by a goroutine
// locked to its thread (runtime.LockOSThread). The engine's default path runs on the calling
// goroutine, so this is the op's own work, the GC assists and sweeping
// its allocations pay, and nothing else: not the runtime's background GC
// workers, which run on other threads and land on whichever op happens to
// be running when a cycle starts.
func threadCPUTime() time.Duration { return clock(clockThreadCPU) }

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the bytes the process has allocated on the heap so
// far.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB,
// or 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// logf prints a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// gcEvery is how many timed operations run between two heap collections
// the benchmark forces, outside the timed windows. Collecting now and then
// keeps GC cycles from landing on arbitrary operations' times; collecting
// before every operation would time every operation on a cold heap.
const gcEvery = 16

// collector forces a collection before every gcEvery-th operation and
// returns the CPU time that took.
type collector struct{ n int }

func (c *collector) maybeCollect() time.Duration {
	c.n++
	if c.n%gcEvery != 1 {
		return 0
	}
	c0 := cpuTime()
	runtime.GC()
	return cpuTime() - c0
}
