package main

// Everything that reads /proc or calls Linux directly. The benchmark
// runs on Linux only.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// userHZ is the unit of utime/stime in /proc/<pid>/stat. It is 100 on
// every Linux ABI Go supports.
const userHZ = 100

// procCPU returns the user+system CPU time a process (all threads)
// has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// procPeakRSS returns VmHWM, the process's peak resident set, in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

func kernelVersion() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// minimizeTimerSlack drops the timer slack of every thread of this
// process from the default 50 µs to the minimum, so that sleepUntil
// wakes within a few µs of its instant on whichever thread the
// goroutine runs. Threads created later inherit it. Best effort: with
// the default slack the generator is merely later, and gen.late_ratio
// and the latencies, which run from the due time, show it.
func minimizeTimerSlack() {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		os.WriteFile("/proc/"+t.Name()+"/timerslack_ns", []byte("1"), 0)
	}
}

// sleepUntil blocks the calling goroutine until t without spinning.
// Go's own sub-millisecond sleeps wake on the netpoller's millisecond
// clock, and a spinning generator would take a core from the server
// on a 2-core box, so this sleeps in nanosleep. The goroutine is not
// pinned to its thread: a pinned goroutine pays two thread hand-offs
// for every network wait.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) loops
	}
}

// madvise advice values Go's syscall package does not name.
const (
	madvHugepage = 14
	madvCollapse = 25 // Linux 6.1
)

// hugePages asks the kernel to back this process's writable anonymous
// memory with 2 MiB pages, now, and returns how many MiB it did. A
// library child calls it between set-up and its first measured op.
//
// Why: in this VM the cost of a TLB miss depends on which physical
// pages a process was given (a nested page walk goes through the
// host's tables too), so a workload that misses the TLB on every op
// runs at a speed fixed at process start: lib-read-big-flat, 530 MiB
// touched at random through 4 KiB pages, ran anywhere from 5.5 to 8.4
// M ops/s on one seed, and consecutive processes tend to get the same
// pages back, so a run's rounds do not average it out. With 2 MiB
// pages the table fits the TLB and the speeds of two processes are
// within 5%. The host has transparent huge pages on madvise, and the
// Go runtime does not ask, so the harness does. Best effort: where the
// kernel cannot (before 6.1, or no free 2 MiB block) the pages stay
// small and the figure returned says so.
func hugePages() (mib float64) {
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		return 0
	}
	defer f.Close()
	const huge = 2 << 20
	resident := make([]byte, huge/4096) // mincore: one byte per 4 KiB page
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// address perms offset dev inode: five fields means no path,
		// an anonymous mapping.
		fs := strings.Fields(sc.Text())
		if len(fs) != 5 || fs[1] != "rw-p" {
			continue
		}
		var lo, hi uintptr
		if _, err := fmt.Sscanf(fs[0], "%x-%x", &lo, &hi); err != nil {
			continue
		}
		lo = (lo + huge - 1) &^ (huge - 1)
		// Advise first: what the heap grows into later is then
		// eligible at fault time as well.
		if hi &^= huge - 1; hi > lo {
			syscall.Syscall(syscall.SYS_MADVISE, lo, hi-lo, madvHugepage)
		}
		for ; lo < hi; lo += huge {
			// Only blocks already at least half resident, so that the
			// process's RSS grows by little.
			if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, lo, huge, uintptr(unsafe.Pointer(&resident[0]))); errno != 0 {
				continue
			}
			n := 0
			for _, b := range resident {
				n += int(b & 1)
			}
			if n < len(resident)/2 {
				continue
			}
			if _, _, errno := syscall.Syscall(syscall.SYS_MADVISE, lo, huge, madvCollapse); errno == 0 {
				mib += huge >> 20
			}
		}
	}
	return mib
}
