//go:build linux

// Package cputime reads the calling thread's CPU clock, for timing
// gates that must not charge a test for the spells in which other
// processes held the CPU, and the heap bytes a run allocates.
package cputime

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTime = 3

// Thread returns the CPU time the calling thread has used. Timing by
// it leaves out the spells in which other processes held the CPU; the
// caller locks its goroutine to the thread around the span it times.
func Thread() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
