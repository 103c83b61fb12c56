//go:build !linux

// Package cputime reads the calling thread's CPU clock, for timing
// gates that must not charge a test for the spells in which other
// processes held the CPU, and the heap bytes a run allocates.
package cputime

import "time"

var epoch = time.Now()

// Thread falls back to the monotonic wall clock where the thread's
// CPU clock is not read.
func Thread() time.Duration { return time.Since(epoch) }
