//go:build !linux

package report_test

import "time"

var epoch = time.Now()

// threadCPU falls back to the monotonic wall clock where the thread's
// CPU clock is not read.
func threadCPU() time.Duration { return time.Since(epoch) }
