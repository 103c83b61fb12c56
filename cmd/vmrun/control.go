package main

import (
	"repro/internal/gmon"
	"repro/internal/mon"
	"repro/internal/obs"
	"repro/internal/vm"
)

// controller wraps a collector and applies a cycle-threshold schedule at
// every clock tick, standing in for a human at the kernel-profiling
// control tool.
type controller struct {
	inner   *mon.Collector
	machine *vm.Machine

	enableAt, disableAt, resetAt, dumpAt int64
	dumpPath                             string
	version                              int // gmon format of the mid-run dump
	tr                                   *obs.Trace

	enabled, disabled, reset, dumped bool
	err                              error
}

func (c *controller) Mcount(selfpc, frompc int64) int64 {
	return c.inner.Mcount(selfpc, frompc)
}

func (c *controller) Control(op int) { c.inner.Control(op) }

func (c *controller) Tick(pc int64) {
	cycles := c.machine.Cycles()
	if c.enableAt > 0 && !c.enabled && cycles >= c.enableAt {
		c.enabled = true
		c.inner.Enable()
	}
	if c.resetAt > 0 && !c.reset && cycles >= c.resetAt {
		c.reset = true
		c.inner.Reset()
	}
	if c.dumpAt > 0 && !c.dumped && cycles >= c.dumpAt {
		c.dumped = true
		span := c.tr.Span("write.profile.mid")
		err := gmon.WriteFileVersion(c.dumpPath, c.inner.Snapshot(), c.version)
		span.End()
		if err != nil && c.err == nil {
			c.err = err
		}
	}
	if c.disableAt > 0 && !c.disabled && cycles >= c.disableAt {
		c.disabled = true
		c.inner.Disable()
	}
	c.inner.Tick(pc)
}
