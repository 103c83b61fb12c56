package obs

import "context"

// traceKey is the private context key the trace rides under.
type traceKey struct{}

// NewContext returns ctx carrying t. The pipeline's ctx-taking stages
// (core.Run, gmon.ReadFiles, callgraph.BuildCtx,
// propagate.RunCtx) pick it up with FromContext, so enabling
// observability is one line in a CLI and zero signature changes in the
// library. A nil t returns ctx unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil — the disabled
// trace every obs method accepts — when none is attached.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
