package lowutil

import "lowutil/internal/costben"

// Default parameter values shared by the facade, the server, and the CLIs.
// The profiler defaults follow the paper's configuration: s = 16 context
// slots per instruction and reference-tree height n = 4.
const (
	// DefaultSlots is the default number of context slots per instruction.
	DefaultSlots = 16
	// DefaultTreeHeight is the default reference-tree height for
	// n-RAC/n-RAB aggregation.
	DefaultTreeHeight = costben.DefaultTreeHeight
	// DefaultTop is the default length of ranked candidate lists in
	// rendered reports.
	DefaultTop = 10
)

// DefaultOptions returns the profiling configuration every tool starts
// from: thin slicing, s = DefaultSlots, n = DefaultTreeHeight, frozen
// analysis, no pruning. Callers mutate the copy (or, preferably, use
// ProfileContext with functional options).
func DefaultOptions() ProfileOptions {
	return ProfileOptions{Slots: DefaultSlots, TreeHeight: DefaultTreeHeight}
}

// A ProfileOption configures one aspect of a ProfileContext run. Options
// are applied in order over DefaultOptions, so later options win.
type ProfileOption func(*ProfileOptions)

// WithSlots sets the number of context slots per instruction (the paper's
// s). Non-positive values keep the default; counts past
// Program.CheckSlots make ProfileContext fail with a *SlotsError.
func WithSlots(s int) ProfileOption {
	return func(o *ProfileOptions) {
		if s > 0 {
			o.Slots = s
		}
	}
}

// WithTraditional switches from thin to traditional dynamic slicing
// (base-pointer dependences included) — mainly for ablations.
func WithTraditional() ProfileOption {
	return func(o *ProfileOptions) { o.Traditional = true }
}

// WithTreeHeight sets the reference-tree height n for n-RAC/n-RAB.
// Non-positive values keep the default.
func WithTreeHeight(n int) ProfileOption {
	return func(o *ProfileOptions) {
		if n > 0 {
			o.TreeHeight = n
		}
	}
}

// WithTrackControl includes the cost of the closest enclosing control
// decision in each value's cost (§3.2's design alternative).
func WithTrackControl() ProfileOption {
	return func(o *ProfileOptions) { o.TrackControl = true }
}

// WithPrune runs the static pre-analysis first and skips Gcost event
// emission for instructions it proves irrelevant to heap value flow.
// Ignored under WithTraditional, where the proof is unsound.
func WithPrune() ProfileOption {
	return func(o *ProfileOptions) { o.StaticPrune = true }
}

// WithWorkers bounds the ranking worker pool (0 = all CPUs).
func WithWorkers(n int) ProfileOption {
	return func(o *ProfileOptions) { o.AnalysisWorkers = n }
}

// WithMaxSteps bounds the profiled execution to n instruction instances;
// exceeding it fails the run with a step-limit error (0 = unlimited).
func WithMaxSteps(n int64) ProfileOption {
	return func(o *ProfileOptions) { o.MaxSteps = n }
}

// applyProfileOptions folds opts over the defaults.
func applyProfileOptions(opts []ProfileOption) ProfileOptions {
	o := DefaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// DefaultAnalysisOptions returns the static-analysis configuration every
// tool starts from: RTA call graph, no object context, Top = DefaultTop.
// Callers mutate the copy (or, preferably, use StaticSliceContext /
// StaticAudit with functional options).
func DefaultAnalysisOptions() AnalysisOptions {
	return AnalysisOptions{Top: DefaultTop}
}

// An AnalysisOption configures one aspect of a static-analysis run —
// StaticSliceContext and StaticAudit share the same option vocabulary.
// Options are applied in order over DefaultAnalysisOptions, so later
// options win.
type AnalysisOption func(*AnalysisOptions)

// SliceOption is the static slice's name for the shared analysis option.
type SliceOption = AnalysisOption

// AuditOption is the static audit's name for the shared analysis option.
type AuditOption = AnalysisOption

// WithMode selects call-graph construction: "cha" or "rta" (default).
func WithMode(mode string) AnalysisOption {
	return func(o *AnalysisOptions) { o.Mode = mode }
}

// WithObjCtx qualifies allocation sites by one level of receiver-object
// context.
func WithObjCtx() AnalysisOption {
	return func(o *AnalysisOptions) { o.ObjCtx = true }
}

// WithTop bounds the candidate list in the rendered report. Non-positive
// values keep the default.
func WithTop(n int) AnalysisOption {
	return func(o *AnalysisOptions) {
		if n > 0 {
			o.Top = n
		}
	}
}

// applyAnalysisOptions folds opts over the defaults.
func applyAnalysisOptions(opts []AnalysisOption) AnalysisOptions {
	o := DefaultAnalysisOptions()
	for _, fn := range opts {
		fn(&o)
	}
	return o
}
