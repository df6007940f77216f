package lowutil

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"lowutil/internal/costben"
)

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

// Kinds of analysis a Request can ask for. Each names one /v2 endpoint and
// one job kind; profile and report share a profiling run, slice and audit
// a call graph.
const (
	KindCompile = "compile"
	KindRun     = "run"
	KindProfile = "profile"
	KindReport  = "report"
	KindSlice   = "slice"
	KindAudit   = "audit"
)

// Options is the one configuration of lowutil's analyses, shared by the
// facade, the /v2 API, the job queue, the client SDK and the CLI. Each
// analysis reads only its own fields, and a zero field selects its default
// (see Resolve).
type Options struct {
	// Slots is the number of context slots per instruction (the paper's
	// s; 0 = DefaultSlots). Counts past the program's table budget fail
	// with a *SlotsError (see Program.CheckSlots).
	Slots int `json:"slots,omitempty"`
	// TreeHeight is the reference-tree height n for n-RAC/n-RAB
	// (0 = DefaultTreeHeight, the paper's choice).
	TreeHeight int `json:"tree_height,omitempty"`
	// Traditional switches from thin to traditional dynamic slicing
	// (base-pointer dependences included) — mainly for ablations.
	Traditional bool `json:"traditional,omitempty"`
	// TrackControl includes the cost of the closest enclosing control
	// decision in each value's cost (§3.2's "considering vs ignoring
	// control decision making" alternative).
	TrackControl bool `json:"track_control,omitempty"`
	// Mode selects static call-graph construction: "cha" (class
	// hierarchy) or "rta" (rapid type analysis, the default).
	Mode string `json:"mode,omitempty"`
	// ObjCtx qualifies static allocation sites by one level of
	// receiver-object context — the static mirror of the profiler's
	// receiver-object-sensitive slots.
	ObjCtx bool `json:"objctx,omitempty"`
	// Top bounds ranked lists in rendered reports (0 = DefaultTop).
	Top int `json:"top,omitempty"`
	// MaxSteps bounds a profiled execution to this many instruction
	// instances (0 = unlimited); exceeding it fails the run. It is set
	// only through the facade, never over the wire.
	MaxSteps int64 `json:"-"`
}

// Resolve returns the options an analysis of the given kind reads, each
// unset one at its default and every other field zeroed, so two option
// sets that resolve equal ask for the same analysis. Profile and report
// read the profiling fields and Top; slice and audit read Mode, ObjCtx and
// Top; compile and run read none. An unknown kind, or an unknown
// call-graph mode for slice or audit, fails with an *OptionError; kinds
// that build no call graph ignore the mode.
func (o Options) Resolve(kind string) (Options, error) {
	var r Options
	switch kind {
	case KindCompile, KindRun:
		return r, nil
	case KindProfile, KindReport:
		r.Slots, r.TreeHeight = o.Slots, o.TreeHeight
		r.Traditional, r.TrackControl = o.Traditional, o.TrackControl
		r.MaxSteps = o.MaxSteps
		if r.Slots <= 0 {
			r.Slots = DefaultSlots
		}
		if r.TreeHeight <= 0 {
			r.TreeHeight = DefaultTreeHeight
		}
	case KindSlice, KindAudit:
		r.Mode, r.ObjCtx = o.Mode, o.ObjCtx
		switch r.Mode {
		case "":
			r.Mode = "rta"
		case "rta", "cha":
		default:
			return r, &OptionError{Field: "mode", Msg: fmt.Sprintf("unknown call-graph mode %q (want cha or rta)", o.Mode)}
		}
	default:
		return r, &OptionError{Field: "kind", Msg: fmt.Sprintf("unknown kind %q", kind)}
	}
	r.Top = o.Top
	if r.Top <= 0 {
		r.Top = DefaultTop
	}
	return r, nil
}

// An Option configures one aspect of an analysis. Options apply in order,
// so later options win; fields an analysis does not read are ignored.
type Option func(*Options)

// resolve folds opts into Options and resolves them for kind.
func resolve(kind string, opts []Option) (Options, error) {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o.Resolve(kind)
}

// WithOptions replaces the whole configuration with o; options after it
// still apply. It is how a configuration decoded from a request or bound
// to flags reaches the facade.
func WithOptions(o Options) Option {
	return func(dst *Options) { *dst = o }
}

// WithSlots sets the number of context slots per instruction (the paper's
// s). Non-positive values select the default; counts past
// Program.CheckSlots make ProfileContext fail with a *SlotsError.
func WithSlots(s int) Option {
	return func(o *Options) { o.Slots = s }
}

// WithTraditional switches from thin to traditional dynamic slicing
// (base-pointer dependences included) — mainly for ablations.
func WithTraditional() Option {
	return func(o *Options) { o.Traditional = true }
}

// WithTreeHeight sets the reference-tree height n for n-RAC/n-RAB.
// Non-positive values select the default.
func WithTreeHeight(n int) Option {
	return func(o *Options) { o.TreeHeight = n }
}

// WithTrackControl includes the cost of the closest enclosing control
// decision in each value's cost (§3.2's design alternative).
func WithTrackControl() Option {
	return func(o *Options) { o.TrackControl = true }
}

// WithMaxSteps bounds the profiled execution to n instruction instances;
// exceeding it fails the run with a step-limit error (0 = unlimited).
func WithMaxSteps(n int64) Option {
	return func(o *Options) { o.MaxSteps = n }
}

// WithMode selects call-graph construction: "cha" or "rta" (default).
func WithMode(mode string) Option {
	return func(o *Options) { o.Mode = mode }
}

// WithObjCtx qualifies allocation sites by one level of receiver-object
// context.
func WithObjCtx() Option {
	return func(o *Options) { o.ObjCtx = true }
}

// WithTop bounds the candidate list in the rendered report. Non-positive
// values select the default.
func WithTop(n int) Option {
	return func(o *Options) { o.Top = n }
}

// Request is one unit of analysis work as every surface carries it: a
// /v2 job, a client SDK batch entry, and (minus the source, which a
// session stands for) every synchronous /v2 analysis. Zero options select
// the defaults, exactly as in the facade.
type Request struct {
	// Kind is one of the Kind constants.
	Kind string `json:"kind"`
	// Source is the MJ program; MainClass and MainMethod name its entry
	// point (empty = Main.main).
	Source     string `json:"source"`
	MainClass  string `json:"main_class,omitempty"`
	MainMethod string `json:"main_method,omitempty"`
	Options
}

// Validate rejects a request no analysis can run — an unknown kind, an
// empty source, or a slice or audit with an unknown call-graph mode — with
// an *OptionError. A slot count too large for the program is found only
// once it compiles (see Program.CheckSlots).
func (r Request) Validate() error {
	if _, err := r.Options.Resolve(r.Kind); err != nil {
		return err
	}
	if r.Source == "" {
		return &OptionError{Field: "source", Msg: fmt.Sprintf("%s request has no source", r.Kind)}
	}
	return nil
}

// Hash is the canonical content address of the request. Two requests with
// equal hashes ask for identical work, so the job queue stores one result
// for both and derives job IDs from it. Every semantically meaningful
// field participates; encoding is length-prefix-free via NUL separators
// (no field may contain NUL — MJ source never does).
func (r Request) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%d\x00%d\x00%t\x00%t\x00%s\x00%t\x00%d",
		r.Kind, r.Source, r.MainClass, r.MainMethod,
		r.Slots, r.TreeHeight, r.Traditional, r.TrackControl,
		r.Mode, r.ObjCtx, r.Top)
	return hex.EncodeToString(h.Sum(nil))
}
