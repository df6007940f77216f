// Package lowutil is a from-scratch reproduction of "Finding Low-Utility
// Data Structures" (Xu, Mitchell, Arnold, Rountev, Schonberg, Sevitsky —
// PLDI 2010) as a Go library.
//
// The paper finds runtime bloat by profiling the cost of producing heap
// values (how many instructions were transitively required, computed with
// *abstract dynamic thin slicing*) against the benefit of consuming them,
// and flags data structures whose relative cost far exceeds their relative
// benefit. The original system instruments the IBM J9 JVM; this library
// substitutes a complete stack built from scratch:
//
//   - MJ, a mini-Java source language with a full compiler front end
//   - a three-address-code VM (the instrumentation substrate)
//   - the cost-benefit profiler (Figure 4 of the paper), Gcost, and the
//     relative cost-benefit analysis (RAC/RAB, n-RAC/n-RAB)
//   - the client analyses: null-propagation, typestate history, extended
//     copy profiling, dead-value measurement, predicate and rewrite
//     detectors, collection ranking
//
// This package is the high-level facade. Typical use:
//
//	prog, err := lowutil.Compile(src)
//	profile, err := prog.ProfileContext(ctx, lowutil.WithSlots(16))
//	fmt.Println(profile.Report(10))
//
// `lowutil serve` (internal/server) exposes this facade as a concurrent HTTP
// JSON API with session and profile caching.
//
// The experiment harnesses behind Table 1 and the six case studies live in
// internal/evalharness and internal/casestudies and are driven by
// `lowutil experiments`.
package lowutil

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"lowutil/internal/clients"
	"lowutil/internal/costben"
	"lowutil/internal/deadness"
	"lowutil/internal/depgraph"
	"lowutil/internal/escape"
	"lowutil/internal/interp"
	"lowutil/internal/interproc"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/profiler"
	"lowutil/internal/ssa"
	"lowutil/internal/staticanalysis"
)

// Program is a compiled MJ program.
type Program struct {
	prog *ir.Program
}

// Compile compiles MJ source with entry point Main.main. On failure the
// error chain contains a *CompileError carrying the source position.
func Compile(src string) (*Program, error) {
	p, err := mjc.Compile(src)
	if err != nil {
		return nil, wrapCompileErr(err)
	}
	return &Program{prog: p}, nil
}

// CompileAt compiles MJ source with an explicit entry point. On failure the
// error chain contains a *CompileError carrying the source position.
func CompileAt(src, mainClass, mainMethod string) (*Program, error) {
	p, err := mjc.CompileAt(src, mainClass, mainMethod)
	if err != nil {
		return nil, wrapCompileErr(err)
	}
	return &Program{prog: p}, nil
}

// Disassemble renders the program's three-address code.
func (p *Program) Disassemble() string { return p.prog.Disassemble() }

// NumInstructions returns the static instruction count (domain I).
func (p *Program) NumInstructions() int { return p.prog.NumInstrs() }

// CheckSlots reports whether ProfileContext accepts s context slots for p:
// profiling sizes dense tables at one entry per (instruction, slot) pair
// under a fixed budget, and a count past it fails with a *SlotsError.
// Non-positive s selects the default and always passes.
func (p *Program) CheckSlots(s int) error {
	if limit := profiler.MaxSlots(p.prog.NumInstrs()); s > limit {
		return &SlotsError{Slots: s, Max: limit}
	}
	return nil
}

// VetFinding is one diagnostic from the static vet suite.
type VetFinding struct {
	// Kind is the finding class: "dead-store", "write-only-field",
	// "unused-alloc", "unreachable-code", "uninit-read",
	// "callee-clobbered-store", "confined-alloc-in-loop" or "copy-chain".
	Kind string
	// Class, Method and PC anchor the finding ("" / -1 for program-level
	// field findings); Line is the MJ source line when known.
	Class, Method string
	PC, Line      int
	// Message is the rendered diagnostic.
	Message string
}

// Vet is VetContext under the background context, which never cancels.
func (p *Program) Vet() []VetFinding {
	out, err := p.VetContext(context.Background())
	if err != nil {
		panic(err) // unreachable: the background context never cancels
	}
	return out
}

// VetContext runs the static diagnostics suite — no execution involved —
// and returns the findings sorted by (class, method, pc) so output is
// stable across runs. Zero findings means the program is clean under all
// its checks. Vet runs sparse analyses over SSA form, with transitive
// dead-store chains and SCCP-proven unreachable code. The analysis
// fixpoints and the per-method loop poll ctx, so deadlines and
// cancellation abort it with an ErrCanceled-wrapped error.
func (p *Program) VetContext(ctx context.Context) ([]VetFinding, error) {
	fs, err := staticanalysis.VetContext(ctx, p.prog)
	if err != nil {
		return nil, wrapRunErr("vet", err)
	}
	out := make([]VetFinding, 0, len(fs))
	for _, f := range fs {
		out = append(out, VetFinding{
			Kind:    f.Kind.String(),
			Class:   f.Class,
			Method:  f.Method,
			PC:      f.PC,
			Line:    f.Line,
			Message: f.String(),
		})
	}
	return out, nil
}

// SSADumpContext renders the SSA-form analysis of one method
// ("Class.method"), or of every method when method is empty: blocks with
// phis and SSA names, SCCP verdicts (constants, dead blocks),
// value-numbering redundancies, and the loop forest with inferred trip
// counts and frequency weights. It polls ctx before each method and after
// the last, so deadlines and cancellation abort it with an
// ErrCanceled-wrapped error; an unknown method fails with a plain error.
func (p *Program) SSADumpContext(ctx context.Context, method string) (string, error) {
	var b strings.Builder
	found := false
	for _, c := range p.prog.Classes {
		for _, m := range c.Methods {
			if method != "" && m.QualifiedName() != method {
				continue
			}
			if err := ctx.Err(); err != nil {
				return "", wrapRunErr("ssa", err)
			}
			if found {
				b.WriteByte('\n')
			}
			ssa.AnalyzeMethod(m).Dump(&b)
			found = true
		}
	}
	if err := ctx.Err(); err != nil {
		return "", wrapRunErr("ssa", err)
	}
	if !found {
		return "", fmt.Errorf("lowutil: no method %q", method)
	}
	return b.String(), nil
}

// StaticSliceContext builds the whole-program static thin slice — call graph,
// points-to relation, and the static over-approximation of Gcost — and
// renders its report: graph sizes, the statically write-only stored
// locations, and the top cost/benefit-bounded candidates. No execution is
// involved, and every dependence, reference, and ownership edge any run
// could produce is contained in the static edge sets (the soundness
// invariant cross-validated by the differential harness). Output is
// byte-stable across runs. Fixpoint loops poll ctx, so deadlines and
// cancellation abort the analysis promptly with an ErrCanceled-wrapped
// error. It reads Mode, ObjCtx and Top (defaults: rta, off, DefaultTop);
// an unknown mode fails with an *OptionError.
func (p *Program) StaticSliceContext(ctx context.Context, opts ...Option) (string, error) {
	o, err := resolve(KindSlice, opts)
	if err != nil {
		return "", err
	}
	an, err := interproc.AnalyzeContext(ctx, p.prog, callGraphConfig(o))
	if err != nil {
		return "", wrapRunErr("slice", err)
	}
	return an.Report(o.Top), nil
}

// callGraphConfig maps resolved slice or audit options onto the
// interprocedural configuration.
func callGraphConfig(o Options) interproc.Config {
	cfg := interproc.Config{Mode: interproc.RTA, ObjCtx: o.ObjCtx}
	if o.Mode == "cha" {
		cfg.Mode = interproc.CHA
	}
	return cfg
}

// StaticAudit runs the fully static low-utility audit — the SSA-based
// interprocedural escape and lifetime analysis over the points-to heap
// abstraction — and renders its report: the escape-state and lifetime
// histograms, copy-chain and loop-confinement shape counts, and the
// allocation sites ranked by the frequency-weighted static cost/benefit
// bounds (the static analogue of the dynamic Gcost ranking). No execution
// is involved; every dynamically observable escape is covered by the
// static classification (the dynamic ⊆ static invariant cross-validated by
// the soundness harness), and output is byte-stable across runs. The
// analysis fixpoints poll ctx, so deadlines and cancellation abort promptly
// with an ErrCanceled-wrapped error. It reads the same options as
// StaticSliceContext.
func (p *Program) StaticAudit(ctx context.Context, opts ...Option) (string, error) {
	o, err := resolve(KindAudit, opts)
	if err != nil {
		return "", err
	}
	an, err := interproc.AnalyzeHeapContext(ctx, p.prog, callGraphConfig(o))
	if err != nil {
		return "", wrapRunErr("audit", err)
	}
	r, err := escape.AnalyzeContext(ctx, an)
	if err != nil {
		return "", wrapRunErr("audit", err)
	}
	return r.Report(o.Top), nil
}

// RunResult summarizes an uninstrumented execution.
type RunResult struct {
	// Output holds the values printed by the program.
	Output []int64
	// Steps is the number of executed instruction instances.
	Steps int64
	// Allocs is the number of allocated objects and arrays.
	Allocs int64
	// NativeWork is synthetic native cost (database round-trips).
	NativeWork int64
}

// RunContext executes the program without instrumentation under ctx; the
// interpreter main loop polls the context periodically, so cancellation
// stops the run promptly with an ErrCanceled-wrapped error.
func (p *Program) RunContext(ctx context.Context) (*RunResult, error) {
	m := interp.New(p.prog)
	m.Ctx = ctx
	if err := m.Run(); err != nil {
		return nil, wrapRunErr("run", err)
	}
	return &RunResult{Output: m.Output, Steps: m.Steps, Allocs: m.Allocs, NativeWork: m.NativeWork}, nil
}

// ProfileContext runs the program under the cost-benefit profiler:
//
//	profile, err := prog.ProfileContext(ctx, lowutil.WithSlots(16))
//
// It reads Slots, TreeHeight, Traditional, TrackControl and MaxSteps
// (defaults: s = DefaultSlots, n = DefaultTreeHeight, thin slicing, no
// step bound). The interpreter main loop polls ctx, so a
// canceled or expired context aborts the run promptly with an error that
// satisfies errors.Is(err, ErrCanceled) — and errors.Is(err,
// context.Canceled) or context.DeadlineExceeded as appropriate.
func (p *Program) ProfileContext(ctx context.Context, opts ...Option) (*Profile, error) {
	o, err := resolve(KindProfile, opts)
	if err != nil {
		return nil, err
	}
	if err := p.CheckSlots(o.Slots); err != nil {
		return nil, err
	}
	prof := profiler.New(p.prog, profiler.Options{
		Slots:        o.Slots,
		Traditional:  o.Traditional,
		TrackControl: o.TrackControl,
		TrackCR:      true,
	})
	m := interp.New(p.prog)
	m.Tracer = prof
	m.Ctx = ctx
	m.MaxSteps = o.MaxSteps
	if err := m.Run(); err != nil {
		return nil, wrapRunErr("run", err)
	}
	return &Profile{
		prog:   p.prog,
		prof:   prof,
		steps:  m.Steps,
		an:     costben.NewAnalysis(prof.G),
		height: o.TreeHeight,
	}, nil
}

// Profile is a completed cost-benefit profiling run (or one reloaded from
// storage with LoadProfile).
type Profile struct {
	prog   *ir.Program
	prof   *profiler.Profiler
	steps  int64
	an     *costben.Analysis
	height int
}

// Finding is one ranked low-utility data structure. Its JSON form is the
// one the profiling service's /v2/profile response carries.
type Finding struct {
	// Site is the allocation-site index; Where locates it in the source
	// ("Class.method:pc", with the source line when available).
	Site  int    `json:"site"`
	Where string `json:"where"`
	// Cost and Benefit are the aggregated n-RAC and n-RAB; Rate is their
	// ratio. Fields whose values reach program output or control decisions
	// contribute a large finite benefit weight.
	Cost    float64 `json:"cost"`
	Benefit float64 `json:"benefit"`
	Rate    float64 `json:"rate"`
	// ReachesConsumer marks structures with at least one field whose values
	// reach program output or control decisions.
	ReachesConsumer bool `json:"reaches_consumer"`
	// Allocs is how many objects the site allocated.
	Allocs int64 `json:"allocs"`
}

func (f Finding) String() string {
	marker := ""
	if f.ReachesConsumer {
		marker = " (reaches output/control)"
	}
	return fmt.Sprintf("site %d (%s): cost=%.1f benefit=%.1f rate=%.4f allocs=%d%s",
		f.Site, f.Where, f.Cost, f.Benefit, f.Rate, f.Allocs, marker)
}

// TopStructures returns the k most suspicious data structures; k < 0
// lists none.
func (pr *Profile) TopStructures(k int) []Finding {
	return findings(pr.an.RankBySite(pr.height), k)
}

// findings converts the first k site reports of a ranking to Findings.
func findings(ranked []*costben.SiteReport, k int) []Finding {
	k = clampTop(k, len(ranked))
	out := make([]Finding, 0, k)
	for _, r := range ranked[:k] {
		out = append(out, Finding{
			Site:            r.Site.AllocSite,
			Where:           siteWhere(r.Site),
			Cost:            r.NRAC,
			Benefit:         r.NRAB,
			Rate:            r.Rate,
			ReachesConsumer: r.Consumed,
			Allocs:          r.AllocFreq,
		})
	}
	return out
}

// clampTop bounds a caller's top-k to [0, n].
func clampTop(k, n int) int { return max(0, min(k, n)) }

func siteWhere(site *ir.Instr) string {
	w := fmt.Sprintf("%s:%d", site.Method.QualifiedName(), site.PC)
	if site.Line > 0 {
		w += fmt.Sprintf(" line %d", site.Line)
	}
	if site.Op == ir.OpNew {
		w += " new " + site.Class.Name
	}
	return w
}

// Report renders the top k findings plus summary statistics; k < 0 lists
// no findings.
func (pr *Profile) Report(k int) string {
	var sb strings.Builder
	gs := pr.GraphStats()
	ds := pr.Deadness()
	fmt.Fprintf(&sb, "Gcost: %d nodes, %d dep edges, %d ref edges (~%d KB), avg CR %.3f\n",
		gs.Nodes, gs.DepEdges, gs.RefEdges, gs.Bytes/1024, gs.AvgCR)
	fmt.Fprintf(&sb, "instances: %d; IPD %.1f%%  IPP %.1f%%  NLD %.1f%%\n",
		ds.Instances, ds.IPD, ds.IPP, ds.NLD)
	fmt.Fprintf(&sb, "top low-utility structures (n=%d):\n", pr.height)
	for i, f := range pr.TopStructures(k) {
		fmt.Fprintf(&sb, "%3d. %s\n", i+1, f)
	}
	if checks := pr.StaticCrossCheck(); len(checks) > 0 {
		sb.WriteString("static cross-check (zero-benefit fields):\n")
		for _, c := range checks {
			fmt.Fprintf(&sb, "     %s\n", c)
		}
	}
	return sb.String()
}

// FieldCrossCheck compares the static write-only verdict for one instance
// field with the dynamic benefit the profiled run observed for it.
type FieldCrossCheck struct {
	// Field is the qualified field name.
	Field string
	// StaticWriteOnly reports that no load of the field exists anywhere in
	// the program text.
	StaticWriteOnly bool
	// Stores and Loads count the run's dynamic accesses across all
	// instances of the field.
	Stores, Loads int64
}

func (c FieldCrossCheck) String() string {
	verdict := "statically loaded, dynamically dead only"
	if c.StaticWriteOnly {
		verdict = "static write-only, dynamics agree"
	}
	return fmt.Sprintf("%s: %d stores, %d loads — %s", c.Field, c.Stores, c.Loads, verdict)
}

// StaticCrossCheck lists every instance field that yielded zero dynamic
// benefit (stored during the run, never loaded), split by whether the static
// analysis already proves it write-only. A statically write-only field can
// never be loaded at run time, so those rows must agree by construction;
// the remaining rows are fields the program does load somewhere but this
// run never did — flaggable only dynamically.
func (pr *Profile) StaticCrossCheck() []FieldCrossCheck {
	writeOnly := staticanalysis.WriteOnlyFieldIDs(pr.prog)
	type acc struct{ stores, loads int64 }
	perField := make(map[int]*acc)
	pr.prof.G.Locs(func(loc depgraph.Loc) {
		if loc.Alloc == nil || loc.Field == depgraph.ElemField {
			return
		}
		rep := pr.an.CacheAnalysis(loc)
		a := perField[loc.Field]
		if a == nil {
			a = &acc{}
			perField[loc.Field] = a
		}
		a.stores += rep.Stores
		a.loads += rep.Loads
	})
	var out []FieldCrossCheck
	for id, a := range perField {
		if a.loads > 0 || a.stores == 0 {
			continue
		}
		out = append(out, FieldCrossCheck{
			Field:           pr.prog.FieldByID(id).QualifiedName(),
			StaticWriteOnly: writeOnly[id],
			Stores:          a.stores,
			Loads:           a.loads,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Field < out[j].Field })
	return out
}

// GraphStats describes the dependence graph.
type GraphStats struct {
	Nodes    int
	DepEdges int
	RefEdges int
	Bytes    int64
	AvgCR    float64
}

// GraphStats returns size statistics for Gcost.
func (pr *Profile) GraphStats() GraphStats {
	return GraphStats{
		Nodes:    pr.prof.G.NumNodes(),
		DepEdges: pr.prof.G.NumDepEdges(),
		RefEdges: pr.prof.G.NumRefEdges(),
		Bytes:    pr.prof.G.ApproxBytes(),
		AvgCR:    pr.prof.CR().AverageCR(),
	}
}

// DeadnessStats carries the Table 1(c) metrics.
type DeadnessStats struct {
	// Instances is #I, the executed instruction instances.
	Instances int64
	// IPD is the percentage of instances producing ultimately-dead values;
	// IPP the percentage ending up only in predicates; NLD the percentage
	// of graph nodes that are ultimately dead.
	IPD, IPP, NLD float64
}

// Deadness computes the ultimately-dead value measurement.
func (pr *Profile) Deadness() DeadnessStats {
	res := deadness.Analyze(pr.prof.G, pr.steps)
	return DeadnessStats{Instances: pr.steps, IPD: res.IPD(), IPP: res.IPP(), NLD: res.NLD()}
}

// Steps returns the executed instruction instances of the profiled run.
func (pr *Profile) Steps() int64 { return pr.steps }

// profileEnvelope is the on-disk format of a saved profile: the executed
// instruction count plus the serialized Gcost.
type profileEnvelope struct {
	Steps int64           `json:"steps"`
	Graph json.RawMessage `json:"graph"`
}

// Save writes the profile (Gcost plus run metadata) for offline analysis —
// the §3.2 deployment mode where "the JVM only needs to write Gcost to
// external storage".
func (pr *Profile) Save(w io.Writer) error {
	var buf bytes.Buffer
	if err := pr.prof.G.Encode(&buf); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(profileEnvelope{Steps: pr.steps, Graph: buf.Bytes()})
}

// LoadProfile reloads a profile saved with Save against the same program.
// All analyses (Report, TopStructures, Deadness, CacheReports, …) then run
// offline; CR statistics are not preserved. It reads TreeHeight, resolved
// as ProfileContext resolves it: Gcost does not depend on n, so one saved
// profile serves every tree height.
func (p *Program) LoadProfile(r io.Reader, opts ...Option) (*Profile, error) {
	o, err := resolve(KindProfile, opts)
	if err != nil {
		return nil, err
	}
	var env profileEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("lowutil: load profile: %w", err)
	}
	g, err := depgraph.Decode(bytes.NewReader(env.Graph), p.prog)
	if err != nil {
		return nil, err
	}
	prof := profiler.NewFromGraph(p.prog, g)
	return &Profile{
		prog:   p.prog,
		prof:   prof,
		steps:  env.Steps,
		an:     costben.NewAnalysis(g),
		height: o.TreeHeight,
	}, nil
}

// TopStructuresMultiHop ranks data structures using k-hop relative costs and
// benefits instead of the default single hop (§3.2's multi-hop design
// alternative): a structure whose expensive producer hides behind one heap
// indirection is exposed at hops = 2. k < 0 lists none.
func (pr *Profile) TopStructuresMultiHop(k, hops int) []Finding {
	type entry struct {
		site     *ir.Instr
		alloc    int
		cost     float64
		ben      float64
		consumed bool
		freq     int64
	}
	perSite := make(map[int]*entry)
	pr.prof.G.Nodes(func(n *depgraph.Node) {
		if n.Eff != depgraph.EffAlloc {
			return
		}
		cost := pr.an.NRACK(n, pr.height, hops)
		ben, consumed := pr.an.NRABK(n, pr.height, hops)
		e := perSite[n.In.AllocSite]
		if e == nil {
			e = &entry{site: n.In, alloc: n.In.AllocSite}
			perSite[n.In.AllocSite] = e
		}
		e.cost += cost
		e.ben += ben
		e.consumed = e.consumed || consumed
		e.freq += n.Freq()
	})
	out := make([]Finding, 0, len(perSite))
	for _, e := range perSite {
		out = append(out, Finding{
			Site:            e.alloc,
			Where:           siteWhere(e.site),
			Cost:            e.cost,
			Benefit:         e.ben,
			Rate:            costben.Rate(e.cost, e.ben),
			ReachesConsumer: e.consumed,
			Allocs:          e.freq,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		if out[i].Cost != out[j].Cost {
			return out[i].Cost > out[j].Cost
		}
		return out[i].Site < out[j].Site
	})
	return out[:clampTop(k, len(out))]
}

// CacheReport assesses one heap location as a cache (§3.2's
// cache-effectiveness redefinition of cost and benefit).
type CacheReport struct {
	Loc           string
	Stores, Loads int64
	CachedWork    float64
	AvoidedWork   float64
	Effectiveness float64
}

// CacheReports assesses every location with at least minAccesses total
// accesses as a cache, least effective first — poor caches are structures
// whose maintenance outweighs the recomputation they avoid.
func (pr *Profile) CacheReports(minAccesses int64) []CacheReport {
	var out []CacheReport
	pr.prof.G.Locs(func(loc depgraph.Loc) {
		rep := pr.an.CacheAnalysis(loc)
		if rep.Stores+rep.Loads < minAccesses || rep.Stores == 0 {
			return
		}
		out = append(out, CacheReport{
			Loc:           loc.String(),
			Stores:        rep.Stores,
			Loads:         rep.Loads,
			CachedWork:    rep.CachedWork,
			AvoidedWork:   rep.AvoidedWork(),
			Effectiveness: rep.Effectiveness(),
		})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Effectiveness != out[j].Effectiveness {
			return out[i].Effectiveness < out[j].Effectiveness
		}
		return out[i].Loc < out[j].Loc
	})
	return out
}

// ---- Client analyses ----

// NullDiagnosis explains a NullPointerException.
type NullDiagnosis struct {
	// Report is the rendered origin-and-flow explanation.
	Report string
	// OriginWhere locates the instruction that created the null.
	OriginWhere string
}

// DiagnoseNull runs the program under the null-propagation client. If the
// run fails with a null dereference it returns the diagnosis; if the run
// succeeds it returns (nil, nil).
func (p *Program) DiagnoseNull() (*NullDiagnosis, error) {
	nt := clients.NewNullTracker(p.prog)
	m := interp.New(p.prog)
	m.Tracer = nt
	err := m.Run()
	if err == nil {
		return nil, nil
	}
	rep, ok := nt.Diagnose(err)
	if !ok {
		return nil, err // not a (diagnosable) NPE: surface the VM error
	}
	return &NullDiagnosis{
		Report:      rep.String(),
		OriginWhere: fmt.Sprintf("%s:%d", rep.Origin.Method.QualifiedName(), rep.Origin.PC),
	}, nil
}

// TypestateProtocol declares a typestate specification over class method
// names. States are indices into StateNames; a missing transition is a
// violation.
type TypestateProtocol struct {
	StateNames  []string
	Initial     int
	Transitions []TypestateTransition
}

// TypestateTransition is one edge of the protocol DFA.
type TypestateTransition struct {
	From   int
	Method string
	To     int
}

// Typestate runs the typestate-history client, tracking every allocation
// site of the named classes, and returns rendered violations.
func (p *Program) Typestate(proto *TypestateProtocol, classes ...string) ([]string, error) {
	cp := &clients.Protocol{
		NumStates:   len(proto.StateNames),
		Init:        clients.State(proto.Initial),
		StateNames:  proto.StateNames,
		Transitions: make(map[clients.StateMethod]clients.State),
	}
	for _, tr := range proto.Transitions {
		cp.Transitions[clients.StateMethod{From: clients.State(tr.From), Method: tr.Method}] = clients.State(tr.To)
	}
	want := make(map[string]bool, len(classes))
	for _, c := range classes {
		want[c] = true
	}
	var sites []int
	for _, in := range p.prog.Instrs {
		if in.Op == ir.OpNew && want[in.Class.Name] {
			sites = append(sites, in.AllocSite)
		}
	}
	ts := clients.NewTypestateTracker(p.prog, cp, sites...)
	m := interp.New(p.prog)
	m.Tracer = ts
	if err := m.Run(); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ts.Violations))
	for _, v := range ts.Violations {
		out = append(out, v.String())
	}
	return out, nil
}

// CopyChain is one heap-to-heap copy relation found by the extended copy
// profiling client.
type CopyChain struct {
	Src, Dst  string
	Count     int64
	StackHops int
}

// CopyChains runs the copy-profiling client and returns the top k chains by
// dynamic count (none for k < 0), plus the total number of executed copies.
func (p *Program) CopyChains(k int) ([]CopyChain, int64, error) {
	cp := clients.NewCopyProfiler(p.prog)
	m := interp.New(p.prog)
	m.Tracer = cp
	if err := m.Run(); err != nil {
		return nil, 0, err
	}
	chains := cp.Chains()
	k = clampTop(k, len(chains))
	out := make([]CopyChain, 0, k)
	for _, c := range chains[:k] {
		out = append(out, CopyChain{
			Src: c.Src.String(), Dst: c.Dst.String(),
			Count: c.Count, StackHops: c.StackHops,
		})
	}
	return out, cp.TotalCopies, nil
}

// ConstantPredicates runs the predicate client and reports branches executed
// at least minExec times with a single outcome.
func (p *Program) ConstantPredicates(minExec int64) ([]string, error) {
	pt := clients.NewPredicateTracker(p.prog)
	m := interp.New(p.prog)
	m.Tracer = pt
	if err := m.Run(); err != nil {
		return nil, err
	}
	var out []string
	for _, c := range pt.Constants(minExec) {
		out = append(out, c.String())
	}
	return out, nil
}

// SilentOverwrites runs the rewrite client and reports heap locations whose
// writes are mostly never read before the next write.
func (p *Program) SilentOverwrites(minWrites int64) ([]string, error) {
	rw := clients.NewRewriteTracker(p.prog)
	m := interp.New(p.prog)
	m.Tracer = rw
	if err := m.Run(); err != nil {
		return nil, err
	}
	var out []string
	for _, r := range rw.Report(minWrites) {
		out = append(out, r.String())
	}
	return out, nil
}

// Collections ranks container allocation sites by cost-benefit rate — the
// §3.2 client that "searches for problematic collections by ranking
// collection objects based on their RAC/RAB rates". A container is a class
// with an array-typed field or a collection-like name. It returns the top k
// (none for k < 0).
func (pr *Profile) Collections(k int) []Finding {
	return findings(clients.RankCollections(pr.an, pr.height, nil), k)
}
