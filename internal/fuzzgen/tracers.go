package fuzzgen

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"lowutil"
	"lowutil/internal/clients"
	"lowutil/internal/depgraph"
	"lowutil/internal/escape"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/profiler"
	"lowutil/internal/taint"
)

// checkClientParity requires every tracer client to report the same on
// the handler-table engine, which calls the hooks from its hooked table,
// as on the reference engine, which calls them from its opcode switch.
func checkClientParity(c *caseRun) error {
	prog, err := c.irProg()
	if err != nil {
		return errSkip
	}
	product, err := clientOutputs(prog, (*interp.Machine).Run)
	if err != nil {
		return fmt.Errorf("product client run failed: %v", err)
	}
	ref, err := clientOutputs(prog, (*interp.Machine).RunReference)
	if err != nil {
		return fmt.Errorf("reference client run failed: %v", err)
	}
	if product != ref {
		p, r := strings.Split(product, "\n"), strings.Split(ref, "\n")
		for i := range min(len(p), len(r)) {
			if p[i] != r[i] {
				return fmt.Errorf("client outputs differ: product %q vs reference %q", p[i], r[i])
			}
		}
		return fmt.Errorf("client outputs differ: %d vs %d lines", len(p), len(r))
	}
	return nil
}

// clientOutputs runs every tracer client on prog with run and renders
// what each reports: the null tracker's graph (and its diagnosis of a
// null dereference), the typestate violations of fuzzProtocol, the copy
// chains, constant predicates, silent overwrites, method costs, escaped
// allocation sites, and whether taint tracking saturated.
func clientOutputs(prog *ir.Program, run func(*interp.Machine) error) (string, error) {
	traced := func(tr interp.Tracer) error {
		m := interp.New(prog)
		m.Tracer = tr
		m.MaxSteps = maxFuzzSteps
		return run(m)
	}
	var b strings.Builder
	nt := clients.NewNullTracker(prog)
	if err := traced(nt); err != nil {
		rep, ok := nt.Diagnose(err)
		if !ok {
			return "", err
		}
		fmt.Fprintf(&b, "%s\n", rep)
	}
	fmt.Fprintf(&b, "null graph: %d nodes, %d edges, %d events\n", nt.G.NumNodes(), nt.G.NumDepEdges(), nt.G.TotalFreq())

	proto, sites := fuzzProtocol(prog)
	ts := clients.NewTypestateTracker(prog, proto, sites...)
	cp := clients.NewCopyProfiler(prog)
	pt := clients.NewPredicateTracker(prog)
	rw := clients.NewRewriteTracker(prog)
	mc := clients.NewMethodCostTracker(profiler.New(prog, profiler.Options{Slots: lowutil.DefaultSlots}))
	obs := escape.NewObserver()
	tt := taint.New(prog)
	for _, tr := range []interp.Tracer{ts, cp, pt, rw, mc, obs, tt} {
		if err := traced(tr); err != nil {
			return "", fmt.Errorf("%T: %v", tr, err)
		}
	}
	for _, v := range ts.Violations {
		b.WriteString(v.String())
	}
	fmt.Fprintf(&b, "copies: %d\n%s", cp.TotalCopies, clients.FormatChains(cp.Chains(), len(cp.Chains())))
	for _, p := range pt.Constants(1) {
		fmt.Fprintf(&b, "%s\n", p)
	}
	for _, r := range rw.Report(1) {
		fmt.Fprintf(&b, "%s\n", r)
	}
	for _, c := range mc.MethodCosts() {
		fmt.Fprintf(&b, "%s %.6g %d\n", c.Method.QualifiedName(), c.RelCost, c.Returns)
	}
	fmt.Fprintf(&b, "escaped %v, taint saturated %v\n", obs.EscapedSites(), tt.Overflowed)
	return b.String(), nil
}

// fuzzProtocol is a two-state typestate protocol over every method name of
// prog, tracking every class allocation site. In sorted order, every
// other name flips the state, and the rest keep state 0 and have no
// transition from state 1, so a generated program both moves objects and
// violates the protocol.
func fuzzProtocol(prog *ir.Program) (*clients.Protocol, []int) {
	seen := map[string]bool{}
	var names []string
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			if !seen[m.Name] {
				seen[m.Name] = true
				names = append(names, m.Name)
			}
		}
	}
	sort.Strings(names)
	p := &clients.Protocol{NumStates: 2, Transitions: make(map[clients.StateMethod]clients.State)}
	for i, name := range names {
		if i%2 == 0 {
			p.Transitions[clients.StateMethod{From: 0, Method: name}] = 1
			p.Transitions[clients.StateMethod{From: 1, Method: name}] = 0
		} else {
			p.Transitions[clients.StateMethod{From: 0, Method: name}] = 0
		}
	}
	var sites []int
	for _, in := range prog.Instrs {
		if in.Op == ir.OpNew {
			sites = append(sites, int(in.AllocSite))
		}
	}
	return p, sites
}

// checkWindow profiles the program over a step window [lo, hi) drawn from
// its steps by a hash of its source. With F(s) the events an unwindowed
// profile stopped after s steps records, the windowed Gcost must record
// F(hi) − F(lo) events, and each of its nodes must key an (instruction,
// slot) pair of the full Gcost.
func checkWindow(c *caseRun) error {
	prog, err := c.irProg()
	if err != nil {
		return errSkip
	}
	full, steps, err := windowProfile(prog, 0, nil)
	if err != nil {
		return fmt.Errorf("full profile failed: %v", err)
	}
	h := fnv.New64a()
	h.Write([]byte(c.src))
	x := h.Sum64()
	lo := int64(x % uint64(steps+1))
	hi := lo + int64((x>>32)%uint64(steps-lo+1))
	prefix := func(s int64) (int64, error) {
		if s == 0 {
			return 0, nil
		}
		p, _, err := windowProfile(prog, s, nil)
		if err != nil {
			return 0, err
		}
		return p.G.TotalFreq(), nil
	}
	fLo, err := prefix(lo)
	if err != nil {
		return fmt.Errorf("profile of %d steps failed: %v", lo, err)
	}
	fHi, err := prefix(hi)
	if err != nil {
		return fmt.Errorf("profile of %d steps failed: %v", hi, err)
	}
	win, _, err := windowProfile(prog, 0, &interp.StepWindow{Lo: lo, Hi: hi})
	if err != nil {
		return fmt.Errorf("windowed profile failed: %v", err)
	}
	if got := win.G.TotalFreq(); got != fHi-fLo {
		return fmt.Errorf("window [%d, %d) of %d steps recorded %d events, want F(hi) − F(lo) = %d", lo, hi, steps, got, fHi-fLo)
	}
	var stray string
	win.G.Nodes(func(n *depgraph.Node) {
		if stray == "" && full.G.Lookup(n.In, n.D) == nil {
			stray = n.String()
		}
	})
	if stray != "" {
		return fmt.Errorf("window [%d, %d): node %s is not in the full Gcost", lo, hi, stray)
	}
	return nil
}

// windowProfile profiles prog under the facade's default options, stopped
// after maxSteps steps when it is positive and confined to w when it is
// not nil, and returns the profiler and the steps run. A run stopped by
// its step budget is not an error.
func windowProfile(prog *ir.Program, maxSteps int64, w *interp.StepWindow) (*profiler.Profiler, int64, error) {
	p := profiler.New(prog, profiler.Options{Slots: lowutil.DefaultSlots, TrackCR: true})
	m := interp.New(prog)
	m.Tracer = p
	m.MaxSteps = maxFuzzSteps
	if maxSteps > 0 {
		m.MaxSteps = maxSteps
	}
	m.Window = w
	var vm *interp.VMError
	if err := m.Run(); err != nil && (maxSteps == 0 || !errors.As(err, &vm) || vm.Kind != interp.ErrStepLimit) {
		return nil, 0, err
	}
	return p, m.Steps, nil
}
