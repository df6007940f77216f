// Command lowutil compiles and analyzes MJ programs with the cost-benefit
// profiler and the client analyses.
//
// Usage:
//
//	lowutil run        prog.mj          execute and print the program output
//	lowutil disasm     prog.mj          print the three-address code
//	lowutil vet        [flags] prog.mj  static diagnostics, no execution
//	lowutil ssa        [flags] prog.mj  dump SSA form with SCCP and loop info
//	lowutil slice      [flags] prog.mj  interprocedural static thin slice
//	lowutil audit      [flags] prog.mj  static escape/lifetime low-utility audit
//	lowutil profile    [flags] prog.mj  rank low-utility data structures
//	lowutil nullcheck  prog.mj          diagnose a NullPointerException
//	lowutil copies     [flags] prog.mj  extended copy profiling
//	lowutil predicates [flags] prog.mj  always-true/false predicates
//	lowutil overwrites [flags] prog.mj  heap locations rewritten before read
//	lowutil serve      [flags]          HTTP profiling service (v2 JSON API)
//	lowutil batch      [flags]          all 18 workloads through the job queue
//	lowutil fuzz       [flags]          randomized differential invariant fuzzing
//	lowutil workloads  [-scale N] [NAME] list the built-in workloads, or print one's source
//	lowutil experiments [-scale N] [-only a,b] [section ...]  the paper's evaluation
//
// Flags (fuzz): -seed root seed (default 1), -n programs (default 100),
// -minutes time box, -max-failures early stop, -json machine-readable
// summary, -v progress to stderr. Each generated program runs through every
// engine pair; failures are shrunk to a minimal reproducer. With -n alone
// the output is byte-identical across runs with the same seed.
//
// Flags (profile): -s context slots (default 16), -top findings (default
// 10), -n reference-tree height (default 4), -traditional for the
// traditional-slicing ablation, -control for control-decision cost.
// Every command rejects a negative -top, a -s too large for the program's
// tables, and an unknown -mode as a usage error (exit 2).
//
// Flags (slice): -mode cha|rta call-graph construction (default rta),
// -objctx for one level of receiver-object context in the points-to heap
// abstraction, -top candidates (default 10). slice never runs the program:
// it reports the static over-approximation of Gcost — every dependence any
// run could produce is contained in it — with per-location cost/benefit
// bounds and the statically write-only stored locations.
//
// Flags (audit): -mode cha|rta call-graph construction (default rta),
// -objctx for receiver-object context, -top sites (default 10). audit never
// runs the program either: it classifies every allocation site on the
// no-escape / arg-escape / global-escape lattice, infers lifetime regions,
// detects copy-chain and loop-confined shapes, and ranks the sites by their
// frequency-weighted static cost/benefit bounds.
//
// vet reports, without running the program: dead stores, write-only fields,
// unused allocations, unreachable code, and possibly-uninitialized reads.
// It exits 1 when it finds anything. The analyses are sparse, over SSA
// form, so they also flag transitively dead stores and
// constant-propagation-unreachable code.
//
// ssa dumps the pruned SSA form of every method (-m Class.method for one):
// phi placement, SCCP constant and dead-block verdicts, value-numbering
// redundancies, and the loop forest with inferred trip counts and static
// frequency weights.
//
// workloads lists the 18 built-in DaCapo-alike workloads with their bloat
// profiles, or prints one's MJ source at -scale N (default 1), ready for
// any other command:
//
//	lowutil workloads -scale 2 eclipse > eclipse.mj && lowutil profile eclipse.mj
//
// experiments regenerates the paper's evaluation, section by section:
// table1 (Table 1's graph sizes, CR and deadness), phases (§4.1's
// phase-restricted tracking), ablations (§3.2's), casestudies (§4.2's six)
// and overhead (Table 1's O column and §4.1's reduction, the one timed
// section). With no section named it runs all five. -scale sets the
// workload scale (default 8, EXPERIMENTS.md's); -only restricts every
// section to the named rows. The first four sections print no wall-clock
// number and are EXPERIMENTS.md's blocks byte for byte at the default scale.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lowutil"
	"lowutil/internal/evalharness"
	"lowutil/internal/workloads"
)

// commands maps each subcommand to its implementation.
var commands = map[string]func(args []string) error{
	"run":         cmdRun,
	"disasm":      cmdDisasm,
	"vet":         cmdVet,
	"ssa":         cmdSSA,
	"slice":       cmdSlice,
	"audit":       cmdAudit,
	"profile":     cmdProfile,
	"nullcheck":   cmdNullcheck,
	"copies":      cmdCopies,
	"predicates":  cmdPredicates,
	"overwrites":  cmdOverwrites,
	"caches":      cmdCaches,
	"serve":       cmdServe,
	"batch":       cmdBatch,
	"fuzz":        cmdFuzz,
	"workloads":   cmdWorkloads,
	"experiments": cmdExperiments,
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "help" || cmd == "-h" || cmd == "--help" {
		usage()
		return
	}
	run, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "lowutil: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if code := report(cmd, run(os.Args[2:])); code != 0 {
		os.Exit(code)
	}
}

// report prints the outcome err of command cmd to stderr and returns the
// exit code: 0 for success and for -h (the flag set has printed the usage),
// 2 for a usage error, 1 for a failed run. Each error is printed once: a
// flag the flag set refused is already on stderr, with the usage.
func report(cmd string, err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var usageErr *usageError
	if errors.As(err, &usageErr) {
		if !usageErr.printed {
			fmt.Fprintf(os.Stderr, "lowutil %s: %v\n", cmd, err)
		}
		return 2
	}
	var optErr *lowutil.OptionError
	if errors.As(err, &optErr) {
		fmt.Fprintf(os.Stderr, "lowutil %s: %s\n", cmd, optErr.Msg)
		return 2
	}
	var slotsErr *lowutil.SlotsError
	if errors.As(err, &slotsErr) {
		// A slot count too large for the program is a bad -s, not a failed run.
		fmt.Fprintf(os.Stderr, "lowutil %s: -s %d exceeds the profiling table budget for this program (at most %d)\n", cmd, slotsErr.Slots, slotsErr.Max)
		return 2
	}
	var heapErr *lowutil.HeapError
	if errors.As(err, &heapErr) {
		// A program that allocates past the interpreter's heap budget.
		fmt.Fprintf(os.Stderr, "lowutil %s: %v\n", cmd, heapErr.Err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "lowutil: %v\n", err)
	return 1
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lowutil <command> [flags] <file.mj>
commands: run, disasm, vet, ssa, slice, audit, profile, nullcheck, copies, predicates, overwrites, caches, serve, batch, fuzz, workloads, experiments`)
}

// startProfiles starts a CPU profile and/or arranges a post-run heap profile
// when the corresponding path is non-empty. The returned stop function is
// idempotent-safe to defer; profile-write failures are reported to stderr
// since the command's own result is already decided by then.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "lowutil: writing cpu profile: %v\n", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lowutil: writing heap profile: %v\n", err)
				return
			}
			runtime.GC() // flush recent frees so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "lowutil: writing heap profile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "lowutil: writing heap profile: %v\n", err)
			}
		}
	}, nil
}

func compileFile(path string) (*lowutil.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return lowutil.Compile(string(src))
}

// usageError is a flag value the command refuses; main reports it as a
// usage error (exit 2). printed marks one the flag set has already printed.
type usageError struct {
	msg     string
	printed bool
}

func (e *usageError) Error() string { return e.msg }

// parseFlags parses args into fs, the one way every command reads its
// flags: an undefined flag or a malformed value is a *usageError (exit 2)
// that fs has printed along with the usage, and -h, after fs has printed
// the usage, is flag.ErrHelp (exit 0).
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return &usageError{msg: err.Error(), printed: true}
}

// checkTop rejects a negative -top.
func checkTop(top int) error {
	if top < 0 {
		return &usageError{msg: fmt.Sprintf("-top %d must not be negative", top)}
	}
	return nil
}

// checkPositive rejects a value below 1 for the named flag (-scale,
// -workers).
func checkPositive(name string, v int) error {
	if v < 1 {
		return &usageError{msg: fmt.Sprintf("-%s %d must be at least 1", name, v)}
	}
	return nil
}

// bindOptions declares on fs the analysis flags of kind — -s, -n,
// -traditional and -control for profile, -mode and -objctx for slice and
// audit, -top for all three — and returns the options they fill.
func bindOptions(fs *flag.FlagSet, kind string) *lowutil.Options {
	o := &lowutil.Options{}
	switch kind {
	case lowutil.KindProfile:
		fs.IntVar(&o.Slots, "s", lowutil.DefaultSlots, "context slots per instruction (the paper's s)")
		fs.IntVar(&o.TreeHeight, "n", lowutil.DefaultTreeHeight, "reference-tree height for n-RAC/n-RAB")
		fs.BoolVar(&o.Traditional, "traditional", false, "use traditional (non-thin) slicing")
		fs.BoolVar(&o.TrackControl, "control", false, "include control-decision cost (§3.2 alternative)")
	case lowutil.KindSlice, lowutil.KindAudit:
		fs.StringVar(&o.Mode, "mode", "rta", "call-graph construction: cha or rta")
		fs.BoolVar(&o.ObjCtx, "objctx", false, "qualify allocation sites by one level of receiver-object context")
	}
	fs.IntVar(&o.Top, "top", lowutil.DefaultTop, "ranked entries to print")
	return o
}

// parseAnalysis parses the flags of an analysis command bound by
// bindOptions and returns its one file, rejecting a negative -top and an
// unknown -mode before anything compiles.
func parseAnalysis(fs *flag.FlagSet, kind string, o *lowutil.Options, args []string) (string, error) {
	path, err := oneFile(fs, args)
	if err != nil {
		return "", err
	}
	if err := checkTop(o.Top); err != nil {
		return "", err
	}
	_, err = o.Resolve(kind)
	return path, err
}

func oneFile(fs *flag.FlagSet, args []string) (string, error) {
	if err := parseFlags(fs, args); err != nil {
		return "", err
	}
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected exactly one .mj file, got %d args", fs.NArg())
	}
	return fs.Arg(0), nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	prog, err := compileFile(path)
	if err != nil {
		return err
	}
	res, err := prog.RunContext(context.Background())
	if err != nil {
		return err
	}
	for _, v := range res.Output {
		fmt.Println(v)
	}
	fmt.Fprintf(os.Stderr, "steps=%d allocs=%d nativeWork=%d\n", res.Steps, res.Allocs, res.NativeWork)
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ContinueOnError)
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	prog, err := compileFile(path)
	if err != nil {
		return err
	}
	fmt.Print(prog.Disassemble())
	return nil
}

func cmdVet(args []string) error {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	prog, err := compileFile(path)
	if err != nil {
		return err
	}
	findings := prog.Vet()
	if len(findings) == 0 {
		fmt.Println("no findings")
		return nil
	}
	for _, f := range findings {
		fmt.Println(f.Message)
	}
	return fmt.Errorf("%d finding(s)", len(findings))
}

func cmdSSA(args []string) error {
	fs := flag.NewFlagSet("ssa", flag.ContinueOnError)
	method := fs.String("m", "", "dump only this method (Class.method); default all")
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	prog, err := compileFile(path)
	if err != nil {
		return err
	}
	dump, err := prog.SSADumpContext(context.Background(), *method)
	if err != nil {
		return err
	}
	fmt.Print(dump)
	return nil
}

func cmdSlice(args []string) error { return cmdStatic(lowutil.KindSlice, args) }

func cmdAudit(args []string) error { return cmdStatic(lowutil.KindAudit, args) }

// cmdStatic runs slice or audit: static analyses that never execute the
// program and print byte-stable reports.
func cmdStatic(kind string, args []string) error {
	fs := flag.NewFlagSet(kind, flag.ContinueOnError)
	o := bindOptions(fs, kind)
	path, err := parseAnalysis(fs, kind, o, args)
	if err != nil {
		return err
	}
	prog, err := compileFile(path)
	if err != nil {
		return err
	}
	run := prog.StaticSliceContext
	if kind == lowutil.KindAudit {
		run = prog.StaticAudit
	}
	rep, err := run(context.Background(), lowutil.WithOptions(*o))
	if err != nil {
		return err
	}
	fmt.Print(rep)
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	o := bindOptions(fs, lowutil.KindProfile)
	hops := fs.Int("hops", 1, "heap-to-heap hops for multi-hop cost/benefit")
	save := fs.String("save", "", "write the profile (Gcost + metadata) to this file for offline analysis")
	load := fs.String("load", "", "analyze a previously saved profile instead of re-running")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	path, err := parseAnalysis(fs, lowutil.KindProfile, o, args)
	if err != nil {
		return err
	}
	prog, err := compileFile(path)
	if err != nil {
		return err
	}
	stopProf, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProf()
	var profile *lowutil.Profile
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		defer f.Close()
		profile, err = prog.LoadProfile(f, lowutil.WithOptions(*o))
		if err != nil {
			return err
		}
	} else {
		profile, err = prog.ProfileContext(context.Background(), lowutil.WithOptions(*o))
		if err != nil {
			return err
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := profile.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "profile saved to %s\n", *save)
	}
	if *hops > 1 {
		fmt.Printf("top low-utility structures (%d-hop):\n", *hops)
		for i, f := range profile.TopStructuresMultiHop(o.Top, *hops) {
			fmt.Printf("%3d. %s\n", i+1, f)
		}
		return nil
	}
	fmt.Print(profile.Report(o.Top))
	return nil
}

// cmdWorkloads lists the built-in workloads, or prints the named one's
// source at -scale.
func cmdWorkloads(args []string) error {
	fs := flag.NewFlagSet("workloads", flag.ContinueOnError)
	scale := fs.Int("scale", 1, "workload scale factor")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := checkPositive("scale", *scale); err != nil {
		return err
	}
	switch fs.NArg() {
	case 0:
		for _, w := range workloads.All() {
			fmt.Printf("%-11s %s\n", w.Name, w.Profile)
		}
		return nil
	case 1:
		w := workloads.ByName(fs.Arg(0))
		if w == nil {
			return fmt.Errorf("unknown workload %q (run lowutil workloads for the list)", fs.Arg(0))
		}
		fmt.Print(w.Source(*scale))
		return nil
	}
	return fmt.Errorf("expected at most one workload name, got %d args", fs.NArg())
}

// cmdExperiments renders the named evaluation sections (all of them when
// none is named). A bad flag, a -scale below 1, an unknown section and an
// -only name that is no row of the sections are usage errors, found
// before anything runs.
func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	o := evalharness.Options{}
	fs.IntVar(&o.Scale, "scale", 8, "workload scale factor")
	only := fs.String("only", "", "comma-separated row names (workloads or case studies), applied to every section")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: lowutil experiments [-scale N] [-only a,b] [%s]...\n", strings.Join(evalharness.Sections, "|"))
		fs.PrintDefaults()
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *only != "" {
		o.Only = strings.Split(*only, ",")
	}
	sections := fs.Args()
	if len(sections) == 0 {
		sections = evalharness.Sections
	}
	if err := evalharness.Check(o, sections); err != nil {
		return &usageError{msg: err.Error()}
	}
	return evalharness.Run(os.Stdout, o, sections...)
}

func cmdCaches(args []string) error {
	fs := flag.NewFlagSet("caches", flag.ContinueOnError)
	slots := fs.Int("s", lowutil.DefaultSlots, "context slots")
	minAcc := fs.Int64("min", 10, "minimum accesses")
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	prog, err := compileFile(path)
	if err != nil {
		return err
	}
	profile, err := prog.ProfileContext(context.Background(), lowutil.WithSlots(*slots))
	if err != nil {
		return err
	}
	reps := profile.CacheReports(*minAcc)
	if len(reps) == 0 {
		fmt.Println("no cache-like locations")
		return nil
	}
	fmt.Println("cache effectiveness, least effective first:")
	for _, r := range reps {
		fmt.Printf("  %-16s stores=%-6d loads=%-6d cached=%-8.0f avoided=%-8.0f eff=%.2f\n",
			r.Loc, r.Stores, r.Loads, r.CachedWork, r.AvoidedWork, r.Effectiveness)
	}
	return nil
}

func cmdNullcheck(args []string) error {
	fs := flag.NewFlagSet("nullcheck", flag.ContinueOnError)
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	prog, err := compileFile(path)
	if err != nil {
		return err
	}
	diag, err := prog.DiagnoseNull()
	if err != nil {
		return err
	}
	if diag == nil {
		fmt.Println("no null dereference: program ran to completion")
		return nil
	}
	fmt.Println(diag.Report)
	return nil
}

func cmdCopies(args []string) error {
	fs := flag.NewFlagSet("copies", flag.ContinueOnError)
	top := fs.Int("top", 10, "chains to print")
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	if err := checkTop(*top); err != nil {
		return err
	}
	prog, err := compileFile(path)
	if err != nil {
		return err
	}
	chains, total, err := prog.CopyChains(*top)
	if err != nil {
		return err
	}
	fmt.Printf("total dynamic copies: %d\n", total)
	for _, c := range chains {
		fmt.Printf("%s -> %s  ×%d (%d stack hops)\n", c.Src, c.Dst, c.Count, c.StackHops)
	}
	return nil
}

func cmdPredicates(args []string) error {
	fs := flag.NewFlagSet("predicates", flag.ContinueOnError)
	minExec := fs.Int64("min", 100, "minimum executions")
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	prog, err := compileFile(path)
	if err != nil {
		return err
	}
	preds, err := prog.ConstantPredicates(*minExec)
	if err != nil {
		return err
	}
	if len(preds) == 0 {
		fmt.Println("no constant predicates")
	}
	for _, p := range preds {
		fmt.Println(p)
	}
	return nil
}

func cmdOverwrites(args []string) error {
	fs := flag.NewFlagSet("overwrites", flag.ContinueOnError)
	minWrites := fs.Int64("min", 10, "minimum writes")
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	prog, err := compileFile(path)
	if err != nil {
		return err
	}
	reps, err := prog.SilentOverwrites(*minWrites)
	if err != nil {
		return err
	}
	if len(reps) == 0 {
		fmt.Println("no silent overwrites")
	}
	for _, r := range reps {
		fmt.Println(r)
	}
	return nil
}
