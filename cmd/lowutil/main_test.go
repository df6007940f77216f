package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lowutil"
	"lowutil/internal/workloads"
)

const chartMJ = "testdata/chart.mj"
const npeMJ = "testdata/npe.mj"

func TestCmdRunAndDisasm(t *testing.T) {
	if err := cmdRun([]string{chartMJ}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := cmdDisasm([]string{chartMJ}); err != nil {
		t.Fatalf("disasm: %v", err)
	}
}

func TestCmdProfileAndVariants(t *testing.T) {
	if err := cmdProfile([]string{"-s", "8", "-top", "3", chartMJ}); err != nil {
		t.Fatalf("profile: %v", err)
	}
	if err := cmdProfile([]string{"-hops", "2", chartMJ}); err != nil {
		t.Fatalf("profile -hops: %v", err)
	}
	if err := cmdProfile([]string{"-control", chartMJ}); err != nil {
		t.Fatalf("profile -control: %v", err)
	}
	if err := cmdCaches([]string{chartMJ}); err != nil {
		t.Fatalf("caches: %v", err)
	}
}

func TestCmdProfileSaveLoad(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "profile.json")
	if err := cmdProfile([]string{"-save", saved, chartMJ}); err != nil {
		t.Fatalf("profile -save: %v", err)
	}
	if _, err := os.Stat(saved); err != nil {
		t.Fatalf("saved profile missing: %v", err)
	}
	if err := cmdProfile([]string{"-load", saved, chartMJ}); err != nil {
		t.Fatalf("profile -load: %v", err)
	}

	// A reload ranks with the requested -n: its report is the direct run's,
	// byte for byte.
	run := func(args ...string) string {
		t.Helper()
		out, err := captureStdout(t, func() error { return cmdProfile(args) })
		if err != nil {
			t.Fatalf("profile %v: %v", args, err)
		}
		return out
	}
	direct := run("-n", "1", "-save", saved, chartMJ)
	if !strings.Contains(direct, "(n=1)") {
		t.Fatalf("direct -n 1 report does not rank with n=1:\n%s", direct)
	}
	if loaded := run("-n", "1", "-load", saved, chartMJ); loaded != direct {
		t.Errorf("profile -n 1 -load differs from the direct run:\n%s\nwant:\n%s", loaded, direct)
	}
}

func TestCmdClients(t *testing.T) {
	if err := cmdNullcheck([]string{npeMJ}); err != nil {
		t.Fatalf("nullcheck: %v", err)
	}
	if err := cmdCopies([]string{chartMJ}); err != nil {
		t.Fatalf("copies: %v", err)
	}
	if err := cmdPredicates([]string{"-min", "10", chartMJ}); err != nil {
		t.Fatalf("predicates: %v", err)
	}
	if err := cmdOverwrites([]string{"-min", "5", chartMJ}); err != nil {
		t.Fatalf("overwrites: %v", err)
	}
}

// TestCmdSlice drives the slice subcommand under both modes and pins
// byte-stability of the printed report by capturing stdout twice.
func TestCmdSlice(t *testing.T) {
	capture := func(args []string) string {
		t.Helper()
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		cmdErr := cmdSlice(args)
		w.Close()
		os.Stdout = old
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if cmdErr != nil {
			t.Fatalf("slice %v: %v", args, cmdErr)
		}
		return string(out)
	}
	rta := capture([]string{chartMJ})
	if !strings.Contains(rta, "static slice (mode=rta, objctx=off)") {
		t.Errorf("rta header missing:\n%s", rta)
	}
	if rta != capture([]string{chartMJ}) {
		t.Error("slice output is not byte-stable")
	}
	cha := capture([]string{"-mode", "cha", "-objctx", "-top", "3", chartMJ})
	if !strings.Contains(cha, "static slice (mode=cha, objctx=on)") {
		t.Errorf("cha header missing:\n%s", cha)
	}
	if err := cmdSlice([]string{"-mode", "bogus", chartMJ}); err == nil {
		t.Error("want unknown-mode error")
	}
}

// TestCmdVetAndSSA drives the vet and SSA dump commands.
func TestCmdVetAndSSA(t *testing.T) {
	// A finding would surface as a non-nil "N finding(s)" error.
	if err := cmdVet([]string{chartMJ}); err != nil && !strings.Contains(err.Error(), "finding") {
		t.Fatalf("vet: %v", err)
	}
	// vet takes no -engine flag.
	if err := cmdVet([]string{"-engine", "dense", chartMJ}); err == nil || strings.Contains(err.Error(), "finding") {
		t.Errorf("vet -engine: got %v, want a flag error", err)
	}
	if err := cmdSSA([]string{chartMJ}); err != nil {
		t.Fatalf("ssa: %v", err)
	}
	if err := cmdSSA([]string{"-m", "No.such", chartMJ}); err == nil {
		t.Error("want unknown-method error")
	}
}

// TestCmdFuzz drives the fuzz subcommand over a small deterministic batch:
// two identical-seed runs must produce byte-identical stdout with zero
// violations, and the JSON mode must carry the same counters.
func TestCmdFuzz(t *testing.T) {
	capture := func(args []string) string {
		t.Helper()
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		cmdErr := cmdFuzz(args)
		w.Close()
		os.Stdout = old
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if cmdErr != nil {
			t.Fatalf("fuzz %v: %v", args, cmdErr)
		}
		return string(out)
	}
	a := capture([]string{"-seed", "1", "-n", "3"})
	if !strings.Contains(a, "programs=3") || !strings.Contains(a, "failures=0") {
		t.Errorf("unexpected summary:\n%s", a)
	}
	if a != capture([]string{"-seed", "1", "-n", "3"}) {
		t.Error("fuzz output is not byte-identical across same-seed runs")
	}
	j := capture([]string{"-seed", "1", "-n", "2", "-json"})
	if !strings.Contains(j, `"programs": 2`) || !strings.Contains(j, `"failures": null`) {
		t.Errorf("unexpected JSON summary:\n%s", j)
	}
	if err := cmdFuzz([]string{"-n", "0"}); err == nil {
		t.Error("want error for -n 0 without -minutes")
	}
	if err := cmdFuzz([]string{"extra.mj"}); err == nil {
		t.Error("want error for positional argument")
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	return capture(t, &os.Stdout, fn)
}

// capture runs fn with *stream (os.Stdout or os.Stderr) redirected and
// returns what it printed.
func capture(t *testing.T, stream **os.File, fn func() error) (string, error) {
	t.Helper()
	old := *stream
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*stream = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	fnErr := fn()
	w.Close()
	*stream = old
	return string(<-done), fnErr
}

// TestCmdWorkloads lists the built-in workloads and prints one's source,
// which compiles.
func TestCmdWorkloads(t *testing.T) {
	list, err := captureStdout(t, func() error { return cmdWorkloads(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(list, "\n"); n != 18 {
		t.Errorf("list has %d lines, want 18:\n%s", n, list)
	}
	src, err := captureStdout(t, func() error { return cmdWorkloads([]string{"-scale", "1", "chart"}) })
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.ByName("chart").Source(1); src != want {
		t.Error("workloads chart differs from the workload's source")
	}
	if _, err := lowutil.Compile(src); err != nil {
		t.Errorf("dumped chart does not compile: %v", err)
	}
	if err := cmdWorkloads([]string{"nope"}); err == nil {
		t.Error("want an error for an unknown workload")
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdRun([]string{"testdata/missing.mj"}); err == nil {
		t.Error("want missing-file error")
	}
	if err := cmdRun([]string{}); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("want arg-count error, got %v", err)
	}
	// An -s too large for the program's tables is refused before the run;
	// main reports it as a usage error.
	var se *lowutil.SlotsError
	if err := cmdProfile([]string{"-s", "1099511627776", chartMJ}); !errors.As(err, &se) {
		t.Errorf("want *SlotsError for -s 1<<40, got %v", err)
	}
	// A program that allocates past the heap budget fails run, profile and
	// the client commands with the typed error main prints on one line.
	bomb := filepath.Join(t.TempDir(), "bomb.mj")
	src := "class Main { static void main() { int[] a = new int[1099511627776]; print(a.length); } }"
	if err := os.WriteFile(bomb, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func([]string) error{
		"run": cmdRun, "profile": cmdProfile, "nullcheck": cmdNullcheck,
		"copies": cmdCopies, "predicates": cmdPredicates, "overwrites": cmdOverwrites,
	} {
		var he *lowutil.HeapError
		if err := run([]string{bomb}); !errors.As(err, &he) {
			t.Errorf("%s on the allocation bomb: got %v, want *HeapError", name, err)
		}
	}
	// An unknown call-graph mode is refused before the source compiles;
	// main reports it as a usage error.
	for name, run := range map[string]func([]string) error{"slice": cmdSlice, "audit": cmdAudit} {
		var oe *lowutil.OptionError
		if err := run([]string{"-mode", "bogus", "testdata/missing.mj"}); !errors.As(err, &oe) || oe.Field != "mode" {
			t.Errorf("%s -mode bogus: got %v, want an *OptionError on mode", name, err)
		}
	}
	// A negative -top is a usage error on every command that has one, and
	// so is a scale, worker or hop count below 1, found before anything
	// runs.
	for _, c := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"profile -top -1", cmdProfile, []string{"-top", "-1", chartMJ}},
		{"profile -top -1 -hops 2", cmdProfile, []string{"-top", "-1", "-hops", "2", chartMJ}},
		{"profile -hops 0", cmdProfile, []string{"-hops", "0", chartMJ}},
		{"profile -hops -3", cmdProfile, []string{"-hops", "-3", chartMJ}},
		{"copies -top -1", cmdCopies, []string{"-top", "-1", chartMJ}},
		{"slice -top -1", cmdSlice, []string{"-top", "-1", chartMJ}},
		{"audit -top -1", cmdAudit, []string{"-top", "-1", chartMJ}},
		{"batch -top -1", cmdBatch, []string{"-top", "-1"}},
		{"workloads -scale 0", cmdWorkloads, []string{"-scale", "0", "chart"}},
		{"workloads -scale -2", cmdWorkloads, []string{"-scale", "-2"}},
		{"batch -scale 0", cmdBatch, []string{"-scale", "0"}},
		{"batch -workers 0", cmdBatch, []string{"-workers", "0"}},
		{"batch -workers -4", cmdBatch, []string{"-workers", "-4"}},
	} {
		var ue *usageError
		if err := c.run(c.args); !errors.As(err, &ue) {
			t.Errorf("%s: got %v, want a usage error", c.name, err)
		}
	}
}

// TestCmdFlagErrors: on every subcommand an undefined flag is a usage
// error (exit 2) whose message reaches stderr once through main's printing
// path, and -h prints the command's usage and is flag.ErrHelp, which main
// answers with exit 0. Neither runs anything.
func TestCmdFlagErrors(t *testing.T) {
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		run := commands[name]
		var ue *usageError
		code := 0
		out, err := capture(t, &os.Stderr, func() error {
			err := run([]string{"-bogus", chartMJ})
			code = report(name, err)
			return err
		})
		if !errors.As(err, &ue) || code != 2 {
			t.Errorf("%s -bogus: got %v (exit %d), want a usage error (exit 2)", name, err, code)
		}
		if n := strings.Count(out, "flag provided but not defined: -bogus"); n != 1 {
			t.Errorf("%s -bogus: message printed %d times, want once:\n%s", name, n, out)
		}
		usage, err := capture(t, &os.Stderr, func() error { return run([]string{"-h"}) })
		if !errors.Is(err, flag.ErrHelp) || report(name, err) != 0 {
			t.Errorf("%s -h: got %v, want flag.ErrHelp (exit 0)", name, err)
		}
		if !strings.Contains(strings.ToLower(usage), "usage") {
			t.Errorf("%s -h printed no usage: %q", name, usage)
		}
	}
}

// TestCmdErrorPrintedOnce: a failed run and an unknown method reach stderr
// through main's printing path as one "lowutil <cmd>: …" line, without the
// facade's own "lowutil: " prefix a second time.
func TestCmdErrorPrintedOnce(t *testing.T) {
	div := filepath.Join(t.TempDir(), "div.mj")
	src := "class Main { static void main() { int z = 0; print(1 / z); } }"
	if err := os.WriteFile(div, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	const divByZero = "run: vm: division by zero at Main.main pc 3 (v2 = v1 / v0)\n"
	for _, c := range []struct {
		cmd  string
		args []string
		want string
	}{
		{"run", []string{div}, "lowutil run: " + divByZero},
		{"profile", []string{div}, "lowutil profile: " + divByZero},
		{"copies", []string{div}, "lowutil copies: " + divByZero},
		{"ssa", []string{"-m", "Foo.bar", chartMJ}, "lowutil ssa: no method \"Foo.bar\"\n"},
	} {
		code := 0
		out, _ := capture(t, &os.Stderr, func() error {
			code = report(c.cmd, commands[c.cmd](c.args))
			return nil
		})
		if out != c.want || code != 1 {
			t.Errorf("%s %v: printed %q (exit %d), want %q (exit 1)", c.cmd, c.args, out, code, c.want)
		}
	}
}

// TestCmdExperiments renders one small section, and refuses bad input with
// a usage error before anything runs.
func TestCmdExperiments(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdExperiments([]string{"-scale", "1", "-only", "sunflow", "casestudies"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"§4.2 case studies", "\nsunflow     work", "suspect rank", "  pattern: ", "  tool report:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("experiments casestudies output lacks %q:\n%s", frag, out)
		}
	}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"scale 0", []string{"-scale", "0", "casestudies"}},
		{"negative scale", []string{"-scale", "-3", "table1"}},
		{"unknown section", []string{"nope"}},
		{"unknown -only name", []string{"-only", "nope"}},
		{"unknown case study", []string{"-only", "nope", "casestudies"}},
		{"row of no named section", []string{"-only", "chart", "phases"}},
		{"removed -s flag", []string{"-s", "-3", "casestudies"}},
		{"removed -slots flag", []string{"-slots", "1099511627776"}},
	} {
		var ue *usageError
		if err := cmdExperiments(c.args); !errors.As(err, &ue) {
			t.Errorf("experiments %s (%v): got %v, want a usage error", c.name, c.args, err)
		}
	}
}
