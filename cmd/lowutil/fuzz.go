package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lowutil/internal/fuzzgen"
)

// cmdFuzz runs the randomized differential harness: seeded MJ program
// generation, the full invariant suite on each program, and greedy
// shrinking of any failure. With -n alone the run — and its stdout — is a
// pure function of the seed, so two invocations with the same seed are
// byte-identical; -minutes time-boxes the run instead (or additionally,
// whichever bound hits first).
func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "root seed; program i uses a seed derived from (seed, i)")
	n := fs.Int("n", 100, "number of programs to generate (0 with -minutes: until the deadline)")
	minutes := fs.Float64("minutes", 0, "time box in minutes (0: run exactly -n programs)")
	maxFail := fs.Int("max-failures", 3, "stop after this many failing programs")
	jsonOut := fs.Bool("json", false, "emit the summary as JSON")
	verbose := fs.Bool("v", false, "progress lines to stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("fuzz takes no positional arguments")
	}
	if *n <= 0 && *minutes <= 0 {
		return fmt.Errorf("need -n > 0 or -minutes > 0")
	}

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	sum := fuzzgen.Run(fuzzgen.Options{
		Seed:        *seed,
		N:           *n,
		Deadline:    time.Duration(*minutes * float64(time.Minute)),
		MaxFailures: *maxFail,
		Log:         progress,
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
	} else {
		fmt.Printf("fuzz: seed=%d programs=%d checks=%d failures=%d\n",
			sum.Seed, sum.Programs, sum.Checks, len(sum.Failures))
		for _, name := range sum.Invariants {
			fmt.Printf("  %-22s %d\n", name, sum.PerCheck[name])
		}
		for _, f := range sum.Failures {
			fmt.Printf("\nFAIL seed=%d (program %d) invariant=%s\n  %s\n"+
				"--- shrunk reproducer (replay: lowutil fuzz -seed %d -n %d) ---\n%s",
				f.Seed, f.Index, f.Invariant, f.Detail, sum.Seed, f.Index+1, f.Shrunk)
		}
	}
	if len(sum.Failures) > 0 {
		return fmt.Errorf("%d invariant violation(s)", len(sum.Failures))
	}
	return nil
}
