package evalharness

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/profiler"
)

// overheadRounds is how many paired rounds time each overhead figure.
const overheadRounds = 9

// writeOverhead times Table 1's O column and §4.1's reduction, one run at
// a time: a concurrent run would slow the one being timed.
func writeOverhead(out io.Writer, opts Options) error {
	names, _, _ := section("overhead")
	if names = kept(opts, names); len(names) > 0 {
		fmt.Fprintf(out, "---- Table 1 O(x): profiled / plain run time, median (quartiles) of %d paired rounds, scale %d ----\n",
			overheadRounds, opts.Scale)
		fmt.Fprintf(out, "%-11s %17s %17s\n", "Program", "s = 8", "s = 16")
	}
	for _, name := range names {
		prog, err := compile(name, opts.Scale)
		if err != nil {
			return err
		}
		setups := []func() *interp.Machine{plain(prog)}
		for _, s := range table1Slots {
			setups = append(setups, profiled(prog, profiler.Options{Slots: s, TrackCR: true}, nil))
		}
		ratios, err := pairedRatios(setups...)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(out, "%-11s %17s %17s\n", name, spread(ratios[0]), spread(ratios[1]))
	}

	if names = kept(opts, phaseRows); len(names) > 0 {
		fmt.Fprintf(out, "---- §4.1 reduction: full / windowed profile run time, median (quartiles) of %d paired rounds, scale %d ----\n",
			overheadRounds, opts.Scale)
		fmt.Fprintf(out, "%-11s %17s %17s %17s\n", "Program", "full(x)", "window(x)", "reduction(x)")
	}
	for _, name := range names {
		prog, err := compile(name, opts.Scale)
		if err != nil {
			return err
		}
		m := interp.New(prog)
		if err := m.Run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ratios, err := pairedRatios(plain(prog),
			profiled(prog, profiler.Options{Slots: slots}, nil),
			profiled(prog, profiler.Options{Slots: slots}, window(m.Steps)))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		reduction := make([]float64, overheadRounds)
		for r := range reduction {
			reduction[r] = ratios[0][r] / ratios[1][r]
		}
		fmt.Fprintf(out, "%-11s %17s %17s %17s\n", name, spread(ratios[0]), spread(ratios[1]), spread(reduction))
	}
	return nil
}

func plain(prog *ir.Program) func() *interp.Machine {
	return func() *interp.Machine { return interp.New(prog) }
}

func profiled(prog *ir.Program, opts profiler.Options, win *interp.StepWindow) func() *interp.Machine {
	return func() *interp.Machine {
		m := interp.New(prog)
		m.Tracer, m.Window = profiler.New(prog, opts), win
		return m
	}
}

// pairedRatios times the run of a machine from each setup, once per round
// and back to back, for overheadRounds rounds. It returns, for each setup
// after the first, its run time over the first's in the same round: a
// slow spell on a shared host then slows both sides of a ratio, where it
// could cover one side's whole series if each were timed on its own.
func pairedRatios(setups ...func() *interp.Machine) ([][]float64, error) {
	ratios := make([][]float64, len(setups)-1)
	for range overheadRounds {
		runtime.GC() // so no round pays for an earlier round's garbage
		var base time.Duration
		for i, setup := range setups {
			m := setup()
			start := time.Now()
			if err := m.Run(); err != nil {
				return nil, err
			}
			d := max(time.Since(start), time.Nanosecond)
			if i == 0 {
				base = d
			} else {
				ratios[i-1] = append(ratios[i-1], float64(d)/float64(base))
			}
		}
	}
	return ratios, nil
}

// spread formats samples as their median and, in parentheses, their lower
// and upper quartiles.
func spread(samples []float64) string {
	s := slices.Clone(samples)
	slices.Sort(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("%.1f (%.1f–%.1f)", q(0.5), q(0.25), q(0.75))
}
