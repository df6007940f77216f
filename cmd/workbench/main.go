// Command workbench lists, runs, and profiles the built-in DaCapo-alike
// workloads without writing any MJ by hand.
//
// Usage:
//
//	workbench -list
//	workbench -run chart -scale 4
//	workbench -profile eclipse -scale 2 -s 16 -top 10
//	workbench -slice eclipse -mode rta -objctx -top 10
//	workbench -audit eclipse -mode rta -top 10
//	workbench -vet bloat
//	workbench -ssa fop -m TreeGen.gen
//	workbench -dump bloat > bloat.mj
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"lowutil"
	"lowutil/internal/workloads"
)

func main() {
	list := flag.Bool("list", false, "list workloads and their bloat profiles")
	run := flag.String("run", "", "execute the named workload")
	profileName := flag.String("profile", "", "profile the named workload and print the report")
	sliceName := flag.String("slice", "", "print the named workload's static thin-slice report (no execution)")
	auditName := flag.String("audit", "", "print the named workload's static escape/lifetime audit (no execution)")
	vetName := flag.String("vet", "", "run the static vet suite on the named workload (no execution)")
	ssaName := flag.String("ssa", "", "dump the named workload's SSA form with SCCP and loop info")
	dump := flag.String("dump", "", "print the named workload's MJ source")
	scale := flag.Int("scale", 1, "workload scale factor")
	slots := flag.Int("s", lowutil.DefaultSlots, "context slots")
	top := flag.Int("top", lowutil.DefaultTop, "findings to print")
	mode := flag.String("mode", "rta", "slice call-graph construction: cha or rta")
	objctx := flag.Bool("objctx", false, "slice with one level of receiver-object context")
	method := flag.String("m", "", "restrict -ssa to one method (Class.method)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	flag.Parse()
	if *top < 0 {
		fmt.Fprintf(os.Stderr, "workbench: -top %d must not be negative\n", *top)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatalf("%v", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("%v", err)
			}
			f.Close()
		}()
	}

	switch {
	case *list:
		for _, w := range workloads.All() {
			fmt.Printf("%-11s %s\n", w.Name, w.Profile)
		}
	case *dump != "":
		w := workloads.ByName(*dump)
		if w == nil {
			fatalf("unknown workload %q", *dump)
		}
		fmt.Print(w.Source(*scale))
	case *run != "":
		prog := compile(*run, *scale)
		res, err := prog.RunContext(context.Background())
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("output: %v\n", res.Output)
		fmt.Printf("steps=%d allocs=%d nativeWork=%d\n", res.Steps, res.Allocs, res.NativeWork)
	case *profileName != "":
		prog := compile(*profileName, *scale)
		profile, err := prog.ProfileContext(context.Background(), lowutil.WithSlots(*slots))
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(profile.Report(*top))
	case *sliceName != "":
		prog := compile(*sliceName, *scale)
		rep, err := prog.StaticSliceContext(context.Background(), staticOptions(*mode, *objctx, *top)...)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(rep)
	case *auditName != "":
		prog := compile(*auditName, *scale)
		rep, err := prog.StaticAudit(context.Background(), staticOptions(*mode, *objctx, *top)...)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(rep)
	case *vetName != "":
		prog := compile(*vetName, *scale)
		findings := prog.Vet()
		if len(findings) == 0 {
			fmt.Println("no findings")
			return
		}
		for _, f := range findings {
			fmt.Println(f.Message)
		}
	case *ssaName != "":
		prog := compile(*ssaName, *scale)
		out, err := prog.SSADump(*method)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(out)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// staticOptions translates the shared -mode/-objctx/-top flags into the
// unified analysis options used by both -slice and -audit.
func staticOptions(mode string, objctx bool, top int) []lowutil.AnalysisOption {
	opts := []lowutil.AnalysisOption{lowutil.WithMode(mode), lowutil.WithTop(top)}
	if objctx {
		opts = append(opts, lowutil.WithObjCtx())
	}
	return opts
}

func compile(name string, scale int) *lowutil.Program {
	w := workloads.ByName(name)
	if w == nil {
		fatalf("unknown workload %q (try -list)", name)
	}
	prog, err := lowutil.Compile(w.Source(scale))
	if err != nil {
		fatalf("%v", err)
	}
	return prog
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "workbench: "+format+"\n", args...)
	os.Exit(1)
}
