package depgraph

// Serialization implements the deployment mode §3.2 describes: "these
// analyses … could be easily migrated to an offline heap analysis tool …
// the JVM only needs to write Gcost to external storage". Encode dumps a
// finished graph; Decode reconstructs it against the same program, after
// which every analysis (costben, deadness, clients) runs offline.
//
// The format is a versioned JSON envelope: nodes are serialized with dense
// indices, edges and location tables reference those indices, and a program
// fingerprint (instruction count + allocation-site count) guards against
// loading a graph into the wrong program.

import (
	"encoding/json"
	"fmt"
	"io"

	"lowutil/internal/ir"
)

const serialVersion = 1

type serialGraph struct {
	Version   int             `json:"version"`
	NumInstrs int             `json:"numInstrs"`
	NumSites  int             `json:"numSites"`
	Nodes     []serialNode    `json:"nodes"`
	DepEdges  [][2]int        `json:"depEdges"`
	RefEdges  [][2]int        `json:"refEdges"`
	Children  []serialLocEdge `json:"children"`
	LocStores []serialLocEdge `json:"locStores"`
	LocLoads  []serialLocEdge `json:"locLoads"`
}

type serialNode struct {
	Instr int   `json:"i"`
	D     int   `json:"d"`
	Freq  int64 `json:"f"`
	Eff   uint8 `json:"e"`
	// EffAlloc is the node index of the effect location's allocation node
	// (-1 for statics / none); EffField the field.
	EffAlloc int `json:"ea"`
	EffField int `json:"ef"`
}

// serialLocEdge relates an abstract location (alloc node index or -1 for
// static, field) to a node index.
type serialLocEdge struct {
	Alloc int `json:"a"`
	Field int `json:"f"`
	Node  int `json:"n"`
}

// Encode serializes the graph by writing out its frozen snapshot, whose
// dense IDs and sorted CSR rows already are the saved order: nodes by
// (instruction, d), edges by (from, to), location edges by (alloc index,
// statics first as -1, field, node).
func (g *Graph) Encode(w io.Writer) error {
	s := g.Freeze()
	n := int32(len(s.Nodes))
	nodeIdx := func(nd *Node) int {
		if nd == nil {
			return -1
		}
		return int(s.perm[nd.id])
	}
	sg := serialGraph{
		Version:   serialVersion,
		NumInstrs: g.Prog.NumInstrs(),
		NumSites:  g.Prog.NumAllocSites(),
	}
	for i, nd := range s.Nodes {
		sg.Nodes = append(sg.Nodes, serialNode{
			Instr:    nd.In.ID,
			D:        nd.D,
			Freq:     nd.Freq(),
			Eff:      uint8(nd.Eff),
			EffAlloc: nodeIdx(nd.EffLoc.Alloc),
			EffField: nd.EffLoc.Field,
		})
		for _, d := range s.Dep[s.DepStart[i]:s.DepStart[i+1]] {
			sg.DepEdges = append(sg.DepEdges, [2]int{i, int(d)})
		}
		for _, r := range s.Ref[s.RefStart[i]:s.RefStart[i+1]] {
			sg.RefEdges = append(sg.RefEdges, [2]int{i, int(r)})
		}
	}
	// Row n of the child CSR holds the static-held children, which sort
	// first as alloc index -1.
	for a := int32(-1); a < n; a++ {
		oi := a
		if a < 0 {
			oi = n
		}
		for k := s.ChildStart[oi]; k < s.ChildStart[oi+1]; k++ {
			sg.Children = append(sg.Children, serialLocEdge{Alloc: int(a), Field: int(s.ChildField[k]), Node: int(s.Child[k])})
		}
	}
	for li, loc := range s.Locs {
		a := nodeIdx(loc.Alloc)
		for _, id := range s.Store[s.StoreStart[li]:s.StoreStart[li+1]] {
			sg.LocStores = append(sg.LocStores, serialLocEdge{Alloc: a, Field: loc.Field, Node: int(id)})
		}
		for _, id := range s.Load[s.LoadStart[li]:s.LoadStart[li+1]] {
			sg.LocLoads = append(sg.LocLoads, serialLocEdge{Alloc: a, Field: loc.Field, Node: int(id)})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&sg)
}

// Decode reconstructs a graph serialized by Encode against prog, which
// must be the same program (checked by fingerprint), into a graph sized as
// New sizes it.
func Decode(r io.Reader, prog *ir.Program) (*Graph, error) {
	return DecodeSized(r, prog, defaultMaxD)
}

// DecodeSized is Decode into a graph sized as NewSized(prog, maxD) sizes
// it: a profile saved from a run with s slots reloads with maxD = s-1, so
// its ApproxBytes equals the live graph's.
func DecodeSized(r io.Reader, prog *ir.Program, maxD int) (*Graph, error) {
	var sg serialGraph
	if err := json.NewDecoder(r).Decode(&sg); err != nil {
		return nil, fmt.Errorf("depgraph: decode: %w", err)
	}
	if sg.Version != serialVersion {
		return nil, &DecodeError{fmt.Sprintf("unsupported version %d", sg.Version)}
	}
	if sg.NumInstrs != prog.NumInstrs() || sg.NumSites != prog.NumAllocSites() {
		return nil, &DecodeError{fmt.Sprintf("graph was recorded for a different program (%d/%d instrs, %d/%d sites)",
			sg.NumInstrs, prog.NumInstrs(), sg.NumSites, prog.NumAllocSites())}
	}

	g := NewSized(prog, maxD)
	nodes := make([]*Node, len(sg.Nodes))
	for i, sn := range sg.Nodes {
		if sn.Instr < 0 || sn.Instr >= prog.NumInstrs() {
			return nil, &DecodeError{fmt.Sprintf("node %d references bad instruction %d", i, sn.Instr)}
		}
		n := g.Node(prog.Instrs[sn.Instr], sn.D)
		n.SetFreq(sn.Freq)
		n.Eff = EffectKind(sn.Eff)
		nodes[i] = n
	}
	// at resolves an optional node index (-1 = none: a static location or
	// a node without a heap effect); node resolves a required one.
	at := func(i int) (*Node, error) {
		if i == -1 {
			return nil, nil
		}
		if i < 0 || i >= len(nodes) {
			return nil, &DecodeError{fmt.Sprintf("bad node index %d", i)}
		}
		return nodes[i], nil
	}
	node := func(what string, i int) (*Node, error) {
		if i == -1 {
			return nil, &DecodeError{what + " has no node"}
		}
		return at(i)
	}
	for i, sn := range sg.Nodes {
		alloc, err := at(sn.EffAlloc)
		if err != nil {
			return nil, err
		}
		nodes[i].EffLoc = Loc{Alloc: alloc, Field: sn.EffField}
	}
	edges := func(what string, es [][2]int, add func(from, to *Node)) error {
		for _, e := range es {
			from, err := node(what, e[0])
			if err != nil {
				return err
			}
			to, err := node(what, e[1])
			if err != nil {
				return err
			}
			add(from, to)
		}
		return nil
	}
	locEdges := func(what string, les []serialLocEdge, add func(Loc, *Node)) error {
		for _, le := range les {
			alloc, err := at(le.Alloc)
			if err != nil {
				return err
			}
			n, err := node(what, le.Node)
			if err != nil {
				return err
			}
			add(Loc{Alloc: alloc, Field: le.Field}, n)
		}
		return nil
	}
	if err := edges("dep edge", sg.DepEdges, g.AddDep); err != nil {
		return nil, err
	}
	if err := edges("ref edge", sg.RefEdges, g.AddRef); err != nil {
		return nil, err
	}
	if err := locEdges("child edge", sg.Children, g.AddChild); err != nil {
		return nil, err
	}
	if err := locEdges("location store", sg.LocStores, g.AddLocStore); err != nil {
		return nil, err
	}
	if err := locEdges("location load", sg.LocLoads, g.AddLocLoad); err != nil {
		return nil, err
	}
	return g, nil
}

// DecodeError reports a saved graph that parses as JSON but does not
// describe a valid graph for the program it is loaded against.
type DecodeError struct {
	Msg string
}

func (e *DecodeError) Error() string { return "depgraph: " + e.Msg }
