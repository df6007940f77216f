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
	"sort"

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

// Encode serializes the graph. The output is deterministic: nodes are
// ordered by (instruction, d) and edge lists are sorted.
func (g *Graph) Encode(w io.Writer) error {
	nodes := make([]*Node, len(g.all))
	copy(nodes, g.all)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].In.ID != nodes[j].In.ID {
			return nodes[i].In.ID < nodes[j].In.ID
		}
		return nodes[i].D < nodes[j].D
	})
	idx := make(map[*Node]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	nodeIdx := func(n *Node) int {
		if n == nil {
			return -1
		}
		return idx[n]
	}

	sg := serialGraph{
		Version:   serialVersion,
		NumInstrs: g.Prog.NumInstrs(),
		NumSites:  g.Prog.NumAllocSites(),
	}
	for _, n := range nodes {
		sg.Nodes = append(sg.Nodes, serialNode{
			Instr:    n.In.ID,
			D:        n.D,
			Freq:     n.Freq(),
			Eff:      uint8(n.Eff),
			EffAlloc: nodeIdx(n.EffLoc.Alloc),
			EffField: n.EffLoc.Field,
		})
		g.depSets[n.id].each(g.all, func(d *Node) {
			sg.DepEdges = append(sg.DepEdges, [2]int{idx[n], idx[d]})
		})
		g.refSets[n.id].each(g.all, func(r *Node) {
			sg.RefEdges = append(sg.RefEdges, [2]int{idx[n], idx[r]})
		})
	}
	sortPairs := func(ps [][2]int) {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i][0] != ps[j][0] {
				return ps[i][0] < ps[j][0]
			}
			return ps[i][1] < ps[j][1]
		})
	}
	sortPairs(sg.DepEdges)
	sortPairs(sg.RefEdges)

	sortLocEdges := func(out []serialLocEdge) []serialLocEdge {
		sort.Slice(out, func(i, j int) bool {
			if out[i].Alloc != out[j].Alloc {
				return out[i].Alloc < out[j].Alloc
			}
			if out[i].Field != out[j].Field {
				return out[i].Field < out[j].Field
			}
			return out[i].Node < out[j].Node
		})
		return out
	}
	var children, stores, loads []serialLocEdge
	for i := range g.locEntries {
		e := &g.locEntries[i]
		a, f := nodeIdx(e.loc.Alloc), e.loc.Field
		e.children.each(g.all, func(c *Node) {
			children = append(children, serialLocEdge{Alloc: a, Field: f, Node: idx[c]})
		})
		for _, id := range e.stores {
			stores = append(stores, serialLocEdge{Alloc: a, Field: f, Node: idx[g.all[id]]})
		}
		for _, id := range e.loads {
			loads = append(loads, serialLocEdge{Alloc: a, Field: f, Node: idx[g.all[id]]})
		}
	}
	sg.Children = sortLocEdges(children)
	sg.LocStores = sortLocEdges(stores)
	sg.LocLoads = sortLocEdges(loads)

	enc := json.NewEncoder(w)
	return enc.Encode(&sg)
}

// Decode reconstructs a graph serialized by Encode against prog, which
// must be the same program (checked by fingerprint).
func Decode(r io.Reader, prog *ir.Program) (*Graph, error) {
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

	g := New(prog)
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
