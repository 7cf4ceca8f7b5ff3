// Package dpst implements the Scoped Dynamic Program Structure Tree
// (S-DPST) of the paper (Definition 2): an ordered rooted tree built
// during a sequential depth-first execution of an async/finish program.
// All leaves are step instances; interior nodes are async, finish, and
// scope instances. Scope nodes represent if statements, loop iterations,
// plain blocks, and function calls, and constrain where new finish nodes
// may be introduced.
//
// Every node carries the static coordinates used by static finish
// placement: the AST block that lexically contains the construct
// (OwnerBlock) and the range of statement indices it covers in that block
// (StmtLo..StmtHi). A step may cover several consecutive statements; a
// loop-header pseudo-step uses index -1.
package dpst

import (
	"fmt"
	"strings"
	"sync"

	"finishrepair/internal/lang/ast"
)

// Kind classifies S-DPST nodes.
type Kind uint8

// Node kinds.
const (
	Step Kind = iota
	Async
	Finish
	Scope
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Step:
		return "Step"
	case Async:
		return "Async"
	case Finish:
		return "Finish"
	default:
		return "Scope"
	}
}

// ScopeClass refines Scope nodes; it determines which finish placements
// are statically expressible.
type ScopeClass uint8

// Scope classes. LoopIter marks one iteration of a loop: a finish cannot
// enclose a proper subrange of sibling iterations.
const (
	NotScope ScopeClass = iota
	IfScope
	ElseScope
	LoopScope // the whole loop; children are LoopIter scopes
	LoopIter
	CallScope
	BlockScope
	IsoScope // body of an isolated statement (mutual exclusion region)
)

// Node is an S-DPST node. The narrow classification fields sit at the
// end so they pack into one word with Depth.
type Node struct {
	ID       int    // depth-first visit order, unique within a tree
	Label    string // diagnostic: function name, "if", "while", ...
	Parent   *Node
	Children []*Node

	// Static coordinates: the node's construct occupies statements
	// StmtLo..StmtHi of OwnerBlock. For loop-header pseudo-steps StmtLo is
	// -1. OwnerBlock is nil for the root. The statement that created an
	// async, finish, or scope node is OwnerBlock.Stmts[StmtLo].
	OwnerBlock     *ast.Block
	StmtLo, StmtHi int

	// Body is the AST block whose statement instances this interior
	// node's children represent (function body for call scopes and async
	// bodies, branch block for if scopes, loop body for iteration scopes).
	Body *ast.Block

	// Work is the node's own cost in abstract work units (nonzero only
	// for steps); SubtreeWork aggregates the whole subtree and is filled
	// in by Tree.AggregateWork. IsoWork is the portion of Work performed
	// inside isolated bodies: it serializes against other isolated work
	// of an excluding lock class, so the critical path is at least the
	// largest per-class serialization sum. IsoClass is the lock class
	// that IsoWork serializes under (see ast.IsolatedStmt.LockClass):
	// class 0 is the global lock; steps merged from bodies of different
	// nonzero classes conservatively degrade to class 0.
	Work        int64
	SubtreeWork int64
	IsoWork     int64
	IsoClass    int

	// Forward is non-nil when this node was collapsed into a merged
	// maximal step; Resolve follows the chain to the live node.
	Forward *Node

	Depth int32
	Kind  Kind
	Class ScopeClass
}

// Resolve follows Forward pointers to the live node that absorbed n
// (n itself when it was never collapsed).
func (n *Node) Resolve() *Node {
	for n.Forward != nil {
		n = n.Forward
	}
	return n
}

// IsScope reports whether the node is a scope node.
func (n *Node) IsScope() bool { return n.Kind == Scope }

// StmtPos renders the source position ("line:col") of the first
// statement the node covers, or "" when unknown (the root, loop-header
// pseudo-steps).
func (n *Node) StmtPos() string {
	if n.OwnerBlock == nil || n.StmtLo < 0 || n.StmtLo >= len(n.OwnerBlock.Stmts) {
		return ""
	}
	return n.OwnerBlock.Stmts[n.StmtLo].Pos().String()
}

// Tree is an S-DPST under construction or completed.
type Tree struct {
	Root   *Node
	nextID int
	// chunks is the node arena: nodes are handed out from fixed-size
	// chunks drawn from chunkPool, so construction costs one allocation
	// per nodeChunk nodes on a cold pool and none on a warm one. A chunk
	// is never moved or resized, so node pointers stay stable; used
	// counts the nodes handed out from the last chunk.
	chunks []*chunk
	used   int
}

// nodeChunk is the arena chunk size.
const nodeChunk = 512

type chunk [nodeChunk]Node

// chunkPool recycles arena chunks across trees (see Release). Pooled
// chunks are always zeroed.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

func (t *Tree) alloc() *Node {
	if len(t.chunks) == 0 || t.used == nodeChunk {
		t.chunks = append(t.chunks, chunkPool.Get().(*chunk))
		t.used = 0
	}
	n := &t.chunks[len(t.chunks)-1][t.used]
	t.used++
	return n
}

// Release zeroes the tree's arena chunks, dropping their AST and node
// references, and returns them to the reuse pool for the next tree. The
// tree and every node it handed out must not be used afterwards: their
// memory belongs to whichever tree draws the chunks next. Release on a
// nil tree is a no-op.
func (t *Tree) Release() {
	if t == nil {
		return
	}
	for _, c := range t.chunks {
		clear(c[:])
		chunkPool.Put(c)
	}
	t.chunks, t.used, t.Root = nil, 0, nil
}

// NewTree creates a tree whose root is the implicit finish enclosing the
// whole program (the paper draws it as Async0's parent context; a finish
// root makes the main task's completion semantics explicit).
func NewTree() *Tree {
	t := &Tree{}
	t.Root = &Node{ID: 0, Kind: Finish, Label: "root"}
	t.nextID = 1
	return t
}

// IDBound returns one more than the largest ID the tree has handed out,
// so every node's ID lies in [0, IDBound()).
func (t *Tree) IDBound() int { return t.nextID }

// NumNodes returns the number of live nodes in the tree.
func (t *Tree) NumNodes() int {
	n := 0
	t.Walk(func(*Node) { n++ })
	return n
}

// CollapseScope implements maximal steps (paper §3: a step is a MAXIMAL
// sequence of statement instances with no asyncs and finishes): when a
// scope instance closes and its subtree contains no async or finish —
// i.e. after recursive collapsing all its children are steps — the whole
// scope becomes a single step, merged into the preceding sibling step
// when one exists. All absorbed nodes get Forward pointers so that race
// records referencing them resolve to the merged step.
//
// It returns true if n was collapsed (n is then a step or detached).
func (t *Tree) CollapseScope(n *Node) bool {
	if n.Kind != Scope {
		return false
	}
	for _, c := range n.Children {
		if c.Kind != Step {
			return false
		}
	}
	// Convert n in place into a step holding the subtree's work.
	var work, isoWork int64
	isoClass := 0
	classKnown := true
	for _, c := range n.Children {
		work += c.Work
		if c.IsoWork > 0 {
			if isoWork > 0 && c.IsoClass != isoClass {
				classKnown = false // mixed classes degrade to global
			}
			isoClass = c.IsoClass
		}
		isoWork += c.IsoWork
		c.Forward = n
	}
	if !classKnown {
		isoClass = 0
	}
	if n.Class == IsoScope {
		// Entering the isolated region makes all the contained work
		// serialized, whether or not the steps inside tracked it, and
		// the region's own lock class governs it.
		isoWork = work
		isoClass = n.IsoClass
	}
	n.Kind = Step
	n.Class = NotScope
	n.Label = ""
	n.Children = nil
	n.Work = work
	n.IsoWork = isoWork
	n.IsoClass = isoClass
	n.Body = nil

	// Merge with the immediately preceding sibling when it is a step of
	// the same owner block (and not a loop-header pseudo-step being
	// polluted: header markers only matter inside loops that survive, in
	// which case this scope would not have collapsed).
	p := n.Parent
	if p == nil || len(p.Children) < 2 {
		return true
	}
	idx := len(p.Children) - 1
	if p.Children[idx] != n {
		// n is not the last child (should not happen during depth-first
		// construction); leave as converted step.
		return true
	}
	prev := p.Children[idx-1]
	if prev.Kind == Step && prev.OwnerBlock == n.OwnerBlock {
		switch {
		case prev.IsoWork == 0:
			prev.IsoClass = n.IsoClass
		case n.IsoWork > 0 && n.IsoClass != prev.IsoClass:
			prev.IsoClass = 0 // mixed classes degrade to the global lock
		}
		prev.Work += n.Work
		prev.IsoWork += n.IsoWork
		if n.StmtLo < prev.StmtLo {
			prev.StmtLo = n.StmtLo
		}
		if n.StmtHi > prev.StmtHi {
			prev.StmtHi = n.StmtHi
		}
		n.Forward = prev
		p.Children = p.Children[:idx]
	}
	return true
}

// NewChild appends a new node under parent and returns it. Children must
// be created in left-to-right (depth-first execution) order.
func (t *Tree) NewChild(parent *Node, kind Kind, class ScopeClass, label string) *Node {
	n := t.alloc()
	n.ID = t.nextID
	n.Kind = kind
	n.Class = class
	n.Label = label
	n.Parent = parent
	n.Depth = parent.Depth + 1
	n.StmtLo = -2
	n.StmtHi = -2
	t.nextID++
	parent.Children = append(parent.Children, n)
	return n
}

// LCA returns the least common ancestor of a and b.
func LCA(a, b *Node) *Node {
	for a.Depth > b.Depth {
		a = a.Parent
	}
	for b.Depth > a.Depth {
		b = b.Parent
	}
	for a != b {
		a = a.Parent
		b = b.Parent
	}
	return a
}

// NSLCA returns the non-scope least common ancestor of a and b
// (Definition 4): the first non-scope node on the path from LCA(a,b) to
// the root.
func NSLCA(a, b *Node) *Node {
	l := LCA(a, b)
	for l.IsScope() {
		l = l.Parent
	}
	return l
}

// NonScopeChildOn returns the non-scope child of ancestor n on the path
// down to descendant d (Definition 3): the deepest non-scope node c on
// the path such that all nodes strictly between c and n are scopes.
// It returns nil if d == n or d is not a proper descendant of n.
func NonScopeChildOn(n, d *Node) *Node {
	if d == n {
		return nil
	}
	var c *Node
	cur := d
	for cur != nil && cur != n {
		if !cur.IsScope() {
			c = cur
		}
		cur = cur.Parent
	}
	if cur != n {
		return nil
	}
	return c
}

// Parallel reports whether two distinct leaves (steps) may execute in
// parallel, per Theorem 1: with N the NS-LCA of s1 and s2 and A the
// ancestor of the DFS-earlier step that is the non-scope child of N, s1
// and s2 can execute in parallel iff A is an async node.
func Parallel(s1, s2 *Node) bool {
	if s1 == s2 {
		return false
	}
	left := s1
	if s2.ID < s1.ID {
		left = s2
	}
	n := NSLCA(s1, s2)
	a := NonScopeChildOn(n, left)
	return a != nil && a.Kind == Async
}

// NonScopeChildren returns the non-scope children of n in left-to-right
// order: non-scope descendants reachable from n through scope nodes only.
func NonScopeChildren(n *Node) []*Node {
	var out []*Node
	var visit func(c *Node)
	visit = func(c *Node) {
		if c.IsScope() {
			for _, g := range c.Children {
				visit(g)
			}
			return
		}
		out = append(out, c)
	}
	for _, c := range n.Children {
		visit(c)
	}
	return out
}

// AggregateWork computes SubtreeWork for every node.
func (t *Tree) AggregateWork() {
	var visit func(n *Node) int64
	visit = func(n *Node) int64 {
		w := n.Work
		for _, c := range n.Children {
			w += visit(c)
		}
		n.SubtreeWork = w
		return w
	}
	visit(t.Root)
}

// Walk visits every node in depth-first order.
func (t *Tree) Walk(f func(*Node)) {
	var visit func(n *Node)
	visit = func(n *Node) {
		f(n)
		for _, c := range n.Children {
			visit(c)
		}
	}
	visit(t.Root)
}

// Validate checks structural invariants: leaves are steps, interior nodes
// are async/finish/scope, children are ordered by ID, depths and parent
// links are consistent. It returns the first violation found.
func (t *Tree) Validate() error {
	var check func(n *Node) error
	check = func(n *Node) error {
		if len(n.Children) == 0 && n.Kind != Step && n != t.Root {
			// Empty asyncs/finishes/scopes can occur (empty body); they
			// are permitted but must not be steps' parents.
			_ = n
		}
		if n.Kind == Step && len(n.Children) > 0 {
			return fmt.Errorf("dpst: step node %d has children", n.ID)
		}
		prev := -1
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("dpst: node %d has wrong parent link", c.ID)
			}
			if c.Depth != n.Depth+1 {
				return fmt.Errorf("dpst: node %d has wrong depth", c.ID)
			}
			if c.ID <= prev || c.ID <= n.ID {
				return fmt.Errorf("dpst: children of node %d not in DFS order", n.ID)
			}
			prev = c.ID
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(t.Root)
}

// String renders the node compactly.
func (n *Node) String() string {
	if n.Label != "" {
		return fmt.Sprintf("%s(%s):%d", n.Kind, n.Label, n.ID)
	}
	return fmt.Sprintf("%s:%d", n.Kind, n.ID)
}

// Dump renders the tree as an indented outline (for tests and debugging).
func (t *Tree) Dump() string {
	var sb strings.Builder
	var visit func(n *Node, indent int)
	visit = func(n *Node, indent int) {
		sb.WriteString(strings.Repeat("  ", indent))
		sb.WriteString(n.String())
		if n.Kind == Step && n.Work > 0 {
			fmt.Fprintf(&sb, " w=%d", n.Work)
		}
		sb.WriteByte('\n')
		for _, c := range n.Children {
			visit(c, indent+1)
		}
	}
	visit(t.Root, 0)
	return sb.String()
}

// DOT renders the tree in Graphviz format, with race edges if provided
// as (source, sink) pairs.
func (t *Tree) DOT(races [][2]*Node) string {
	var sb strings.Builder
	sb.WriteString("digraph sdpst {\n  node [shape=box];\n")
	t.Walk(func(n *Node) {
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", n.ID, n.String())
		for _, c := range n.Children {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", n.ID, c.ID)
		}
	})
	for _, r := range races {
		fmt.Fprintf(&sb, "  n%d -> n%d [style=dotted, color=red];\n", r[0].ID, r[1].ID)
	}
	sb.WriteString("}\n")
	return sb.String()
}
