package dpst

import (
	"sync"
	"testing"

	"finishrepair/internal/lang/ast"
)

// TestReleaseClearsChunks fills more than one arena chunk with nodes
// that hold parent, owner-block, body, child and forward references,
// releases the tree, and requires every chunk it handed to the pool to
// be zeroed: a pooled chunk keeps no AST or node alive. Releasing a nil
// tree is a no-op, so owners can release unconditionally.
func TestReleaseClearsChunks(t *testing.T) {
	(*Tree)(nil).Release()
	blk := &ast.Block{}
	tree := NewTree()
	for i := 0; i < nodeChunk+nodeChunk/2; i++ {
		sc := tree.NewChild(tree.Root, Scope, BlockScope, "block")
		sc.OwnerBlock, sc.Body = blk, blk
		s := tree.NewChild(sc, Step, NotScope, "")
		s.OwnerBlock = blk
		s.Work = 1
		if !tree.CollapseScope(sc) {
			t.Fatal("a scope holding one step must collapse")
		}
	}
	chunks := append([]*chunk(nil), tree.chunks...)
	if len(chunks) < 2 {
		t.Fatalf("tree used %d chunk(s), want several", len(chunks))
	}
	forwards := 0
	for _, c := range chunks {
		for i := range c {
			if c[i].Forward != nil {
				forwards++
			}
		}
	}
	if forwards == 0 {
		t.Fatal("no collapsed node carries a Forward pointer")
	}
	tree.Release()
	if tree.Root != nil || tree.chunks != nil {
		t.Error("released tree still references its root or chunks")
	}
	for ci, c := range chunks {
		for i := range c {
			n := &c[i]
			if n.Parent != nil || n.OwnerBlock != nil || n.Forward != nil ||
				n.Body != nil || n.Children != nil || n.Label != "" || n.ID != 0 || n.Work != 0 {
				t.Fatalf("chunk %d node %d not cleared after Release: %+v", ci, i, *n)
			}
		}
	}
}

// TestReleaseConcurrentTrees builds and releases trees on several
// goroutines at once, as concurrent repairs and a streamed replay
// goroutine do. No chunk may be handed to two live trees: every node keeps the ID
// and parent its own tree gave it until that tree is released.
func TestReleaseConcurrentTrees(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				tree := NewTree()
				nodes := make([]*Node, 0, 2*nodeChunk)
				for i := 0; i < 2*nodeChunk; i++ {
					nodes = append(nodes, tree.NewChild(tree.Root, Step, NotScope, ""))
				}
				for i, n := range nodes {
					if n.ID != i+1 || n.Parent != tree.Root {
						t.Errorf("node %d of a live tree reads ID %d", i+1, n.ID)
						return
					}
				}
				tree.Release()
			}
		}()
	}
	wg.Wait()
}
