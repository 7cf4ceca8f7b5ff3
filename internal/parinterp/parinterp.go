// Package parinterp executes HJ-lite programs with real parallelism:
// async statements become taskpar tasks (goroutines or work-stealing
// pool workers) and finish statements become taskpar finish scopes.
//
// It implements the same semantics as the canonical sequential
// interpreter (async bodies capture locals by value; arrays and globals
// are shared). It is intended for DATA-RACE-FREE programs — the
// evaluation runs it only on expert-written or tool-repaired programs;
// running a racy program yields the corresponding Go-level races.
//
// A second execution mode serves the opposite purpose: with
// Options.Controller set, the run is fully serialized under an external
// scheduler — one logical task at a time, a named yield point before
// every shared-memory access, spawn, and print — so an adversarial
// controller (internal/adversary) can steer racy programs into chosen
// interleavings deterministically and without Go-level races.
package parinterp

import (
	"bytes"
	"sync"

	"finishrepair/internal/faults"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
	"finishrepair/taskpar"
)

// Options configures a parallel run.
type Options struct {
	// Executor runs the tasks; nil means a fresh goroutine executor.
	// Ignored in controlled mode.
	Executor *taskpar.Executor
	// Meter charges coarse work units (loop iterations, calls, task
	// spawns) against the shared pipeline budget and aborts the run with
	// a typed error on cancellation, deadline, or op exhaustion. Nil
	// means unlimited. Charging is deliberately coarse — the parallel
	// run's cost model feeds no analysis, so per-expression atomics would
	// be pure overhead.
	Meter *guard.Meter
	// Controller, when set, switches the run into controlled mode: tasks
	// become token-gated goroutines, every shared access yields to the
	// controller first, and array locations are numbered exactly like the
	// sequential detector's (globals at 1+slot, arrays from
	// 1+GlobalCount at allocation). See the Controller contract.
	Controller Controller
}

// Result of a parallel run.
type Result struct {
	Output string
	// State is the rendered final global state (controlled runs only;
	// see interp.RenderState). Schedule divergence is judged on Output
	// and State together.
	State string
}

// tctx is the per-task execution context threaded through the
// interpreter: the taskpar context in free-running mode, or the
// controller task id plus the innermost statement position in
// controlled mode.
type tctx struct {
	tp       *taskpar.Ctx // nil in controlled mode
	id       int          // controller task id (controlled mode)
	pos      token.Pos    // innermost statement position (controlled mode)
	isoDepth int          // isolated-statement nesting depth (this task)
}

// Run executes the checked program in parallel.
func Run(info *sem.Info, opts Options) (res *Result, err error) {
	pi := &par{
		info:    info,
		globals: make([]interp.Value, info.GlobalCount),
		meter:   opts.Meter,
		ctl:     opts.Controller,
	}
	if pi.ctl != nil {
		return pi.runControlled(info, opts)
	}
	pi.classMu = make([]sync.Mutex, maxLockClass(info.Prog))
	exec := opts.Executor
	if exec == nil {
		exec = taskpar.NewGoroutineExecutor()
	}

	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(guard.Bail); ok {
				res, err = nil, b.Err
				return
			}
			if re, ok := r.(*interp.RuntimeError); ok {
				res, err = nil, re
				return
			}
			panic(r)
		}
	}()

	opts.Meter.SetPhase("parallel-run")
	// Globals initialize sequentially before main (no tasks yet).
	exec.Finish(func(c *taskpar.Ctx) {
		// Injected inside the root finish so an armed panic exercises the
		// executor's propagation path, not just this function's recover.
		if ferr := faults.Inject(faults.ParallelRun); ferr != nil {
			panic(guard.Bail{Err: ferr})
		}
		tc := &tctx{tp: c}
		for _, g := range info.Prog.Globals {
			sym := g.Sym.(*sem.Symbol)
			if g.Init != nil {
				pi.globals[sym.Slot] = pi.eval(tc, nil, g.Init)
			} else {
				pi.globals[sym.Slot] = interp.ZeroValue(g.Type)
			}
		}
		main := info.Prog.Func("main")
		pi.call(tc, main, nil)
	})
	return &Result{Output: pi.out.String()}, nil
}

type par struct {
	info    *sem.Info
	globals []interp.Value
	meter   *guard.Meter

	outMu sync.Mutex
	out   bytes.Buffer

	// isoMu is the global isolated lock (free-running mode). A class-0
	// isolated body write-locks it, excluding every other isolated body.
	// A class-c body (c > 0) read-locks isoMu — so any number of
	// nonzero-class bodies run concurrently with each other while class 0
	// is excluded — and then locks classMu[c-1] to exclude its own class.
	// Controlled mode needs no locks — the scheduler token plus yield
	// suppression inside isolated bodies already makes them atomic.
	isoMu   sync.RWMutex
	classMu []sync.Mutex

	// Controlled-mode state: the external scheduler, the next array
	// location (allocation is serialized by the token, so no lock), the
	// spawned-task join group, and the first failure.
	ctl      Controller
	nextLoc  uint64
	wg       sync.WaitGroup
	errMu    sync.Mutex
	firstErr error
}

// tick charges one coarse work unit; it panics a guard.Bail carrying the
// meter's typed error when the budget trips or the run is canceled. The
// Bail unwinds the current task, propagates through the executor's
// finish-scope panic channel, and is converted back to an error at Run.
func (p *par) tick() {
	if p.meter == nil {
		return
	}
	if err := p.meter.AddOps(1); err != nil {
		panic(guard.Bail{Err: err})
	}
}

type frame struct {
	slots []interp.Value
}

type ctrl struct {
	returned bool
	val      interp.Value
}

func (p *par) call(c *tctx, fn *ast.FuncDecl, args []interp.Value) interp.Value {
	p.tick()
	f := &frame{slots: make([]interp.Value, p.info.FrameSize[fn])}
	copy(f.slots, args)
	r := p.execBlock(c, f, fn.Body)
	if r.returned {
		return r.val
	}
	return interp.VoidV()
}

func (p *par) execBlock(c *tctx, f *frame, b *ast.Block) ctrl {
	for _, s := range b.Stmts {
		if r := p.execStmt(c, f, s); r.returned {
			return r
		}
	}
	return ctrl{}
}

func (p *par) execStmt(c *tctx, f *frame, s ast.Stmt) ctrl {
	if p.ctl != nil {
		c.pos = s.Pos()
	}
	switch st := s.(type) {
	case *ast.VarDeclStmt:
		sym := st.Sym.(*sem.Symbol)
		if st.Init != nil {
			f.slots[sym.Slot] = p.eval(c, f, st.Init)
		} else {
			f.slots[sym.Slot] = interp.ZeroValue(st.Type)
		}
		return ctrl{}
	case *ast.AssignStmt:
		p.execAssign(c, f, st)
		return ctrl{}
	case *ast.ExprStmt:
		p.eval(c, f, st.X)
		return ctrl{}
	case *ast.ReturnStmt:
		var v interp.Value
		if st.Value != nil {
			v = p.eval(c, f, st.Value)
		}
		return ctrl{returned: true, val: v}
	case *ast.IfStmt:
		if p.eval(c, f, st.Cond).Bool() {
			return p.execBlock(c, f, st.Then)
		}
		if st.Else != nil {
			return p.execBlock(c, f, st.Else)
		}
		return ctrl{}
	case *ast.WhileStmt:
		for p.eval(c, f, st.Cond).Bool() {
			p.tick()
			if r := p.execBlock(c, f, st.Body); r.returned {
				return r
			}
			if p.ctl != nil {
				c.pos = s.Pos()
			}
		}
		return ctrl{}
	case *ast.ForStmt:
		if st.Init != nil {
			if r := p.execStmt(c, f, st.Init); r.returned {
				return r
			}
		}
		for st.Cond == nil || p.eval(c, f, st.Cond).Bool() {
			p.tick()
			if r := p.execBlock(c, f, st.Body); r.returned {
				return r
			}
			if st.Post != nil {
				if r := p.execStmt(c, f, st.Post); r.returned {
					return r
				}
			}
			if p.ctl != nil {
				c.pos = s.Pos()
			}
		}
		return ctrl{}
	case *ast.AsyncStmt:
		if c.isoDepth > 0 {
			panic(&interp.RuntimeError{Msg: "async not allowed inside isolated"})
		}
		p.tick()
		// By-value snapshot of the parent frame (final-variable capture).
		child := &frame{slots: make([]interp.Value, len(f.slots))}
		copy(child.slots, f.slots)
		if p.ctl != nil {
			id := p.ctl.Register(c.id)
			p.spawnTask(id, func(cc *tctx) {
				p.execBlock(cc, child, st.Body)
			})
			p.yield(c, OpSpawn, 0)
			return ctrl{}
		}
		c.tp.Async(func(cc *taskpar.Ctx) {
			p.execBlock(&tctx{tp: cc}, child, st.Body)
		})
		return ctrl{}
	case *ast.FinishStmt:
		if c.isoDepth > 0 {
			panic(&interp.RuntimeError{Msg: "finish not allowed inside isolated"})
		}
		if p.ctl != nil {
			scope := p.ctl.FinishEnter(c.id)
			r := p.execBlock(c, f, st.Body)
			p.ctl.FinishWait(c.id, scope)
			return r
		}
		var r ctrl
		c.tp.Finish(func(cc *taskpar.Ctx) {
			r = p.execBlock(&tctx{tp: cc}, f, st.Body)
		})
		return r
	case *ast.IsolatedStmt:
		return p.execIsolated(c, f, st)
	case *ast.BlockStmt:
		return p.execBlock(c, f, st.Body)
	}
	panic(&interp.RuntimeError{Msg: "unknown statement"})
}

// execIsolated runs st.Body under its lock class's mutual exclusion
// (outermost level only — the locks are not re-entrant, but nested
// isolated is already exclusive under the outermost frame's class).
// Free-running mode: class 0 write-locks the global isolated lock;
// class c > 0 read-locks it (excluding class 0 but not other classes)
// and locks its own class mutex. Controlled mode relies on the
// scheduler token: yield suppresses itself while isoDepth > 0, so the
// body runs atomically under whichever schedule the controller picked.
func (p *par) execIsolated(c *tctx, f *frame, st *ast.IsolatedStmt) ctrl {
	if p.ctl == nil && c.isoDepth == 0 {
		if cls := st.LockClass; cls > 0 && cls <= len(p.classMu) {
			p.isoMu.RLock()
			defer p.isoMu.RUnlock()
			p.classMu[cls-1].Lock()
			defer p.classMu[cls-1].Unlock()
		} else {
			p.isoMu.Lock()
			defer p.isoMu.Unlock()
		}
	}
	c.isoDepth++
	defer func() { c.isoDepth-- }()
	return p.execBlock(c, f, st.Body)
}

// maxLockClass scans the program for the highest isolated lock class, to
// size the per-class mutex table before the run starts.
func maxLockClass(prog *ast.Program) int {
	maxCls := 0
	var walk func(b *ast.Block)
	walk = func(b *ast.Block) {
		for _, s := range b.Stmts {
			if iso, ok := s.(*ast.IsolatedStmt); ok && iso.LockClass > maxCls {
				maxCls = iso.LockClass
			}
			for _, nb := range ast.StmtBlocks(s) {
				walk(nb)
			}
		}
	}
	for _, fn := range prog.Funcs {
		walk(fn.Body)
	}
	return maxCls
}

func (p *par) execAssign(c *tctx, f *frame, st *ast.AssignStmt) {
	rhs := p.eval(c, f, st.RHS)
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		sym := lhs.Sym.(*sem.Symbol)
		if st.Op != token.ASSIGN {
			rhs = interp.Compound(st, p.load(c, sym, f), rhs)
		}
		p.store(c, sym, f, rhs)
	case *ast.IndexExpr:
		av := p.eval(c, f, lhs.X)
		iv := p.eval(c, f, lhs.Index)
		if av.A == nil || iv.I < 0 || iv.I >= int64(len(av.A.Elems)) {
			panic(&interp.RuntimeError{Msg: "index out of range in parallel run"})
		}
		if st.Op != token.ASSIGN {
			p.yield(c, OpRead, av.A.Base+uint64(iv.I))
			rhs = interp.Compound(st, av.A.Elems[iv.I], rhs)
		}
		p.yield(c, OpWrite, av.A.Base+uint64(iv.I))
		av.A.Elems[iv.I] = rhs
	}
}

func (p *par) load(c *tctx, sym *sem.Symbol, f *frame) interp.Value {
	if sym.Kind == sem.GlobalVar {
		p.yield(c, OpRead, 1+uint64(sym.Slot))
		return p.globals[sym.Slot]
	}
	return f.slots[sym.Slot]
}

func (p *par) store(c *tctx, sym *sem.Symbol, f *frame, v interp.Value) {
	if sym.Kind == sem.GlobalVar {
		p.yield(c, OpWrite, 1+uint64(sym.Slot))
		p.globals[sym.Slot] = v
		return
	}
	f.slots[sym.Slot] = v
}

func (p *par) eval(c *tctx, f *frame, e ast.Expr) interp.Value {
	switch ex := e.(type) {
	case *ast.IntLit:
		return interp.IntV(ex.Value)
	case *ast.FloatLit:
		return interp.FloatV(ex.Value)
	case *ast.BoolLit:
		return interp.BoolV(ex.Value)
	case *ast.StringLit:
		return interp.StringV(ex.Value)
	case *ast.Ident:
		return p.load(c, ex.Sym.(*sem.Symbol), f)
	case *ast.UnaryExpr:
		x := p.eval(c, f, ex.X)
		if ex.Op == token.SUB {
			if x.K == interp.KInt {
				return interp.IntV(-x.I)
			}
			return interp.FloatV(-x.F)
		}
		return interp.BoolV(!x.Bool())
	case *ast.BinaryExpr:
		if ex.Op == token.LAND || ex.Op == token.LOR {
			return p.evalLogical(c, f, ex)
		}
		return interp.Binary(ex, p.eval(c, f, ex.X), p.eval(c, f, ex.Y))
	case *ast.IndexExpr:
		av := p.eval(c, f, ex.X)
		iv := p.eval(c, f, ex.Index)
		if av.A == nil || iv.I < 0 || iv.I >= int64(len(av.A.Elems)) {
			panic(&interp.RuntimeError{Msg: "index out of range in parallel run"})
		}
		p.yield(c, OpRead, av.A.Base+uint64(iv.I))
		return av.A.Elems[iv.I]
	case *ast.MakeExpr:
		n := p.eval(c, f, ex.Len)
		if n.I < 0 {
			panic(&interp.RuntimeError{Msg: "make with negative length"})
		}
		a := &interp.Array{Elems: make([]interp.Value, n.I)}
		if p.ctl != nil {
			// Number array locations exactly like the sequential
			// detector so race-directed schedules can target them.
			a.Base = p.nextLoc
			p.nextLoc += uint64(n.I)
		}
		z := interp.ZeroValue(ex.Elem)
		for i := range a.Elems {
			a.Elems[i] = z
		}
		return interp.Value{K: interp.KArray, A: a}
	case *ast.CallExpr:
		return p.evalCall(c, f, ex)
	}
	panic(&interp.RuntimeError{Msg: "unknown expression"})
}

// evalLogical evaluates a short-circuit operator.
func (p *par) evalLogical(c *tctx, f *frame, ex *ast.BinaryExpr) interp.Value {
	x := p.eval(c, f, ex.X).Bool()
	if ex.Op == token.LAND {
		return interp.BoolV(x && p.eval(c, f, ex.Y).Bool())
	}
	return interp.BoolV(x || p.eval(c, f, ex.Y).Bool())
}

func (p *par) evalCall(c *tctx, f *frame, ex *ast.CallExpr) interp.Value {
	switch target := ex.Target.(type) {
	case *sem.Builtin:
		args := make([]interp.Value, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = p.eval(c, f, a)
		}
		return p.builtin(c, ex, target, args)
	case *ast.FuncDecl:
		args := make([]interp.Value, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = p.eval(c, f, a)
		}
		return p.call(c, target, args)
	}
	panic(&interp.RuntimeError{Msg: "unresolved call " + ex.Fun})
}

// builtin runs a builtin call: print and println yield to the
// controller and write under the output lock; every other builtin is
// interp's.
func (p *par) builtin(c *tctx, ex *ast.CallExpr, b *sem.Builtin, args []interp.Value) interp.Value {
	id := b.ID()
	if id != sem.BPrint && id != sem.BPrintln {
		return interp.Builtin(ex, b, args)
	}
	p.yield(c, OpPrint, 0)
	p.outMu.Lock()
	for i, a := range args {
		if i > 0 {
			p.out.WriteByte(' ')
		}
		p.out.WriteString(a.String())
	}
	if id == sem.BPrintln {
		p.out.WriteByte('\n')
	}
	p.outMu.Unlock()
	return interp.VoidV()
}
