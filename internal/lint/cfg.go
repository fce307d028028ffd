package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow layer of the dataflow framework
// (DESIGN.md §15): a per-function CFG over statements, on which the
// lockorder held-set dataflow runs.

// CFG is the control-flow graph of one function body. Blocks hold the
// statements executed straight-line; edges are the possible successors.
// Nested function literals are NOT part of their enclosing function's
// CFG — each literal is its own analysis unit with its own graph.
type CFG struct {
	// Blocks in creation order; Blocks[0] is the entry.
	Blocks []*Block
	// Exit is the single synthetic exit block: every return, every
	// terminating call (panic, os.Exit) and the fall-off-the-end point
	// has an edge to it. Exit holds no statements.
	Exit *Block
}

// Block is one straight-line sequence of statements.
type Block struct {
	Index int
	// Stmts holds the block's statements in execution order. Control
	// statements (if/for/switch/...) do not appear themselves; their
	// init/condition expressions are wrapped in the preceding block and
	// their bodies become separate blocks.
	Stmts []ast.Node
	Succs []*Block
}

// cfgBuilder carries the state of one build.
type cfgBuilder struct {
	cfg *CFG
	cur *Block
	// loops is the stack of enclosing loops (and labeled switches) for
	// continue and labeled-break targets.
	loops []loopFrame
	// breakStack is the stack of every enclosing breakable statement —
	// for, range, switch, type switch, select — for unlabeled break.
	breakStack []*Block
	// labels maps a label name to its blocks once seen; gotos to labels
	// not yet built are patched at the end.
	labels       map[string]*Block
	pendingGotos map[string][]*Block
}

type loopFrame struct {
	label string
	post  *Block // continue target
	after *Block // break target
}

// BuildCFG constructs the CFG of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:          &CFG{},
		labels:       make(map[string]*Block),
		pendingGotos: make(map[string][]*Block),
	}
	entry := b.newBlock()
	b.cfg.Exit = &Block{Index: -1}
	b.cur = entry
	b.stmts(body.List)
	// Falling off the end reaches the exit.
	b.edge(b.cur, b.cfg.Exit)
	// Unresolved gotos (labels in dead code, or malformed input the
	// type-checker would reject) conservatively reach the exit.
	for _, srcs := range b.pendingGotos {
		for _, s := range srcs {
			b.edge(s, b.cfg.Exit)
		}
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edge adds from→to once.
func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startBlock seals cur with an edge into next and makes next current.
func (b *cfgBuilder) startBlock(next *Block) {
	b.edge(b.cur, next)
	b.cur = next
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt appends one statement to the graph. label is the pending label
// for the statement (set when reached through a LabeledStmt).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:

	case *ast.LabeledStmt:
		// The labeled statement starts a fresh block so gotos can land
		// on it; loops additionally use the label for break/continue.
		target := b.newBlock()
		b.startBlock(target)
		b.labels[s.Label.Name] = target
		for _, src := range b.pendingGotos[s.Label.Name] {
			b.edge(src, target)
		}
		delete(b.pendingGotos, s.Label.Name)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		b.cur.Stmts = append(b.cur.Stmts, &ast.ExprStmt{X: s.Cond})
		cond := b.cur
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmts(s.Body.List)
		thenEnd := b.cur
		var elseEnd *Block
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else, "")
			elseEnd = b.cur
		}
		after := b.newBlock()
		b.edge(thenEnd, after)
		if s.Else != nil {
			b.edge(elseEnd, after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		head := b.newBlock()
		b.startBlock(head)
		if s.Cond != nil {
			head.Stmts = append(head.Stmts, &ast.ExprStmt{X: s.Cond})
		}
		post := b.newBlock() // continue lands here
		after := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after)
		}
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.loops = append(b.loops, loopFrame{label: label, post: post, after: after})
		b.breakStack = append(b.breakStack, after)
		b.stmts(s.Body.List)
		b.breakStack = b.breakStack[:len(b.breakStack)-1]
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(b.cur, post)
		if s.Post != nil {
			post.Stmts = append(post.Stmts, s.Post)
		}
		b.edge(post, head)
		b.cur = after

	case *ast.RangeStmt:
		// The ranged expression is evaluated once, in the current block.
		b.cur.Stmts = append(b.cur.Stmts, &ast.ExprStmt{X: s.X})
		head := b.newBlock()
		b.startBlock(head)
		after := b.newBlock()
		b.edge(head, after) // every range can be empty / exhausted
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.loops = append(b.loops, loopFrame{label: label, post: head, after: after})
		b.breakStack = append(b.breakStack, after)
		b.stmts(s.Body.List)
		b.breakStack = b.breakStack[:len(b.breakStack)-1]
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(b.cur, head)
		b.cur = after

	case *ast.SwitchStmt:
		b.switchLike(s.Init, s.Tag, s.Body, label, hasDefaultClause(s.Body))

	case *ast.TypeSwitchStmt:
		var tag ast.Expr
		if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			tag = as.Rhs[0]
		} else if es, ok := s.Assign.(*ast.ExprStmt); ok {
			tag = es.X
		}
		b.switchLike(s.Init, tag, s.Body, label, hasDefaultClause(s.Body))

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.breakStack = append(b.breakStack, after)
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			b.stmts(cc.Body)
			b.edge(b.cur, after)
		}
		b.breakStack = b.breakStack[:len(b.breakStack)-1]
		// select{} has no clauses: no edge out of head — it blocks
		// forever and the after block stays unreachable.
		b.cur = after

	case *ast.ExprStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		if isTerminatingCall(s.X) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = b.newBlock()
		}

	default:
		// Assignments, sends, go statements, declarations, inc/dec:
		// straight-line, no control flow of their own.
		b.cur.Stmts = append(b.cur.Stmts, s)
	}
}

// switchLike builds (type-)switch control flow: head → every case body
// → after; head → after unless a default clause covers all inputs.
// Fallthrough chains case bodies in source order.
func (b *cfgBuilder) switchLike(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label string, hasDefault bool) {
	if init != nil {
		b.cur.Stmts = append(b.cur.Stmts, init)
	}
	if tag != nil {
		b.cur.Stmts = append(b.cur.Stmts, &ast.ExprStmt{X: tag})
	}
	head := b.cur
	after := b.newBlock()
	b.breakStack = append(b.breakStack, after)
	// A labeled switch also resolves labeled breaks; model it as a
	// zero-iteration loop frame whose continue target is unreachable.
	if label != "" {
		b.loops = append(b.loops, loopFrame{label: label, post: nil, after: after})
	}
	var caseBlocks []*Block
	var caseEnds []*Block
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, blk)
		for _, e := range cc.List {
			blk.Stmts = append(blk.Stmts, &ast.ExprStmt{X: e})
		}
		b.cur = blk
		b.stmts(cc.Body)
		caseBlocks = append(caseBlocks, blk)
		caseEnds = append(caseEnds, b.cur)
		b.edge(b.cur, after)
	}
	// Fallthrough: the end of case i flows into the start of case i+1
	// when the clause ends in a fallthrough statement.
	for i := 0; i+1 < len(caseEnds); i++ {
		if fallsThrough(body.List[i]) {
			b.edge(caseEnds[i], caseBlocks[i+1])
		}
	}
	if label != "" {
		b.loops = b.loops[:len(b.loops)-1]
	}
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	if !hasDefault {
		b.edge(head, after)
	}
	b.cur = after
}

// branch wires break/continue/goto/fallthrough edges.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		var target *Block
		if s.Label != nil {
			for i := len(b.loops) - 1; i >= 0; i-- {
				if b.loops[i].label == s.Label.Name {
					target = b.loops[i].after
					break
				}
			}
		} else if n := len(b.breakStack); n > 0 {
			target = b.breakStack[n-1]
		}
		b.edge(b.cur, target)
		b.cur = b.newBlock()
	case token.CONTINUE:
		var target *Block
		if s.Label != nil {
			for i := len(b.loops) - 1; i >= 0; i-- {
				if b.loops[i].label == s.Label.Name {
					target = b.loops[i].post
					break
				}
			}
		} else {
			for i := len(b.loops) - 1; i >= 0; i-- {
				if b.loops[i].post != nil {
					target = b.loops[i].post
					break
				}
			}
		}
		b.edge(b.cur, target)
		b.cur = b.newBlock()
	case token.GOTO:
		if s.Label != nil {
			if target, ok := b.labels[s.Label.Name]; ok {
				b.edge(b.cur, target)
			} else {
				b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], b.cur)
			}
		}
		b.cur = b.newBlock()
	case token.FALLTHROUGH:
		// Edges are added by switchLike via fallsThrough; the statement
		// ends the clause.
		b.cur = b.newBlock()
	}
}

// hasDefaultClause reports whether a switch body contains default:.
func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// fallsThrough reports whether a case clause ends in fallthrough.
func fallsThrough(clause ast.Stmt) bool {
	cc, ok := clause.(*ast.CaseClause)
	if !ok || len(cc.Body) == 0 {
		return false
	}
	br, ok := cc.Body[len(cc.Body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isTerminatingCall reports whether the expression is a call that never
// returns: panic(...) or os.Exit(...). (log.Fatal variants are not used
// in this repository's library code.)
func isTerminatingCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return pkg.Name == "os" && fun.Sel.Name == "Exit"
		}
	}
	return false
}
