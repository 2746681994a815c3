package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// The two shard-lock annotations. "requires" marks a per-shard entry
// point (storage.ShardedStore.ScanShardBatches and friends) whose
// caller must hold the owning shard's lock; "acquires" marks a helper
// (core.Table.lockAll/rlockAll) that takes shard locks on the
// caller's behalf.
const (
	requiresShardLock = "//fungusvet:requires shardlock"
	acquiresShardLock = "//fungusvet:acquires shardlock"
)

// shardMuFieldName is the built-in acquisition pattern: a call to
// .Lock/.RLock on an expression mentioning a shardMu field counts as
// taking a shard lock (core.Table keeps its per-shard mutexes in a
// field of that name).
var shardMuFieldName = "shardMu"

// lockFacts carries annotations across packages. The driver presents
// packages in dependency order, so an annotated callee in
// internal/storage is recorded before its callers in internal/core
// are checked — the same flow x/tools facts provide.
type lockFacts struct {
	requires map[string]bool // types.Func.FullName() -> true
	acquires map[string]bool
}

var lockState = &lockFacts{requires: map[string]bool{}, acquires: map[string]bool{}}

// ResetLockFacts clears the cross-package annotation tables; the
// analysistest harness calls it so fixtures run from a clean slate.
func ResetLockFacts() {
	lockState = &lockFacts{requires: map[string]bool{}, acquires: map[string]bool{}}
}

// LockDiscipline enforces the engine's locking model (core/table.go:
// "shardMu[i] guards shard i's store, fungus and RNG"). A function
// annotated //fungusvet:requires shardlock may only be called from a
// function that (a) is itself annotated, (b) visibly takes a shard
// lock (shardMu Lock/RLock anywhere in its body, including closures),
// or (c) calls a helper annotated //fungusvet:acquires shardlock.
// This is the class of cross-shard-access bug PRs 1-3 fixed by hand.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc: "functions annotated //fungusvet:requires shardlock may only be called while a " +
		"shard lock is held (shardMu Lock/RLock, an //fungusvet:acquires helper, or an annotated caller)",
	Run: runLockDiscipline,
}

func runLockDiscipline(pass *Pass) error {
	// Pass 1: harvest this package's annotations before checking any
	// calls, so same-package callee annotations are always visible.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if docHasDirective(fd.Doc, requiresShardLock) {
				lockState.requires[fn.FullName()] = true
			}
			if docHasDirective(fd.Doc, acquiresShardLock) {
				lockState.acquires[fn.FullName()] = true
			}
		}
	}
	// Pass 2: every call to a lock-requiring function must sit inside
	// a declaration that holds (or is documented to hold) a shard
	// lock. The unit is the top-level declaration: an acquisition in
	// an enclosing scope or a sibling closure of the same declaration
	// counts, which matches the fan-out idiom (lock taken inside the
	// per-shard goroutine closure).
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			exempt := fn != nil && lockState.requires[fn.FullName()]
			holds := exempt || declAcquiresShardLock(pass, fd.Body)
			if holds {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass.Info, call)
				if callee != nil && lockState.requires[callee.FullName()] {
					pass.Report(call.Pos(), "%s requires the shard lock, but %s never acquires one; take shardMu[i], call a //fungusvet:acquires helper, or annotate the caller",
						callee.Name(), fd.Name.Name)
				}
				return true
			})
		}
	}
	return nil
}

// declAcquiresShardLock reports whether the body contains a visible
// shard-lock acquisition: shardMu…Lock/RLock, or a call to an
// annotated acquires-helper.
func declAcquiresShardLock(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := calleeFunc(pass.Info, call); callee != nil && lockState.acquires[callee.FullName()] {
			found = true
			return false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") && mentionsShardMu(sel.X) {
			found = true
			return false
		}
		return true
	})
	return found
}

// mentionsShardMu reports whether the expression's selector/index
// chain contains the shardMu field.
func mentionsShardMu(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == shardMuFieldName {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return strings.Contains(x.Name, shardMuFieldName)
		default:
			return false
		}
	}
}
