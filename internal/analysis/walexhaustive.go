package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WalRecTypeName names the WAL record-kind enum the exhaustiveness
// check keys on: the type RecType declared in a package whose import
// path ends in WalRecTypePkgSuffix. Exported (with the suffix) so the
// analysistest fixture can declare its own copy of the enum.
var (
	WalRecTypeName      = "RecType"
	WalRecTypePkgSuffix = "internal/wal"
)

// WalExhaustive requires every switch over wal.RecType to either
// handle all declared record kinds or carry a default clause that
// returns or panics. The record decoder and the one replay site,
// wal.Applier (shared by crash recovery and follower apply), would
// otherwise skip unknown frames silently, and a new record kind — the
// ROADMAP failover arc will add one — must break the build at each of
// them rather than corrupt a replica.
var WalExhaustive = &Analyzer{
	Name: "walexhaustive",
	Doc: "every switch on wal.RecType must handle all record kinds or have a default " +
		"that returns or panics, so new record kinds fail loudly at every replay site",
	Run: runWalExhaustive,
}

func runWalExhaustive(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			named := namedType(pass.Info.TypeOf(sw.Tag))
			if named == nil || named.Obj().Name() != WalRecTypeName ||
				named.Obj().Pkg() == nil || !strings.HasSuffix(named.Obj().Pkg().Path(), WalRecTypePkgSuffix) {
				return true
			}
			checkRecTypeSwitch(pass, sw, named)
			return true
		})
	}
	return nil
}

func checkRecTypeSwitch(pass *Pass, sw *ast.SwitchStmt, named *types.Named) {
	want := recTypeKinds(named)
	handled := map[string]bool{}
	var deflt *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, e := range cc.List {
			tv, ok := pass.Info.Types[e]
			if !ok || tv.Value == nil {
				continue
			}
			for name, v := range want {
				if constant.Compare(v, token.EQL, tv.Value) {
					handled[name] = true
				}
			}
		}
	}
	var missing []string
	for name := range want {
		if !handled[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) == 0 {
		return
	}
	if deflt == nil {
		pass.Report(sw.Pos(), "switch on %s.%s does not handle %s and has no default; handle every record kind or add a default that errors",
			named.Obj().Pkg().Name(), WalRecTypeName, strings.Join(missing, ", "))
		return
	}
	if !clauseErrors(deflt) {
		pass.Report(deflt.Pos(), "default clause of a %s.%s switch must return or panic, not skip: unhandled record kinds (%s) would be dropped silently",
			named.Obj().Pkg().Name(), WalRecTypeName, strings.Join(missing, ", "))
	}
}

// recTypeKinds enumerates the declared constants of the enum type,
// keyed by name.
func recTypeKinds(named *types.Named) map[string]constant.Value {
	out := map[string]constant.Value{}
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if types.Identical(c.Type(), named) {
			out[name] = c.Val()
		}
	}
	return out
}

// clauseErrors reports whether a default clause visibly refuses the
// record: its body contains a return statement or a panic call.
func clauseErrors(cc *ast.CaseClause) bool {
	errors := false
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				errors = true
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
					errors = true
				}
			case *ast.FuncLit:
				return false // a nested closure's returns do not exit the clause
			}
			return !errors
		})
		if errors {
			return true
		}
	}
	return false
}
