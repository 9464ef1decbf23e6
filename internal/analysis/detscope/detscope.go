// Package detscope decides which code the determinism analyzers
// (detrange, wallclock) apply to. The deterministic core of the repo —
// the packages whose outputs must be bit-identical across execution
// planes, goroutine schedules and hosts — is enumerated here once so the
// analyzers agree on the boundary.
package detscope

import (
	"go/ast"
	"go/token"

	"chaos/internal/analysis/framework"
)

// EnginePackages are the packages under the full determinism contract:
// equal seeds must reproduce results, reports and (on the DES plane)
// the virtual clock exactly. detrange and wallclock both apply.
//
// internal/algorithms is included although ISSUE lists it implicitly:
// the motivating regression (MCST.Converged unioning labels in map
// order) lived there, and every gas.Program it defines executes inside
// the deterministic engines.
var EnginePackages = map[string]bool{
	"chaos/internal/core":        true,
	"chaos/internal/core/native": true,
	"chaos/internal/core/drive":  true,
	"chaos/internal/gas":         true,
	"chaos/internal/sim":         true,
	"chaos/internal/refalgo":     true,
	"chaos/internal/algorithms":  true,
}

// Directives widening the analyzers' scope beyond EnginePackages:
//
//	//chaos:deterministic — file-level; the file is under the full
//	    contract (detrange + wallclock). Used by fixture packages and
//	    any future package that joins the deterministic core.
//	//chaos:sorted-maps — file-level; the file promises deterministic
//	    emission order only (detrange applies, wallclock does not).
//	    Used by record-emission and listing paths whose output is
//	    diffed or paged: benchmark JSON records, /metrics rendering,
//	    API listings.
const (
	DirDeterministic = "deterministic"
	DirSortedMaps    = "sorted-maps"
)

// FileInDetRangeScope reports whether detrange applies to file f.
func FileInDetRangeScope(pass *framework.Pass, f *ast.File) bool {
	if EnginePackages[pass.Pkg.Path()] {
		return true
	}
	return framework.FileHasDirective(pass.Fset, f, DirDeterministic) ||
		framework.FileHasDirective(pass.Fset, f, DirSortedMaps)
}

// FileInWallClockScope reports whether wallclock applies to file f.
func FileInWallClockScope(pass *framework.Pass, f *ast.File) bool {
	if EnginePackages[pass.Pkg.Path()] {
		return true
	}
	return framework.FileHasDirective(pass.Fset, f, DirDeterministic)
}

// Line returns pos's line, a convenience shared by the analyzers'
// tests and fix builders.
func Line(fset *token.FileSet, pos token.Pos) int { return fset.Position(pos).Line }
