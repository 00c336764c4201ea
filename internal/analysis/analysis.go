// Package analysis is a hand-rolled static-analysis driver for this
// module: a stdlib-only (go/parser + go/types + go/importer, no
// golang.org/x/tools) harness that loads every package under the module,
// runs a suite of domain analyzers, and reports findings with file:line
// positions.
//
// The analyzers encode invariants that earlier PRs established by
// convention — context propagation through the transport paths, %w error
// wrapping, telemetry metric naming, encoding/xml kept out of non-test
// code (every wire layout lives in an Encode method), defer-paired mutex
// use, and checked fsync errors in the storage engine — so that a
// regression fails CI instead of silently eroding the fault-tolerance
// and observability story. See DESIGN.md ("Static analysis") for the analyzer↔invariant
// table and cmd/vetvo for the CLI.
//
// Deliberate exceptions are annotated in source with
//
//	//lint:allow <analyzer>[,<analyzer>...] [reason]
//
// on the offending line or the line directly above it.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer hit at a source position. File is absolute as
// loaded; cmd/vetvo relativizes it to the module root before printing.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Analyzer is one named check. Run is invoked once per package, in
// sorted package-path order; an analyzer may keep state across calls
// (metricname does, for module-wide name uniqueness), which is why
// Suite returns fresh instances rather than sharing globals.
//
// RunModule, when set, is invoked once with every loaded package and a
// shared interprocedural Module (call graph + per-function summaries)
// after all per-package runs. An analyzer sets Run, RunModule, or both.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	report   func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries the whole module through one interprocedural
// analyzer: every loaded package plus the shared call graph and summary
// layer, built once and reused by all module analyzers in a run.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Module   *Module
	report   func(Finding)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suite returns fresh instances of every analyzer, in reporting order.
// The first six are per-package syntactic checks from PR 3; the last
// four ride the interprocedural Module layer (call graph + summaries).
func Suite() []*Analyzer {
	return []*Analyzer{
		ctxpropagate(),
		errwrap(),
		metricname(),
		xmlimport(),
		nakedlock(),
		syncerr(),
		lockorder(),
		goroleak(),
		credtaint(),
		atomicmix(),
	}
}

// Select filters a suite down by -only / -skip style name lists and
// errors on unknown names so typos fail loudly.
func Select(suite []*Analyzer, only, skip []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	for _, n := range append(append([]string{}, only...), skip...) {
		if byName[n] == nil {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
	}
	skipped := make(map[string]bool, len(skip))
	for _, n := range skip {
		skipped[n] = true
	}
	var out []*Analyzer
	for _, a := range suite {
		if skipped[a.Name] {
			continue
		}
		if len(only) > 0 {
			keep := false
			for _, n := range only {
				if n == a.Name {
					keep = true
				}
			}
			if !keep {
				continue
			}
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes each analyzer over each package — then each module
// analyzer once over all packages together — and returns the surviving
// findings sorted by position. Findings suppressed by a lint:allow
// directive on their line (or the line above) are dropped.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		allow := allowIndex(pkg)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Pkg:      pkg,
				report: func(f Finding) {
					if allow.suppressed(f) {
						return
					}
					findings = append(findings, f)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	var moduleAnalyzers []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			moduleAnalyzers = append(moduleAnalyzers, a)
		}
	}
	if len(moduleAnalyzers) > 0 && len(pkgs) > 0 {
		mod := NewModule(pkgs)
		allow := make(allowDirectives)
		for _, pkg := range pkgs {
			for file, lines := range allowIndex(pkg) {
				allow[file] = lines
			}
		}
		for _, a := range moduleAnalyzers {
			pass := &ModulePass{
				Analyzer: a,
				Fset:     pkgs[0].Fset,
				Pkgs:     pkgs,
				Module:   mod,
				report: func(f Finding) {
					if allow.suppressed(f) {
						return
					}
					findings = append(findings, f)
				},
			}
			if err := a.RunModule(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// allowDirectives maps file → line → set of analyzer names allowed
// there. A directive covers its own line and the line below it, so both
// end-of-line and stand-alone comment placement work.
type allowDirectives map[string]map[int]map[string]bool

func (d allowDirectives) suppressed(f Finding) bool {
	lines := d[f.File]
	if lines == nil {
		return false
	}
	return lines[f.Line][f.Analyzer] || lines[f.Line-1][f.Analyzer]
}

func allowIndex(pkg *Package) allowDirectives {
	idx := make(allowDirectives)
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "lint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					lines[pos.Line] = set
				}
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						set[name] = true
					}
				}
			}
		}
	}
	return idx
}
