package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one lint violation.
type Finding struct {
	Pos  token.Position
	Code string
	Msg  string
}

// expandPattern resolves a package pattern ("./...", "dir", "dir/...") into
// the list of directories containing Go files. testdata, vendor, hidden and
// underscore-prefixed directories are skipped, mirroring the go tool.
func expandPattern(pat string) ([]string, error) {
	recursive := false
	dir := pat
	if strings.HasSuffix(pat, "/...") {
		recursive = true
		dir = strings.TrimSuffix(pat, "/...")
	}
	if dir == "" || dir == "." {
		dir = "."
	}
	if !recursive {
		return []string{dir}, nil
	}
	var dirs []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		hasGo, err := dirHasGoFiles(path)
		if err != nil {
			return err
		}
		if hasGo {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func dirHasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}

// parsedFile pairs a parsed file with its classification.
type parsedFile struct {
	path   string
	file   *ast.File
	isTest bool
}

// LintDir parses every Go file in one directory (one package) and runs all
// checks, returning findings sorted by position.
func LintDir(dir string) ([]Finding, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []parsedFile
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, parsedFile{
			path:   path,
			file:   f,
			isTest: strings.HasSuffix(e.Name(), "_test.go"),
		})
	}
	if len(files) == 0 {
		return nil, nil
	}
	inInternal, inCmd := classifyDir(dir)
	instrumented := isInstrumentedDir(dir)
	floatStrict := isFloatStrictDir(dir)
	slotOwner := isSlotOwnerDir(dir)
	llmDir := isLLMDir(dir)
	rfDir := isRFDir(dir)
	goOwner := inInternalPkg(dir, goOwnerPkgs)

	var findings []Finding
	report := func(pos token.Pos, code, msg string) {
		findings = append(findings, Finding{Pos: fset.Position(pos), Code: code, Msg: msg})
	}
	mutexStructs := collectMutexStructs(files)
	var fdecls *floatDecls
	if floatStrict {
		fdecls = collectFloatDecls(files)
	}
	for _, pf := range files {
		if !pf.isTest {
			if inInternal {
				checkUnseededRand(pf.file, report)
				checkContextDiscipline(pf.file, report)
				if !slotOwner {
					checkLiteralSlotWrite(pf.file, report)
				}
				if !goOwner {
					checkGoStatement(pf.file, report)
				}
			}
			if !inCmd && pf.file.Name.Name != "main" {
				checkFmtPrint(pf.file, report)
			}
			if instrumented {
				checkObsDiscipline(pf.file, report)
			}
			if floatStrict {
				checkFloatEquality(pf.file, fdecls, report)
			}
			if llmDir && filepath.Base(pf.path) != "clock.go" {
				checkClockDiscipline(pf.file, report)
			}
			if rfDir {
				checkRecursionAlloc(pf.file, report)
			}
			checkIgnoredDBError(pf.file, report)
		}
		checkMutexCopy(pf.file, mutexStructs, report)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return findings, nil
}

// classifyDir reports whether the directory sits under an internal/ or cmd/
// tree. Fixture packages live under a testdata directory (invisible to the
// go tool); classification uses only the segments after the innermost
// testdata so fixtures can emulate internal/ and cmd/ placement.
func classifyDir(path string) (inInternal, inCmd bool) {
	for _, p := range pathParts(path) {
		switch p {
		case "internal":
			inInternal = true
		case "cmd":
			inCmd = true
		}
	}
	return
}

// pathParts splits path into its segments after the innermost testdata, so
// fixture packages can emulate internal/ and cmd/ placement.
func pathParts(path string) []string {
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = path
	}
	parts := strings.Split(filepath.ToSlash(abs), "/")
	for i := len(parts) - 1; i >= 0; i-- {
		if parts[i] == "testdata" {
			parts = parts[i+1:]
			break
		}
	}
	return parts
}

// inInternalPkg reports whether path lies inside internal/<pkg>, at any
// depth, for a pkg in pkgs.
func inInternalPkg(path string, pkgs map[string]bool) bool {
	parts := pathParts(path)
	for i, p := range parts {
		if p == "internal" && i+1 < len(parts) && pkgs[parts[i+1]] {
			return true
		}
	}
	return false
}

// importName returns the local name under which a file imports the given
// path, or "" when not imported.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// globalRandFns are the math/rand package-level functions backed by the
// global (effectively unseeded, shared) source.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// checkUnseededRand flags package-level math/rand calls (R001).
func checkUnseededRand(f *ast.File, report func(token.Pos, string, string)) {
	randName := importName(f, "math/rand")
	if randName == "" || randName == "_" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != randName || !globalRandFns[sel.Sel.Name] {
			return true
		}
		report(call.Pos(), "R001",
			"call to unseeded global "+randName+"."+sel.Sel.Name+
				"; thread a *rand.Rand from rand.New(rand.NewSource(seed)) for reproducibility")
		return true
	})
}

// fmtPrintFns are the stdout-printing fmt functions.
var fmtPrintFns = map[string]bool{"Print": true, "Printf": true, "Println": true}

// checkFmtPrint flags fmt stdout prints in library packages (R002).
func checkFmtPrint(f *ast.File, report func(token.Pos, string, string)) {
	fmtName := importName(f, "fmt")
	if fmtName == "" || fmtName == "_" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != fmtName || !fmtPrintFns[sel.Sel.Name] {
			return true
		}
		report(call.Pos(), "R002",
			fmtName+"."+sel.Sel.Name+" prints to stdout from library code; accept an io.Writer or return the value")
		return true
	})
}

// collectMutexStructs finds same-package struct types that directly contain a
// sync.Mutex or sync.RWMutex field (embedded or named).
func collectMutexStructs(files []parsedFile) map[string]bool {
	out := map[string]bool{}
	for _, pf := range files {
		syncName := importName(pf.file, "sync")
		if syncName == "" {
			continue
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				t := field.Type
				if se, ok := t.(*ast.SelectorExpr); ok {
					if id, ok := se.X.(*ast.Ident); ok && id.Name == syncName &&
						(se.Sel.Name == "Mutex" || se.Sel.Name == "RWMutex") {
						out[ts.Name.Name] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// checkMutexCopy flags value receivers/params of lock-holding structs (R003).
func checkMutexCopy(f *ast.File, mutexStructs map[string]bool, report func(token.Pos, string, string)) {
	if len(mutexStructs) == 0 {
		return
	}
	flagFields := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if id, ok := field.Type.(*ast.Ident); ok && mutexStructs[id.Name] {
				report(field.Pos(), "R003",
					what+" copies "+id.Name+", which holds a sync mutex; use *"+id.Name)
			}
		}
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		flagFields(fd.Recv, "value receiver of "+fd.Name.Name)
		flagFields(fd.Type.Params, "parameter of "+fd.Name.Name)
	}
}

// checkContextDiscipline flags two cancellation hazards in internal/ library
// code (R005). First, calls to context.Background() or context.TODO(): library
// code must plumb the caller's ctx so Ctrl-C in cmd/ reaches every DBMS and
// LLM call, and a fresh root context silently detaches the work from that
// chain. Second, `go` statements inside functions whose bodies never call a
// .Wait() or .Done() method: without a sync.WaitGroup (or errgroup) joining
// the goroutine before return, cancellation can unwind the caller while the
// goroutine still runs — the leak class the pipeline's drain tests guard
// against. The guard detection is a heuristic over the enclosing function
// body, so a goroutine joined by the caller should hand back its WaitGroup or
// be restructured; a false positive is silenced by keeping the Wait in the
// launching function.
func checkContextDiscipline(f *ast.File, report func(token.Pos, string, string)) {
	ctxName := importName(f, "context")
	if ctxName != "" && ctxName != "_" {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != ctxName || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
				return true
			}
			report(call.Pos(), "R005",
				ctxName+"."+sel.Sel.Name+"() creates a root context in library code; "+
					"accept a ctx parameter so callers can cancel DBMS and LLM work")
			return true
		})
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var goStmts []*ast.GoStmt
		guarded := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				goStmts = append(goStmts, n)
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok &&
					(sel.Sel.Name == "Wait" || sel.Sel.Name == "Done") {
					guarded = true
				}
			}
			return true
		})
		if guarded {
			continue
		}
		for _, g := range goStmts {
			report(g.Pos(), "R005",
				"goroutine launched in "+fd.Name.Name+" with no Wait/Done in the function; "+
					"join it with a sync.WaitGroup (or ctx-aware guard) so cancellation cannot leak it")
		}
	}
}

// instrumentedPkgs are the internal packages whose stage timing and counters
// must flow through internal/obs: timings read the sink clock (span.Now) so
// golden traces can inject a fake clock, and counters are obs.Counter values
// adopted by the collector so snapshot totals can never drift from the
// subsystem's own getters.
var instrumentedPkgs = map[string]bool{
	"pipeline": true, "generator": true, "profiler": true,
	"refine": true, "search": true,
}

// isInstrumentedDir reports whether the directory lies inside one of the
// instrumented internal packages. Like classifyDir it looks only at the
// segments after the innermost testdata so fixtures can emulate placement.
func isInstrumentedDir(path string) bool {
	return inInternalPkg(path, instrumentedPkgs)
}

// checkObsDiscipline flags observability bypasses in instrumented packages
// (R006). Direct time.Now()/time.Since() calls produce timings the trace
// cannot see and golden-trace tests cannot fake; importing sync/atomic means
// a counter is being hand-rolled instead of using obs.Counter, whose values
// the collector adopts by reference.
func checkObsDiscipline(f *ast.File, report func(token.Pos, string, string)) {
	if importName(f, "sync/atomic") != "" {
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "sync/atomic" {
				report(imp.Pos(), "R006",
					"instrumented package imports sync/atomic; use obs.Counter so the collector can adopt the counter by reference")
			}
		}
	}
	timeName := importName(f, "time")
	if timeName == "" || timeName == "_" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != timeName || (sel.Sel.Name != "Now" && sel.Sel.Name != "Since") {
			return true
		}
		report(call.Pos(), "R006",
			timeName+"."+sel.Sel.Name+" bypasses the obs clock in an instrumented package; read time through the span (sp.Now()) so traces and golden tests stay consistent")
		return true
	})
}

// floatStrictPkgs are the internal packages where exact float64 comparison
// is banned (R007): estimator and analyzer arithmetic, where an ==/!= gate
// on a cost or selectivity flips on last-ulp perturbations that are
// semantically noise. Comparisons there go through the shared epsilon helper
// stats.ApproxEqual or an ordered operator.
var floatStrictPkgs = map[string]bool{"plan": true, "analyzer": true}

// isFloatStrictDir reports whether the directory lies inside internal/plan
// or internal/analyzer (any depth). Like classifyDir it looks only at the
// segments after the innermost testdata so fixtures can emulate placement.
func isFloatStrictDir(path string) bool {
	return inInternalPkg(path, floatStrictPkgs)
}

// floatDecls is the package-wide syntactic float64 inventory R007 matches
// expressions against: struct field names typed float64, function and method
// names returning exactly one float64, and package-level var/const names
// that are float64 (declared so, or initialized from a float literal).
type floatDecls struct {
	fields map[string]bool
	funcs  map[string]bool
	vars   map[string]bool
}

// isFloat64Type reports whether a type expression is literally `float64`.
func isFloat64Type(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "float64"
}

// collectFloatDecls builds the package's floatDecls from every file.
func collectFloatDecls(files []parsedFile) *floatDecls {
	d := &floatDecls{fields: map[string]bool{}, funcs: map[string]bool{}, vars: map[string]bool{}}
	for _, pf := range files {
		for _, decl := range pf.file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if r := fd.Type.Results; r != nil && len(r.List) == 1 &&
					len(r.List[0].Names) <= 1 && isFloat64Type(r.List[0].Type) {
					d.funcs[fd.Name.Name] = true
				}
				continue
			}
			gd, ok := decl.(*ast.GenDecl)
			if !ok || (gd.Tok != token.VAR && gd.Tok != token.CONST) {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				isFloat := vs.Type != nil && isFloat64Type(vs.Type)
				if vs.Type == nil {
					for _, v := range vs.Values {
						if bl, ok := v.(*ast.BasicLit); ok && bl.Kind == token.FLOAT {
							isFloat = true
						}
					}
				}
				if isFloat {
					for _, name := range vs.Names {
						d.vars[name.Name] = true
					}
				}
			}
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if isFloat64Type(field.Type) {
					for _, name := range field.Names {
						d.fields[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return d
}

// mathFloatFns are math package functions returning float64 that estimator
// code actually reaches for; used to classify `math.F(...)` operands.
var mathFloatFns = map[string]bool{
	"Abs": true, "Max": true, "Min": true, "Floor": true, "Ceil": true,
	"Round": true, "Trunc": true, "Sqrt": true, "Log": true, "Log2": true,
	"Log10": true, "Pow": true, "Exp": true, "Exp2": true, "Inf": true,
	"Nextafter": true, "Mod": true, "Hypot": true, "Cbrt": true,
}

// isFloatExpr reports whether an expression is syntactically float64-valued:
// a float literal, a declared-float64 name or field, a float64() conversion,
// a math.* float call or constant, a call to a single-float64-result package
// function, or arithmetic over any of these. locals holds the enclosing
// function's float64-declared names.
func isFloatExpr(e ast.Expr, d *floatDecls, locals map[string]bool) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return isFloatExpr(e.X, d, locals)
	case *ast.BasicLit:
		return e.Kind == token.FLOAT
	case *ast.Ident:
		return locals[e.Name] || d.vars[e.Name]
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok && id.Name == "math" {
			// math constants (MaxFloat64, Pi, ...) — everything except the
			// integer limits is a float.
			return !strings.Contains(e.Sel.Name, "Int")
		}
		return d.fields[e.Sel.Name]
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			return fun.Name == "float64" || d.funcs[fun.Name]
		case *ast.SelectorExpr:
			if id, ok := fun.X.(*ast.Ident); ok && id.Name == "math" {
				return mathFloatFns[fun.Sel.Name]
			}
			return d.funcs[fun.Sel.Name]
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			return isFloatExpr(e.X, d, locals) || isFloatExpr(e.Y, d, locals)
		}
	case *ast.UnaryExpr:
		if e.Op == token.SUB {
			return isFloatExpr(e.X, d, locals)
		}
	}
	return false
}

// checkFloatEquality flags ==/!= where either operand is float64-valued
// (R007). Walks each function in source order, tracking float64-declared
// locals (parameters, named results, var declarations, and := assignments
// from float expressions) as it goes.
func checkFloatEquality(f *ast.File, d *floatDecls, report func(token.Pos, string, string)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		locals := map[string]bool{}
		addFields := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, field := range fl.List {
				if isFloat64Type(field.Type) {
					for _, name := range field.Names {
						locals[name.Name] = true
					}
				}
			}
		}
		addFields(fd.Type.Params)
		addFields(fd.Type.Results)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				addFields(n.Type.Params)
				addFields(n.Type.Results)
			case *ast.ValueSpec:
				if n.Type != nil && isFloat64Type(n.Type) {
					for _, name := range n.Names {
						locals[name.Name] = true
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && isFloatExpr(rhs, d, locals) {
						locals[id.Name] = true
					}
				}
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isFloatExpr(n.X, d, locals) || isFloatExpr(n.Y, d, locals) {
					report(n.Pos(), "R007",
						"exact float64 comparison ("+n.Op.String()+") in estimator code; "+
							"compare through stats.ApproxEqual (the shared epsilon helper) or an ordered operator")
				}
			}
			return true
		})
	}
}

// slotOwnerPkgs are the internal packages allowed to write an AST literal's
// value (R008): internal/sqlparser owns the AST types themselves. Everywhere
// else — internal/plan included, since nothing writes a compiled statement
// after Compile — a `.Value =` write on an AST literal mutates a skeleton
// that concurrent lock-free probes are reading; values must travel through a
// bound parameter vector (CompiledQuery.BindVals, read by slot index) instead.
var slotOwnerPkgs = map[string]bool{"sqlparser": true}

// isSlotOwnerDir reports whether the directory lies inside internal/sqlparser
// (any depth). Like classifyDir it looks only at the
// segments after the innermost testdata so fixtures can emulate placement.
func isSlotOwnerDir(path string) bool {
	return inInternalPkg(path, slotOwnerPkgs)
}

// checkLiteralSlotWrite flags assignments into a `.Value` field in files that
// import the SQL AST package (R008). After plan compilation the only legal
// carrier for probe values is the immutable value environment; writing a
// literal slot from plan, engine, exec, profiler, or any other non-owner package
// re-introduces the shared-AST mutation that serialized measured probes.
// The check is syntactic (no type information), so it keys on the AST import:
// a file that never imports internal/sqlparser cannot hold an AST literal.
func checkLiteralSlotWrite(f *ast.File, report func(token.Pos, string, string)) {
	if importName(f, "sqlbarber/internal/sqlparser") == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range assign.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Value" {
				continue
			}
			report(sel.Pos(), "R008",
				"write to a compiled statement's literal slot outside internal/sqlparser; "+
					"probe values must travel through the bound parameter vector (CompiledQuery.BindVals), never AST mutation")
		}
		return true
	})
}

// dbErrMethods are engine.DB methods whose last return is an error; calling
// them as bare statements drops it.
var dbErrMethods = map[string]bool{
	"Explain": true, "Execute": true, "Cost": true, "SaveSnapshot": true,
}

// checkIgnoredDBError flags bare-statement calls to error-returning DB
// methods (R004).
func checkIgnoredDBError(f *ast.File, report func(token.Pos, string, string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !dbErrMethods[sel.Sel.Name] {
			return true
		}
		// Skip chained/selector-package calls that are clearly not a DB
		// receiver method, e.g. pkg.Execute — still flagged; the repo reserves
		// these names for engine.DB, and false positives are silenced with an
		// explicit `_ =` assignment.
		report(stmt.Pos(), "R004",
			sel.Sel.Name+" returns an error that is discarded; handle it or assign to _ explicitly")
		return true
	})
}

// isLLMDir reports whether the directory lies inside internal/llm (any
// depth, so internal/llm/resilience counts). Like classifyDir it looks only
// at the segments after the innermost testdata so fixtures can emulate
// placement.
func isLLMDir(path string) bool {
	return inInternalPkg(path, map[string]bool{"llm": true})
}

// isRFDir reports whether the directory lies inside internal/rf (any
// depth). Like classifyDir it looks only at the segments after the innermost
// testdata so fixtures can emulate placement.
func isRFDir(path string) bool {
	return inInternalPkg(path, map[string]bool{"rf": true})
}

// checkRecursionAlloc flags make() calls inside self-recursive functions in
// internal/rf (R010). Tree growing recurses once per node, so an allocation
// inside the recursion multiplies into thousands of allocations per tree and
// dominates training time — the forest keeps all per-node scratch on the
// builder and reuses it across the recursion. Like the other per-package
// rules it skips test files, so the naive pointer oracle in
// reference_test.go may allocate per node.
func checkRecursionAlloc(f *ast.File, report func(token.Pos, string, string)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := fd.Name.Name
		recursive := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == name {
					recursive = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == name {
					recursive = true
				}
			}
			return !recursive
		})
		if !recursive {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" {
				report(call.Pos(), "R010",
					"make() inside recursive function "+name+" allocates once per tree node on the training hot path; "+
						"hoist the buffer to the builder and reuse it across the recursion")
			}
			return true
		})
	}
}

// clockBypassFns are the time-package functions that block or schedule on
// the real clock; in the oracle stack they must flow through llm.Clock.
var clockBypassFns = map[string]bool{"Sleep": true, "After": true}

// checkClockDiscipline flags direct time.Sleep/time.After calls in
// internal/llm packages (R009). Every delay in the oracle stack — retry
// backoff and injected fault stalls — must go through the llm.Clock
// abstraction so a FakeClock keeps tests deterministic and free of
// wall-clock time. clock.go is the one exempt file: it is the
// abstraction's own implementation.
func checkClockDiscipline(f *ast.File, report func(token.Pos, string, string)) {
	timeName := importName(f, "time")
	if timeName == "" || timeName == "_" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != timeName || !clockBypassFns[sel.Sel.Name] {
			return true
		}
		report(call.Pos(), "R009",
			"direct "+timeName+"."+sel.Sel.Name+" in internal/llm bypasses the Clock abstraction; "+
				"take an llm.Clock (SystemClock in production, FakeClock in tests) so every delay stays deterministic")
		return true
	})
}

// goOwnerPkgs are the internal packages allowed to start goroutines (R011):
// the fan-out helper, which runs every bounded indexed fan-out, and the job
// daemon, whose worker pool and job goroutines live as long as the server.
var goOwnerPkgs = map[string]bool{"fanout": true, "server": true}

// checkGoStatement flags every `go` statement in an internal package other
// than internal/fanout and internal/server (R011). Indexed work runs through
// fanout.Run, which keeps the worker count, the slot scratch and the stop
// rule in one place; a hand-written pool beside it would bring back its own
// serial path and its own merge order.
func checkGoStatement(f *ast.File, report func(token.Pos, string, string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			report(g.Pos(), "R011",
				"go statement outside internal/fanout and internal/server; "+
					"run indexed work through fanout.Run and merge its results in index order")
		}
		return true
	})
}
