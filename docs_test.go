package soar

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// tree is what the module's Go files declare, in the forms the docs
// name it by.
type tree struct {
	// idents maps a package name to its top-level identifiers.
	idents map[string]map[string]bool
	// members maps "pkg.Type" to the type's methods and fields.
	members map[string]map[string]bool
	// types maps a type name to the members of every type so named,
	// for the Type.Member form that leaves the package implied.
	types map[string]map[string]bool
	// funcs holds every top-level function name (Test*, Fuzz* and
	// Benchmark* among them).
	funcs map[string]bool
	// strs holds every string literal: span and metric names such as
	// sched.solve are declared as strings, not identifiers.
	strs map[string]bool
}

// parseTree parses every Go file under root. A _test package counts as
// the package it tests; main packages are not named by the docs.
func parseTree(t *testing.T, root string) *tree {
	t.Helper()
	tr := &tree{
		idents:  map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		types:   map[string]map[string]bool{},
		funcs:   map[string]bool{},
		strs:    map[string]bool{},
	}
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(tr.idents, pkg, d.Name.Name)
					tr.funcs[d.Name.Name] = true
				} else if typ := typeName(d.Recv.List[0].Type); typ != "" {
					add(tr.members, pkg+"."+typ, d.Name.Name)
					add(tr.types, typ, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(tr.idents, pkg, s.Name.Name)
						if tr.types[s.Name.Name] == nil {
							tr.types[s.Name.Name] = map[string]bool{}
						}
						for _, m := range fieldNames(s.Type) {
							add(tr.members, pkg+"."+s.Name.Name, m)
							add(tr.types, s.Name.Name, m)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(tr.idents, pkg, n.Name)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					tr.strs[v] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	delete(tr.idents, "main")
	return tr
}

// typeName names a receiver's or embedded field's type: T for T, *T,
// T[K] and pkg.T.
func typeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.Sel
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// fieldNames lists a struct's fields (an embedded field by its type's
// name) or an interface's methods.
func fieldNames(e ast.Expr) []string {
	var list *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		list = x.Fields
	case *ast.InterfaceType:
		list = x.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range list.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
		if len(f.Names) == 0 {
			out = append(out, typeName(f.Type))
		}
	}
	return out
}

var (
	fenceRe = regexp.MustCompile("(?s)```.*?```")
	spanRe  = regexp.MustCompile("`[^`\n]+`")
	// testRe matches a test, fuzz target or benchmark name; a trailing
	// * makes it a prefix.
	testRe = regexp.MustCompile(`(^|[^\w.])((?:Test|Fuzz|Benchmark)\w*)(\*?)`)
	// qualRe matches pkg.Ident, pkg.Type.Member and Type.Member, not
	// a path component.
	qualRe = regexp.MustCompile(`(^|[^\w./-])([A-Za-z]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// staleNames returns each backticked name in doc that the tree does
// not declare.
func (tr *tree) staleNames(doc string) []string {
	var stale []string
	for _, span := range spanRe.FindAllString(fenceRe.ReplaceAllString(doc, ""), -1) {
		for _, m := range testRe.FindAllStringSubmatch(span, -1) {
			name, prefix := m[2], m[3] == "*"
			found := tr.funcs[name]
			for f := range tr.funcs {
				found = found || prefix && strings.HasPrefix(f, name)
			}
			if !found {
				stale = append(stale, span+": "+name+m[3])
			}
		}
		for _, m := range qualRe.FindAllStringSubmatch(span, -1) {
			pkg, ident, member := m[2], m[3], m[4]
			switch {
			case tr.strs[pkg+"."+ident] || ident == "go":
				// A span or metric name, or a file name.
			case tr.idents[pkg] != nil && !tr.idents[pkg][ident]:
				stale = append(stale, span+": "+pkg+"."+ident)
			case tr.idents[pkg] != nil && member != "" && !tr.members[pkg+"."+ident][member]:
				stale = append(stale, span+": "+pkg+"."+ident+"."+member)
			case tr.idents[pkg] == nil && token.IsExported(pkg) && tr.types[pkg] != nil && !tr.types[pkg][ident]:
				stale = append(stale, span+": "+pkg+"."+ident)
			}
		}
	}
	return stale
}

// TestStaleNamesFindsEachForm: every form the docs check is found when
// it names nothing, and passes when it names what the tree declares.
func TestStaleNamesFindsEachForm(t *testing.T) {
	tr := parseTree(t, ".")
	doc := "`TestNoSuchTest` `BenchmarkNoSuch*` `sched.NoSuch` `sched.Config.NoSuch` `Config.NoSuch`\n" +
		"`TestStaleNamesFindsEachForm` `TestStaleNames*` `BenchmarkGather/n=64` `sched.Config.Fence` `Config.Fence`\n" +
		"`sched.solve` `internal/sched/sched.go` `soar.go` `state.ckpt` `cl.Close`\n" +
		"```\n`sched.FencedNoSuch`\n```\n"
	want := []string{
		"`TestNoSuchTest`: TestNoSuchTest",
		"`BenchmarkNoSuch*`: BenchmarkNoSuch*",
		"`sched.NoSuch`: sched.NoSuch",
		"`sched.Config.NoSuch`: sched.Config.NoSuch",
		"`Config.NoSuch`: Config.NoSuch",
	}
	if got := tr.staleNames(doc); !slices.Equal(got, want) {
		t.Fatalf("staleNames =\n%q\nwant\n%q", got, want)
	}
}

// cli is what the two binaries accept, read from their sources:
// soar-naasd's flags and the commands soarctl's main dispatches.
type cli struct {
	flags, cmds map[string]bool
}

// parseCLI collects every flag.X("name", ...) definition in
// cmd/soar-naasd/main.go and every string case in cmd/soarctl/main.go.
func parseCLI(t *testing.T) cli {
	t.Helper()
	c := cli{flags: map[string]bool{}, cmds: map[string]bool{}}
	parse := func(path string, visit func(ast.Node)) {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			visit(n)
			return true
		})
	}
	str := func(e ast.Expr) (string, bool) {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		v, err := strconv.Unquote(lit.Value)
		return v, err == nil
	}
	parse("cmd/soar-naasd/main.go", func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" {
				if name, ok := str(call.Args[0]); ok {
					c.flags[name] = true
				}
			}
		}
	})
	parse("cmd/soarctl/main.go", func(n ast.Node) {
		if cc, ok := n.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				if name, ok := str(e); ok {
					c.cmds[name] = true
				}
			}
		}
	})
	if len(c.flags) == 0 || len(c.cmds) == 0 {
		t.Fatalf("read %d daemon flags and %d soarctl commands from the sources", len(c.flags), len(c.cmds))
	}
	return c
}

var (
	// codeRe matches a fenced block or a backtick span: the places docs
	// write a command line.
	codeRe = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	// flagRe matches a flag token (-name or -name=value), not -1.
	flagRe = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(=.*)?$`)
	// flagRowRe matches the backticked flags of a flag-table row.
	flagRowRe = regexp.MustCompile("`-([A-Za-z][\\w-]*)")
)

// staleCLI returns each command line in doc's code — a soar-naasd
// invocation's flags, a soarctl invocation's command — that the
// binaries do not accept, and each row of the "Daemon flags:" table
// whose flag soar-naasd does not define.
func (c cli) staleCLI(doc string) []string {
	var stale []string
	for _, code := range codeRe.FindAllString(doc, -1) {
		for _, line := range strings.Split(strings.Trim(code, "`"), "\n") {
			fields := strings.Fields(line)
			for i, f := range fields {
				switch f[strings.LastIndex(f, "/")+1:] {
				case "soar-naasd":
				flags:
					for _, tok := range fields[i+1:] {
						switch {
						case strings.ContainsAny(tok[:1], "&|;#>"):
							break flags
						case flagRe.MatchString(tok):
							if name := flagRe.FindStringSubmatch(tok)[1]; !c.flags[name] {
								stale = append(stale, "soar-naasd -"+name)
							}
						}
					}
				case "soarctl":
					if i+1 < len(fields) && !strings.HasPrefix(fields[i+1], "<") && !c.cmds[fields[i+1]] {
						stale = append(stale, "soarctl "+fields[i+1])
					}
				}
			}
		}
	}
	if _, table, ok := strings.Cut(doc, "Daemon flags:\n\n"); ok {
		for _, row := range strings.Split(table, "\n") {
			if !strings.HasPrefix(row, "|") {
				break
			}
			for _, m := range flagRowRe.FindAllStringSubmatch(strings.Split(row, "|")[1], -1) {
				if !c.flags[m[1]] {
					stale = append(stale, "flag table row -"+m[1])
				}
			}
		}
	}
	return stale
}

// TestStaleCLIFindsEachForm: a flag soar-naasd does not define, in an
// invocation or a flag-table row, and a command soarctl does not
// dispatch, are found; what the binaries accept passes.
func TestStaleCLIFindsEachForm(t *testing.T) {
	c := parseCLI(t)
	doc := "`soar-naasd -n 64 -shard -1 -capacity=4 -nosuch x` and `soarctl top -once`, `soarctl nosuch -x`,\n" +
		"```sh\ngo run ./cmd/soar-naasd -addr :7070 -gone & go run ./cmd/soarctl <command>\n```\n" +
		"Daemon flags:\n\n| flag | meaning |\n|---|---|\n| `-replicas N`, `-stale N` | x |\n\nafter `-table`\n"
	want := []string{"soar-naasd -nosuch", "soarctl nosuch", "soar-naasd -gone", "flag table row -stale"}
	if got := c.staleCLI(doc); !slices.Equal(got, want) {
		t.Fatalf("staleCLI =\n%q\nwant\n%q", got, want)
	}
}

// TestDocsNameOnlyDeclaredCode fails when README.md or DESIGN.md names,
// in backticks, a test, fuzz target, benchmark or package-qualified
// identifier the tree does not declare; when a soar-naasd invocation in
// their code, or a row of README's daemon flag table, names a flag
// cmd/soar-naasd does not define; and when a soarctl invocation names a
// command cmd/soarctl does not dispatch. CHANGES.md, EXPERIMENTS.md and
// ROADMAP.md record history and are not checked.
func TestDocsNameOnlyDeclaredCode(t *testing.T) {
	tr := parseTree(t, ".")
	c := parseCLI(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range tr.staleNames(string(b)) {
			t.Errorf("%s names what the tree does not declare: %s", doc, s)
		}
		for _, s := range c.staleCLI(string(b)) {
			t.Errorf("%s names what the binaries do not accept: %s", doc, s)
		}
	}
}
