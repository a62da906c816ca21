package daemon

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// handlerRoutes returns the patterns the Handler method declared in
// file registers, read from its source: every string literal of the
// form "METHOD /path" passed to a call in its body. Handler is the one
// place a server's routes are declared.
func handlerRoutes(t *testing.T, file string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pattern := regexp.MustCompile(`^(GET|PUT|POST|DELETE) /`)
	routes := map[string]bool{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "Handler" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && pattern.MatchString(s) {
					routes[s] = true
				}
			}
			return true
		})
	}
	if len(routes) == 0 {
		t.Fatalf("no routes found in %s's Handler", file)
	}
	return routes
}

// documentedRoutes returns the "METHOD /path" routes API.md names, in
// its daemon sections and under "## The gateway surface": every one in
// a "###" heading, and the first on each line of a "- " list (the
// Operations list). Query strings and "[?...]" suffixes are dropped.
// The daemon sections end where the gateway's begin.
func documentedRoutes(t *testing.T) (daemon, gateway map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	doc, gw, found := strings.Cut(string(raw), "\n## The gateway surface")
	if !found {
		t.Fatal(`API.md has no "## The gateway surface" section to end the daemon's`)
	}
	gw, _, _ = strings.Cut(gw, "\n## ")
	return routesIn(doc), routesIn(gw)
}

func routesIn(doc string) map[string]bool {
	code := regexp.MustCompile("`((?:GET|PUT|POST|DELETE) /[^`\\[?]*)[^`]*`")
	routes := map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "### "):
			for _, m := range code.FindAllStringSubmatch(line, -1) {
				routes[m[1]] = true
			}
		case strings.HasPrefix(line, "- "):
			if m := code.FindStringSubmatch(line); m != nil {
				routes[m[1]] = true
			}
		}
	}
	return routes
}

// TestDaemonRoutesDocumented keeps API.md's daemon sections and the
// routes Handler serves one table: a route missing from the document, or
// a documented route the daemon does not serve, fails.
func TestDaemonRoutesDocumented(t *testing.T) {
	served := handlerRoutes(t, "daemon.go")
	documented, _ := documentedRoutes(t)
	var missing, stale []string
	for r := range served {
		if !documented[r] {
			missing = append(missing, r)
		}
	}
	for r := range documented {
		if !served[r] {
			stale = append(stale, r)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("routes the daemon serves but API.md does not document: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("routes API.md documents but the daemon does not serve: %v", stale)
	}
}

// TestGatewayRoutesDocumented does the same for the gateway, whose
// Handler serves the daemon's function API across backends plus routes
// of its own: every pattern it registers must be documented, in the
// daemon sections or under "## The gateway surface", and every route
// that section names must be served.
func TestGatewayRoutesDocumented(t *testing.T) {
	served := handlerRoutes(t, "../gateway/gateway.go")
	shared, own := documentedRoutes(t)
	var missing, stale []string
	for r := range served {
		if !shared[r] && !own[r] {
			missing = append(missing, r)
		}
	}
	for r := range own {
		if !served[r] {
			stale = append(stale, r)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("routes the gateway serves but API.md does not document: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("routes API.md's gateway section documents but the gateway does not serve: %v", stale)
	}
}
