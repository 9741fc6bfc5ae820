package nfsrdma

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// documentedCommands are the commands whose invocations the docs show.
var documentedCommands = []string{"nfsrdma-bench", "nfsrdma-experiments"}

// commandDocs are the documents that show them.
var commandDocs = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// TestDocsNameOnlyDefinedFlags is the docs lint: every flag a document
// passes to one of documentedCommands must be one that the command's
// main.go defines, so a flag deleted from a command cannot live on in a
// recipe. An invocation is the command's name and the text after it up to
// the end of its line (a trailing backslash continues it), the end of its
// inline code span, or a shell comment, pipe or separator.
func TestDocsNameOnlyDefinedFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	for _, cmd := range documentedCommands {
		defined[cmd] = definedFlags(t, filepath.Join("cmd", cmd, "main.go"))
	}
	flagRE := regexp.MustCompile(`(?:^|[\s\[])--?([A-Za-z][\w-]*)`)
	for _, doc := range commandDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range invocationLines(string(text)) {
			for _, cmd := range documentedCommands {
				for rest := line; ; {
					at := strings.Index(rest, cmd)
					if at < 0 {
						break
					}
					rest = rest[at+len(cmd):]
					args := rest
					if end := strings.IndexAny(args, "`#|;&"); end >= 0 {
						args = args[:end]
					}
					for _, m := range flagRE.FindAllStringSubmatch(args, -1) {
						if !defined[cmd][m[1]] {
							t.Errorf("%s:%d: %s is passed -%s, which cmd/%s/main.go does not define", doc, i+1, cmd, m[1], cmd)
						}
					}
				}
			}
		}
	}
}

// definedFlags returns the names of the flags main.go defines: the string
// literal each flag.X or flag.XVar call is given.
func definedFlags(t *testing.T, path string) map[string]bool {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name == "Parse" {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				names[name] = true
				break
			}
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("%s defines no flags", path)
	}
	return names
}

// invocationLines returns text's lines, indexed by line number, with each
// backslash-continued line and each inline code span that wraps a line
// joined onto the line it starts on (a code fence is not a span).
func invocationLines(text string) []string {
	lines := strings.Split(text, "\n")
	out := make([]string, len(lines))
	inSpan := false // an inline code span is open at the end of the line
	for i := 0; i < len(lines); i++ {
		start := i
		joined := lines[i]
		for {
			cont := strings.HasSuffix(joined, `\`)
			ticks := strings.Count(strings.ReplaceAll(lines[i], "```", ""), "`")
			inSpan = inSpan != (ticks%2 == 1)
			if (!cont && !inSpan) || i+1 >= len(lines) {
				break
			}
			joined = strings.TrimSuffix(joined, `\`) + " " + lines[i+1]
			i++
		}
		out[start] = joined
	}
	return out
}
