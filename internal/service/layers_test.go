package service

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestImportLayers pins the import graph the unit core relies on: the
// service package runs RunUnits for both daemons, so it must not reach
// the fleet executor or the HTTP client built on top of it, and the
// pipeline packages below it must reach neither. The walk follows every
// module-local non-test import, so an indirect path counts too.
func TestImportLayers(t *testing.T) {
	const module = "repro/"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// reach returns every module package pkg imports, directly or not.
	reach := func(pkg string) map[string]bool {
		seen := map[string]bool{}
		stack := []string{pkg}
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			bp, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(p, module)), 0)
			if err != nil {
				t.Fatalf("reading %s: %v", p, err)
			}
			for _, imp := range bp.Imports {
				if strings.HasPrefix(imp, module) && !seen[imp] {
					seen[imp] = true
					stack = append(stack, imp)
				}
			}
		}
		return seen
	}
	forbidden := []string{"repro/internal/shard", "repro/internal/service/client"}
	for _, pkg := range []string{"repro/internal/service", "repro/internal/core", "repro/internal/bigdata/cluster"} {
		deps := reach(pkg)
		if len(deps) == 0 {
			t.Fatalf("%s imports no module package: the walk read nothing", pkg)
		}
		for _, bad := range forbidden {
			if deps[bad] {
				t.Errorf("%s imports %s", pkg, bad)
			}
		}
	}
	// The pipeline sits below the job layer altogether.
	for _, pkg := range []string{"repro/internal/core", "repro/internal/bigdata/cluster"} {
		if reach(pkg)["repro/internal/service"] {
			t.Errorf("%s imports repro/internal/service", pkg)
		}
	}
}
