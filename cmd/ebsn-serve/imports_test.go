package main

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestImportGraph holds the daemon's import rule (also a CI step): it
// links neither the paper experiments, the literal Fagin index nor the
// baselines, none of which serves a query.
func TestImportGraph(t *testing.T) {
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	for _, banned := range []string{"ebsn/internal/experiments", "ebsn/internal/experiments/fagin", "ebsn/internal/baselines"} {
		for _, dep := range deps {
			if dep == banned {
				t.Errorf("cmd/ebsn-serve imports %s", banned)
			}
		}
	}
	if len(deps) == 0 || deps[len(deps)-1] != "ebsn/cmd/ebsn-serve" {
		t.Fatalf("go list -deps printed no dependency graph of the daemon: %q", out)
	}
}
