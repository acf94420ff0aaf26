package offnetscope

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestInferenceImportBoundary pins the rule that inference never reads
// simulator ground truth: the inference pipeline, the corpus reader and
// the crash-safe write primitive must not import the world simulator,
// the scan emulator or the loopback server farm — not even through
// another package. The walk follows this module's imports only; the
// standard library cannot import back into it.
func TestInferenceImportBoundary(t *testing.T) {
	const module = "offnetscope/"
	forbidden := map[string]bool{
		module + "internal/worldsim":  true,
		module + "internal/scanners":  true,
		module + "internal/servefarm": true,
	}
	for _, root := range []string{"internal/core", "internal/corpus", "internal/durable"} {
		// via records the importer each package was first reached from,
		// so a violation prints its whole import chain.
		via := map[string]string{module + root: ""}
		queue := []string{module + root}
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			pkg, err := build.ImportDir(filepath.FromSlash(strings.TrimPrefix(path, module)), 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range pkg.Imports {
				if !strings.HasPrefix(imp, module) {
					continue
				}
				if _, seen := via[imp]; seen {
					continue
				}
				via[imp] = path
				if forbidden[imp] {
					chain := imp
					for p := path; p != ""; p = via[p] {
						chain = p + " -> " + chain
					}
					t.Errorf("%s imports ground truth: %s", root, chain)
					continue
				}
				queue = append(queue, imp)
			}
		}
	}
}
