package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderCacheIdentity compares a cold-cache run against a warm-cache
// run of the same analysis over every fixture and requires byte-identical
// diagnostics: the process-wide `go list` and type-check caches must be
// invisible to the output, cached or not.
func TestLoaderCacheIdentity(t *testing.T) {
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		var b strings.Builder
		for _, dir := range dirs {
			prog, err := LoadDir(filepath.Join("testdata", "src", dir.Name()), "stabl/internal/lint/testdata/"+dir.Name())
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range Run(prog, All()) {
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
		}
		return b.String()
	}
	resetLoaderCache()
	cold := render()
	warm := render()
	if cold == "" {
		t.Fatal("the fixtures produced no diagnostics; identity check is vacuous")
	}
	if cold != warm {
		t.Fatalf("diagnostics differ between cold and warm loader caches:\n--- cold\n%s--- warm\n%s", cold, warm)
	}
}
