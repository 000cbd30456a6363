package lint

import (
	"fmt"
	"sort"
	"strings"
)

// All returns every registered analyzer, sorted by name.
func All() []*Analyzer {
	all := []*Analyzer{
		Wallclock,
		GlobalRand,
		CrossPartitionState,
		SnapshotFields,
		GoroutinePurity,
		EffortBound,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// analyzerNames renders the valid names for error messages, mirroring
// core.faultKindNames so `stabl lint -analyzers bogus` and
// `stabl run -fault bogus` fail with the same UX.
func analyzerNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// Select resolves a comma-separated list of analyzer names. An empty list
// selects every analyzer, as does any list containing "all" — so
// `-analyzers all,wallclock` means "everything" rather than erroring on a
// literal analyzer named "all"; an unknown name is an error that enumerates
// the valid ones.
func Select(list string) ([]*Analyzer, error) {
	list = strings.TrimSpace(list)
	if list == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	sawAll := false
	seen := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "all" {
			// "all" anywhere in the list wins: the named analyzers are a
			// subset of it by definition. They are still validated, so
			// `all,bogus` errors instead of silently passing.
			sawAll = true
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q (valid analyzers: %s)", name, analyzerNames())
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, a)
		}
	}
	if sawAll {
		return All(), nil
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: no analyzers selected (valid analyzers: %s)", analyzerNames())
	}
	return out, nil
}
