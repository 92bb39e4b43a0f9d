package analysis

import "strings"

// deterministicPkgs are the internal packages whose results must be
// byte-identical across runs, worker counts, and hosts (the Table I
// reproduction pipeline). Ambient randomness, wall-clock reads, and
// environment lookups are banned here outright.
var deterministicPkgs = map[string]bool{
	"mobility":    true,
	"network":     true,
	"routing":     true,
	"sim":         true,
	"experiments": true,
	"traffic":     true,
	"linkcap":     true,
	"scheduler":   true,
	"flow":        true,
	"capacity":    true,
	"engine":      true,
	"scenario":    true,
	// obs is the observability layer: it renders metric dumps and span
	// trees that must be byte-reproducible, so every timestamp has to
	// flow through an injected Clock rather than a wall-clock read.
	"obs": true,
	// server replays cached runs byte-for-byte and stamps run statuses,
	// so all of its timekeeping must come from the injected obs.Clock;
	// a raw time.Now would leak wall-clock into statuses and manifests.
	"server": true,
	// cellcache replays persisted cell results byte-identically across
	// runs and hosts: entries carry no timestamps and keys derive only
	// from scope + seed, so ambient clock/env/randomness reads would
	// undermine the cache's share-a-directory-across-machines contract.
	"cellcache": true,
	// cells is the per-cell outcome artifact a sharded run writes and
	// capmerge folds back together; its bytes must reproduce exactly for
	// the merged report to be byte-identical to an unsharded run.
	"cells": true,
	// shardmerge reassembles sharded sweeps into reports byte-identical
	// to an unsharded run — any ambient nondeterminism would break that
	// equivalence outright.
	"shardmerge": true,
	// delay aggregates per-packet delay statistics whose quantiles and
	// cross-seed means must reproduce byte-identically across worker
	// counts and shard merges; its folds depend only on observation
	// order, never on ambient state.
	"delay": true,
}

// hotAllocPkgs are the slot-loop hot paths where the scratch-arena
// discipline holds: buffers are allocated once per cell and reused, so
// the per-slot inner loops run allocation-free (measured by perfbench's
// allocs_per_op, enforced by the hotalloc analyzer).
var hotAllocPkgs = map[string]bool{
	"sim":       true,
	"mobility":  true,
	"routing":   true,
	"scheduler": true,
	"spatial":   true,
	// delay collectors run inside per-pair/per-packet observation loops;
	// all state is allocated at collector construction.
	"delay": true,
}

// floatEqPkgs are the packages computing order-notation quantities
// (capacity exponents, scaling fits, measured throughput) where exact
// floating-point equality is essentially always a bug.
var floatEqPkgs = map[string]bool{
	"capacity": true,
	"scaling":  true,
	"measure":  true,
}

// InScope reports whether the named analyzer applies to the package
// with the given import path. Test files are excluded at load time, so
// this only partitions non-test code:
//
//   - nondeterminism: the deterministic simulation packages only
//   - floateq:        capacity, scaling, measure
//   - hotalloc:       the slot-loop hot paths (sim, mobility, routing,
//     scheduler, spatial)
//   - cachekey:       the scenario package (owner of the cellScope
//     cache-key projection)
//   - nopanic, ctxflow: everywhere except cmd/ and examples/ binaries
//   - maporder, errdrop, goroleak, staleignore: everywhere
func InScope(analyzer, pkgPath string) bool {
	segs := strings.Split(pkgPath, "/")
	switch analyzer {
	case "nondeterminism":
		return hasInternalPkg(segs, deterministicPkgs)
	case "floateq":
		return hasInternalPkg(segs, floatEqPkgs)
	case "hotalloc":
		return hasInternalPkg(segs, hotAllocPkgs)
	case "cachekey":
		return hasInternalPkg(segs, map[string]bool{"scenario": true})
	case "nopanic", "ctxflow":
		for _, s := range segs {
			if s == "cmd" || s == "examples" {
				return false
			}
		}
		return true
	case "maporder", "errdrop", "goroleak", "staleignore":
		return true
	}
	return false
}

// hasInternalPkg reports whether the path has an "internal" segment
// directly followed by one of the named packages.
func hasInternalPkg(segs []string, names map[string]bool) bool {
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) && names[segs[i+1]] {
			return true
		}
	}
	return false
}
