package gem5aladdin

// Design-space exploration at the root of the module: the sweep engine,
// Pareto extraction, and EDP optimization that back the paper's co-design
// studies (Figs 1, 3, 8-10), promoted from internal/dse so programs can
// sweep design points without shelling out to cmd/dse. See ExampleSweep
// for the end-to-end workflow.

import (
	"context"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/soc"
)

// DesignPoint is one evaluated design: the configuration and its result.
type DesignPoint = dse.Point

// DesignSpace is a set of evaluated design points. Beyond the package-level
// ParetoFront and EDPOptimal, it carries the constrained-optimization
// queries FastestUnderPower and LowestPowerWithin.
type DesignSpace = dse.Space

// SweepOptions tunes the sweep's worker pool: Workers sizes it (<= 0
// selects GOMAXPROCS; each worker owns a reusable soc.Runner, recycling
// simulation state between design points), and Progress (when non-nil)
// receives (done, total) after each completed point. The zero value is the
// default sweep.
type SweepOptions = dse.SweepOptions

// Sweep evaluates every configuration over the compiled kernel, in
// parallel across the option pool; the artifact is shared read-only by
// every worker. Each run owns a private simulation engine, so the results
// are deterministic regardless of goroutine scheduling. Cancelling ctx (or
// exceeding its deadline) stops the sweep at the next design-point
// boundary and returns ctx.Err() with no partial space. Impossible design
// points are rejected up front with a *soc.ConfigError; filter candidate
// lists with Config.Validate (as CacheConfigs does) when enumerating
// aggressively.
func Sweep(ctx context.Context, k *Kernel, cfgs []Config, opts SweepOptions) (DesignSpace, error) {
	return dse.Sweep(ctx, k, cfgs, opts)
}

// RetryPolicy bounds how a sweep retries an aborted design point before
// recording it as failed; only fault-injection aborts are retried (stalls
// and sanitizer violations are deterministic properties of the config).
type RetryPolicy = dse.RetryPolicy

// ParetoFront returns the points of s not dominated in (runtime, power),
// sorted by runtime: the frontier the paper's Fig 8 plots.
func ParetoFront(s DesignSpace) DesignSpace { return s.ParetoFront() }

// EDPOptimal returns the point of s with the minimum energy-delay product,
// the co-design winner of Figs 1 and 10. ok is false on an empty space —
// which a fault-heavy sweep can legally produce once every poisoned point
// has been compacted away.
func EDPOptimal(s DesignSpace) (DesignPoint, bool) { return s.EDPOptimal() }

// ErrEmptySpace is the sentinel for design-space queries that need at least
// one evaluated point but found none; EDP-improvement comparisons wrap it
// when a scenario sweep comes back empty. Test with errors.Is.
var ErrEmptySpace = dse.ErrEmptySpace

// PointKey returns the content address of one design point: a hex SHA-256
// over the kernel name and the canonical encoding of cfg. Result caches
// (the sweep service's, or your own) use it to deduplicate and reuse
// simulations of identical design points.
func PointKey(kernel string, cfg Config) string { return dse.PointKey(kernel, cfg) }

// SweepAxes sizes the sweep axes; see QuickSweepAxes and FullSweepAxes.
type SweepAxes = dse.SweepAxes

// QuickSweepAxes returns pruned sweep axes for tests and fast iteration:
// lanes and memory sizes are kept, line size and associativity pin to
// their defaults.
func QuickSweepAxes() SweepAxes { return dse.QuickAxes() }

// FullSweepAxes returns the complete Fig 3 parameter table.
func FullSweepAxes() SweepAxes { return dse.FullAxes() }

// SpadConfigs enumerates lanes x partitions design points for Isolated or
// DMA memory systems over the given base configuration.
func SpadConfigs(base Config, mem MemKind, lanes, partitions []int) []Config {
	return dse.SpadConfigs(base, mem, lanes, partitions)
}

// CacheConfigs enumerates cache design points (lanes x size x line x ports
// x associativity), silently skipping geometrically impossible
// combinations (e.g. 2KB/64B/8-way has too few sets).
func CacheConfigs(base Config, lanes, sizesKB, lines, ports, assocs []int) []Config {
	return dse.CacheConfigs(base, lanes, sizesKB, lines, ports, assocs)
}

// ConfigError is the typed error Config.Validate (and every Run entry
// point) reports for an impossible design point; it names the offending
// field. Recover it with errors.As.
type ConfigError = soc.ConfigError

// SearchAxis is one named dimension of a SearchSpace: a design parameter
// (by registered name — "lanes", "cache_kb", "dma_chunk", ...) and the
// ordered values it may take.
type SearchAxis = dse.SearchAxis

// SearchSpace describes a design space for adaptive search: a base config
// plus the axes the search varies. It is a superset of SweepAxes — its
// cross product routinely reaches 10^5-10^6 points, far beyond what Sweep
// can enumerate — with a stable point codec (Rank/Unrank) and a content
// fingerprint that keys resume checkpoints.
type SearchSpace = dse.SearchSpace

// SearchOptions tunes Search: the RNG seed (same seed, same space ⇒
// bit-identical evaluation sequence and front), the evaluation budget, the
// round sizes, the worker pool, and — for durable, resumable searches — a
// point cache and a checkpoint key in its store.
type SearchOptions = dse.SearchOptions

// SearchProgress is the per-round progress report Search delivers to the
// Progress callback: round number, points evaluated and actually simulated,
// and the front so far. Replayed rounds (restored from a checkpoint) are
// marked.
type SearchProgress = dse.SearchProgress

// SearchPoint is one evaluated candidate in a search: its axis-value
// indices and its objectives.
type SearchPoint = dse.SearchPoint

// SearchResult is the outcome of a Search: the recovered Pareto front as a
// materialized DesignSpace, the full evaluation archive, and the search's
// deterministic totals.
type SearchResult = dse.SearchResult

// DefaultSearchAxes returns the default large search axes for a memory
// kind: the full Fig 3 table plus system-interface parameters (bus width,
// clock, MSHRs, DMA behavior) — ~10^5 points for cache systems.
func DefaultSearchAxes(mem MemKind) []SearchAxis { return dse.DefaultSearchAxes(mem) }

// FabricAxis is the interconnect-topology search axis over every backend
// (bus, crossbar, mesh); append it to a SearchSpace's axes to let the
// search trade fabric parallelism against the other parameters.
func FabricAxis() SearchAxis { return dse.FabricAxis() }

// Search runs the adaptive Pareto-guided search over the space: a coarse
// seeded sample, then GA-style refinement that mutates configs near the
// current front, deduplicating candidates by PointKey so no point is ever
// simulated twice. The search is deterministic (seeded splitmix64) and,
// with SearchOptions.Cache and CheckpointKey set, resumable: a killed
// search rerun against the same store replays its rounds from disk and
// converges to the identical front. See DESIGN.md "Adaptive search".
func Search(ctx context.Context, k *Kernel, space SearchSpace, opts SearchOptions) (*SearchResult, error) {
	return dse.Search(ctx, k, space, opts)
}
