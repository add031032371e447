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
// points are rejected up front with a *soc.ConfigError; SearchSpace.Grid
// keeps only the points Config.Validate accepts.
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

// ConfigError is the typed error Config.Validate (and every Run entry
// point) reports for an impossible design point; it names the offending
// field. Recover it with errors.As.
type ConfigError = soc.ConfigError

// SearchAxis is one named dimension of a SearchSpace: a design parameter
// (by registered name — "lanes", "cache_kb", "dma_chunk", ...) and the
// ordered values it may take.
type SearchAxis = dse.SearchAxis

// SearchSpace is the one description of a design space: a base config
// plus the named axes that vary, with a stable point codec (Rank/Unrank)
// and a content fingerprint that keys resume checkpoints. Grid walks it
// exhaustively for Sweep — GridSpace gives the Fig 3 table — and Search
// samples spaces of 10^5-10^6 points that no grid can enumerate.
type SearchSpace = dse.SearchSpace

// GridSpace returns the Fig 3 grid of base's memory system as a space
// over base: lanes x partitions for Isolated and DMA designs, lanes x cache
// size x line x ports x associativity for caches, chosen by base.Mem. full
// selects the whole table instead of the quick one; a non-empty fabrics
// list adds a fabric axis first. Walk it with GridSpace(cfg, full,
// nil).Grid().
func GridSpace(base Config, full bool, fabrics []FabricKind) SearchSpace {
	return dse.GridSpace(base, full, fabrics)
}

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
