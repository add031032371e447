package serve

// Adaptive-search jobs: the "search" job kind behind POST /jobs. A search
// request runs the adaptive search instead of an exhaustive grid, streams
// its front-so-far as NDJSON round lines, and checkpoints frontier state under
// search/<job id> in the result store so a killed server resumes the search
// under its original job ID to the identical front.

import (
	"context"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/soc"
)

// searchKeyPrefix namespaces search frontier checkpoints inside the result
// store, alongside job/ manifests and 64-char point hashes.
const searchKeyPrefix = "search/"

// SearchSpec is the wire form of an adaptive-search request: the seed and
// budget of the search plus the axes to explore. Empty axes select the
// default large space for the request's memory kind (~10^5 points for
// cache systems).
type SearchSpec struct {
	// Seed drives the search RNG; the same seed over the same space yields
	// a bit-identical evaluation sequence, round stream, and final front.
	Seed uint64 `json:"seed"`
	// Budget caps evaluated candidates; clamped to Options.MaxSearchBudget
	// (which also applies when the budget is unset).
	Budget int `json:"budget,omitempty"`
	// Init, Round, and Patience tune the engine (dse.SearchOptions
	// InitSamples/RoundSize/Patience); zero selects the defaults.
	Init     int `json:"init,omitempty"`
	Round    int `json:"round,omitempty"`
	Patience int `json:"patience,omitempty"`
	// Axes names the searched dimensions (see dse.SearchAxis).
	Axes []dse.SearchAxis `json:"axes,omitempty"`
}

// searchRoundLine is one NDJSON line of a search job's result stream: the
// front so far after one round. Like the grid stream, it carries nothing
// run-specific — no job ID, timing, or simulated-point count (which depends
// on store contents) — so an interrupted-and-resumed job streams
// byte-identically to an uninterrupted one.
type searchRoundLine struct {
	Status    string            `json:"status"`
	Round     int               `json:"round"`
	Evaluated int               `json:"evaluated"`
	FrontSize int               `json:"front_size"`
	Front     []searchFrontLine `json:"front"`
}

// searchFrontLine is one front member: its axis values by name and its
// objectives in the report units (runtime_us, power_mw, edp_njs).
type searchFrontLine struct {
	Point     map[string]int `json:"point"`
	RuntimeUS float64        `json:"runtime_us"`
	PowerMW   float64        `json:"power_mw"`
	EDPnJs    float64        `json:"edp_njs"`
}

// searchSummaryLine terminates a search stream: deterministic totals and the
// final front as full report records.
type searchSummaryLine struct {
	Status      string          `json:"status"`
	Kind        string          `json:"kind"`
	SpacePoints uint64          `json:"space_points"`
	Rounds      int             `json:"rounds"`
	Evaluated   int             `json:"evaluated"`
	Converged   bool            `json:"converged"`
	EDPOptimal  *report.Record  `json:"edp_optimal,omitempty"`
	Pareto      []report.Record `json:"pareto"`
}

func searchRoundOf(sp dse.SearchSpace, p dse.SearchProgress) *searchRoundLine {
	line := &searchRoundLine{
		Status:    "round",
		Round:     p.Round,
		Evaluated: p.Evaluated,
		FrontSize: p.FrontSize,
		Front:     make([]searchFrontLine, 0, len(p.Front)),
	}
	for _, fp := range p.Front {
		pt := make(map[string]int, len(sp.Axes))
		for i, a := range sp.Axes {
			pt[a.Name] = a.Values[fp.Idx[i]]
		}
		line.Front = append(line.Front, searchFrontLine{
			Point:     pt,
			RuntimeUS: float64(fp.Runtime) / 1e6,
			PowerMW:   fp.PowerW * 1e3,
			EDPnJs:    fp.EDPJs * 1e9,
		})
	}
	return line
}

// runSearch runs an adaptive-search job on the server's shared evaluator:
// its points share the singleflight, memory cache and store with /sweep
// and grid jobs, so a search replays points any of them already evaluated.
// It publishes one round line per completed round — replayed rounds first
// on a resumed job — then the summary. With a store, the frontier
// checkpoints under search/<id> after every round.
func (s *Server) runSearch(ctx context.Context, j *job, k *soc.Compiled) error {
	spec := j.req.Search
	opts := dse.SearchOptions{
		Seed:        spec.Seed,
		Budget:      j.points,
		InitSamples: spec.Init,
		RoundSize:   spec.Round,
		Patience:    spec.Patience,
	}
	if s.opt.Store != nil {
		opts.Cache = &dse.StoreCache{Kernel: j.req.Kernel, Store: s.opt.Store}
		opts.CheckpointKey = searchKeyPrefix + j.id
	}
	lastSim := 0
	opts.Progress = func(p dse.SearchProgress) {
		s.searchRounds.Add(1)
		if d := p.Simulated - lastSim; d > 0 {
			s.searchPoints.Add(uint64(d))
			lastSim = p.Simulated
		}
		s.publish(j, searchRoundOf(j.space, p), func() {
			j.round = p.Round + 1
			j.completed = p.Evaluated
			j.simulated = p.Simulated
			j.frontSize = p.FrontSize
		})
	}

	if s.opt.Spans != nil {
		root := s.opt.Spans.StartTrace("search-job")
		root.SetAttr("job", j.id)
		root.SetAttr("kernel", j.req.Kernel)
		root.SetAttr("budget", opts.Budget)
		defer root.EndSpan()
		ctx = obs.WithSpan(ctx, root)
	}
	res, err := s.eval.Search(ctx, j.req.Kernel, k, j.space, opts)
	if err != nil {
		return err
	}
	sum := searchSummaryLine{
		Status:      "summary",
		Kind:        "search",
		SpacePoints: res.SpaceSize,
		Rounds:      res.Rounds,
		Evaluated:   res.Evaluated,
		Converged:   res.Converged,
		EDPOptimal:  edpRecord(j.req.Kernel, res.Front),
		Pareto:      spaceRecords(j.req.Kernel, res.Front),
	}
	s.publish(j, &sum, nil)
	return nil
}
