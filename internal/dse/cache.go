package dse

import (
	"encoding/json"
	"fmt"
	"time"

	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
)

// pointSchema versions the on-disk CachedPoint encoding. Bump it when the
// JSON layout changes incompatibly; decoded records with a different schema
// are treated as cache misses, never as errors.
const pointSchema = 1

// CachedPoint is the durable outcome of one design point — either a
// completed simulation result or a classified terminal failure. It is what
// the result store persists under the point's PointKey, so a restarted
// service replays failures as cheaply as successes instead of re-simulating
// known-poisoned configs.
type CachedPoint struct {
	Schema int `json:"schema"`
	// Aborted marks a robustness-layer abort (soc.ErrAborted): Kind holds
	// the soc.AbortKind label, Err the abort message, Attempts how many
	// runs the retry policy spent. Result is nil.
	Aborted  bool   `json:"aborted,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Err      string `json:"err,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Result is the completed simulation result; its Config.Obs is always
	// nil (observers don't serialize and are not part of the point's
	// identity).
	Result *soc.RunResult `json:"result,omitempty"`
}

// EncodePoint serializes a cached point. The result's observer attachment is
// stripped from the stored copy — it holds live callbacks — without mutating
// the caller's RunResult.
func EncodePoint(cp *CachedPoint) ([]byte, error) {
	enc := *cp
	enc.Schema = pointSchema
	if enc.Result != nil && enc.Result.Config.Obs != nil {
		res := *enc.Result
		res.Config.Obs = nil
		enc.Result = &res
	}
	return json.Marshal(&enc)
}

// DecodePoint parses an encoded point. ok is false (with a nil error) when
// the record was written by a different schema version.
func DecodePoint(data []byte) (*CachedPoint, bool, error) {
	var cp CachedPoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, false, fmt.Errorf("dse: decoding cached point: %w", err)
	}
	if cp.Schema != pointSchema {
		return nil, false, nil
	}
	return &cp, true, nil
}

// StoreCache adapts a result store to design-point lookups for one kernel:
// points are keyed by PointKey(Kernel, cfg), so the same store directory can
// hold points from many kernels (and the service's job manifests) without
// collisions.
type StoreCache struct {
	Kernel string
	Store  *store.Store
}

// Get looks up the cached outcome for cfg. A missing key, a schema mismatch,
// or an undecodable record all report ok=false; only store I/O surfaces as
// an error.
func (c *StoreCache) Get(cfg soc.Config) (*CachedPoint, bool, error) {
	return loadPoint(c.Store, PointKey(c.Kernel, cfg))
}

// Put persists the outcome for cfg, superseding any previous record.
func (c *StoreCache) Put(cfg soc.Config, cp *CachedPoint) error {
	return storePoint(c.Store, PointKey(c.Kernel, cfg), cp)
}

// loadPoint reads the point record stored under key, as StoreCache.Get.
func loadPoint(st *store.Store, key string) (*CachedPoint, bool, error) {
	data, ok, err := st.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	cp, ok, err := DecodePoint(data)
	if err != nil || !ok {
		// A corrupt or foreign-schema record is a miss: the point will be
		// re-simulated and the record overwritten.
		return nil, false, nil
	}
	return cp, true, nil
}

// storePoint persists a point record under key, superseding any previous one.
func storePoint(st *store.Store, key string, cp *CachedPoint) error {
	data, err := EncodePoint(cp)
	if err != nil {
		return err
	}
	return st.Put(key, data)
}

// RetryPolicy bounds how a sweep retries an aborted design point before
// recording it as failed. Only fault-injection aborts are retried: the
// injector's give-up path is the operational analogue of a transient error
// (and the retry budget is how a service would ride out one). Stalls and
// sanitizer violations are deterministic properties of the config and fail
// immediately.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 disables
	// retrying.
	Max int
	// Backoff is the delay before the first retry; each further retry
	// doubles it, capped at MaxBackoff. 0 retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means 1s.
	MaxBackoff time.Duration
}

// Retryable reports whether an abort of the given kind is worth another
// attempt under this policy.
func (p RetryPolicy) Retryable(kind string) bool {
	return p.Max > 0 && kind == soc.AbortFault
}

// Delay returns the backoff before retry number n (1-based).
func (p RetryPolicy) Delay(n int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = time.Second
	}
	d := p.Backoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}
