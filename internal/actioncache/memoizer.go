package actioncache

import (
	"sync/atomic"

	"comtainer/internal/cachekit"
	"comtainer/internal/digest"
)

// Memoizer drives the two-level cache protocol around action
// execution: look up manifest, re-observe inputs, look up result,
// replay on hit, execute-and-record on miss. Concurrent executions of
// the same action ID collapse into one (singleflight): the first
// caller executes, the rest wait and replay its result.
//
// A nil *Memoizer is valid and simply executes every action, so
// callers thread it through unconditionally.
type Memoizer struct {
	cache   Cache
	flights cachekit.Flight[digest.Digest, *Result]

	hits    atomic.Int64
	misses  atomic.Int64
	deduped atomic.Int64
	errors  atomic.Int64
}

// NewMemoizer wraps cache. A nil cache yields a memoizer that only
// deduplicates concurrent identical actions.
func NewMemoizer(cache Cache) *Memoizer {
	return &Memoizer{cache: cache}
}

// Stats merges the memoizer's action-level counters with the tier's.
func (m *Memoizer) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	s := Stats{
		Hits:    m.hits.Load(),
		Misses:  m.misses.Load(),
		Deduped: m.deduped.Load(),
		Errors:  m.errors.Load(),
	}
	if m.cache != nil {
		s = s.Add(m.cache.Stats())
	}
	return s
}

// Do runs one action. id is the action's pre-execution identity, st
// re-observes input states against the caller's file system, and exec
// performs the action for real, reporting everything it reads and
// writes through the Recorder it is handed.
//
// On return, replay reports whether the caller must apply res.Outputs
// to its file system itself (cache hit, or a deduped flight — the
// executing flight wrote only to its own FS). When replay is false
// the action ran via exec and its effects are already in place; res
// is the action's record either way, a replayed one carrying the
// inputs of the manifest that selected it. Errors from exec are
// returned verbatim and never cached. Cache-tier failures degrade to
// misses.
func (m *Memoizer) Do(id digest.Digest, st InputState, exec func(*Recorder) error) (res *Result, replay bool, err error) {
	if m == nil {
		err = exec(nil)
		return nil, false, err
	}

	res, shared, err := m.flights.Do(id, func() (r *Result, err error) {
		r, replay, err = m.run(id, st, exec)
		return r, err
	})
	if shared && err == nil {
		m.deduped.Add(1)
		replay = true
	}
	return res, replay, err
}

func (m *Memoizer) run(id digest.Digest, st InputState, exec func(*Recorder) error) (*Result, bool, error) {
	if res := m.lookup(id, st); res != nil {
		m.hits.Add(1)
		return res, true, nil
	}
	m.misses.Add(1)

	rec := NewRecorder()
	if err := exec(rec); err != nil {
		return nil, false, err
	}
	res, states := rec.Result()
	if m.cache != nil {
		m.store(ManifestKey(id), EncodeManifest(Manifest{Inputs: res.Inputs}))
		m.store(ResultKey(id, res.Inputs, states), EncodeResult(Result{Outputs: res.Outputs}))
	}
	return res, false, nil
}

// lookup returns the cached result valid for the current input
// states, or nil. Decode failures and tier errors count as Errors and
// fall through to a miss.
func (m *Memoizer) lookup(id digest.Digest, st InputState) *Result {
	if m.cache == nil || st == nil {
		return nil
	}
	raw, ok := m.get(ManifestKey(id))
	if !ok {
		return nil
	}
	man, err := DecodeManifest(raw)
	if err != nil {
		m.errors.Add(1)
		return nil
	}
	states := make([]string, len(man.Inputs))
	for i, in := range man.Inputs {
		states[i] = st.StateOf(in)
	}
	raw, ok = m.get(ResultKey(id, man.Inputs, states))
	if !ok {
		return nil
	}
	res, err := DecodeResult(raw)
	if err != nil {
		m.errors.Add(1)
		return nil
	}
	res.Inputs = man.Inputs
	return &res
}

func (m *Memoizer) get(key digest.Digest) ([]byte, bool) {
	raw, ok, err := m.cache.Get(key)
	if err != nil {
		m.errors.Add(1)
		return nil, false
	}
	return raw, ok
}

// store writes one entry; a failing tier must not fail the build.
func (m *Memoizer) store(key digest.Digest, val []byte) {
	if err := m.cache.Put(key, val); err != nil {
		m.errors.Add(1)
	}
}
