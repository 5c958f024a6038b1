// Package faultinject is a deterministic, seeded fault-injection
// harness for the distribution stack. It has two injection surfaces:
//
//   - an FS hook layer (FS / FaultFS) wrapping the create, write,
//     rename and remove calls used by distrib.DiskStore,
//     actioncache.DiskCache, fleet.WriteLog and oci.SaveLayout, able to
//     inject EIO, short writes, and "power-cut" termination — after
//     which every further operation fails and whatever half-written
//     state is on disk stays exactly as a crash would leave it. The two
//     ways a store writes a file live here too, once each: Commit
//     (whole, by temp file and rename) and AppendFile (a log that grows
//     at the end of its valid prefix);
//
//   - an HTTP fault transport (Transport) wrapping a registry client's
//     round-tripper, able to inject 5xx bursts, truncated response
//     bodies, latency spikes and connection drops.
//
// Faults come from a Plan: a seeded PRNG plus optional exact "fail the
// Nth operation" triggers. The same seed over the same operation
// sequence injects the same faults, so a chaos failure reproduces from
// its seed alone. Every injected fault is recorded and retrievable via
// Events for debugging.
//
// The package depends only on the standard library; the stores it
// wraps import it, never the reverse.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// Kind names one class of injectable fault.
type Kind string

const (
	// EIO fails the operation with an injected I/O error.
	EIO Kind = "eio"
	// ShortWrite writes only a seeded prefix of the buffer, then fails.
	ShortWrite Kind = "short-write"
	// PowerCut simulates the process dying mid-operation: a write may
	// persist a prefix, then the whole FS goes dead — every subsequent
	// operation fails with ErrPowerCut and nothing is cleaned up.
	PowerCut Kind = "power-cut"
	// HTTP500 answers the request with a fabricated 503 without
	// touching the network.
	HTTP500 Kind = "http-500"
	// Truncate performs the request but cuts the response body short,
	// so the client sees fewer bytes than Content-Length promised.
	Truncate Kind = "truncate"
	// Latency delays the request (honoring the request context) before
	// performing it.
	Latency Kind = "latency"
	// Drop fails the request with a connection-reset error before any
	// bytes move.
	Drop Kind = "drop"
)

// ErrInjected is the injected I/O failure; it wraps syscall.EIO so
// errors.Is(err, syscall.EIO) holds.
var ErrInjected = fmt.Errorf("faultinject: injected I/O error: %w", syscall.EIO)

// ErrPowerCut marks the simulated crash point and every operation
// attempted after it.
var ErrPowerCut = errors.New("faultinject: power cut")

// Event records one injected fault: the 1-based operation number it
// hit, a short operation description, and the fault kind.
type Event struct {
	N    int64
	Op   string
	Kind Kind
}

// Plan is a deterministic fault schedule. Operations that consult the
// plan are numbered from 1 in call order; a fault fires either because
// an At/Burst trigger names that operation number, or because the
// seeded PRNG draws under the configured per-kind rate. A Plan is safe
// for concurrent use, but operation numbering is only reproducible
// when the wrapped operations themselves happen in a deterministic
// order (chaos tests drive the store serially for exactly this
// reason).
type Plan struct {
	mu      sync.Mutex
	rng     *rand.Rand
	rates   map[Kind]float64
	at      map[int64]Kind
	latency time.Duration
	n       int64
	events  []Event
}

// NewPlan returns an empty plan seeded with seed. With no rates and no
// triggers it injects nothing.
func NewPlan(seed int64) *Plan {
	return &Plan{
		rng:     rand.New(rand.NewSource(seed)),
		rates:   make(map[Kind]float64),
		at:      make(map[int64]Kind),
		latency: 50 * time.Millisecond,
	}
}

// Rate sets the per-operation probability of kind, in [0, 1], and
// returns the plan for chaining.
func (p *Plan) Rate(kind Kind, rate float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rates[kind] = rate
	return p
}

// At schedules kind to fire on the nth operation (1-based), if that
// operation is eligible for it.
func (p *Plan) At(n int64, kind Kind) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.at[n] = kind
	return p
}

// Burst schedules kind on count consecutive operations starting at
// start — e.g. a 5xx burst from a briefly-sick registry.
func (p *Plan) Burst(start, count int64, kind Kind) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := int64(0); i < count; i++ {
		p.at[start+i] = kind
	}
	return p
}

// WithLatency sets the delay a Latency fault injects (default 50ms).
func (p *Plan) WithLatency(d time.Duration) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.latency = d
	return p
}

// Ops returns how many operations have consulted the plan.
func (p *Plan) Ops() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Events returns a copy of every fault injected so far, in order.
func (p *Plan) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}

// intn draws a seeded value in [0, n) — used for split points of short
// and power-cut writes so the torn prefix length is reproducible too.
func (p *Plan) intn(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n <= 0 {
		return 0
	}
	return p.rng.Intn(n)
}

// next numbers the operation, decides whether a fault fires, and
// records it. Only kinds in eligible are considered; triggers naming
// an ineligible kind for this operation are skipped (not consumed).
func (p *Plan) next(op string, eligible ...Kind) (Kind, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	if kind, ok := p.at[p.n]; ok {
		for _, e := range eligible {
			if e == kind {
				p.events = append(p.events, Event{N: p.n, Op: op, Kind: kind})
				return kind, true
			}
		}
	}
	for _, kind := range eligible {
		rate, ok := p.rates[kind]
		if !ok || rate <= 0 {
			continue
		}
		if p.rng.Float64() < rate {
			p.events = append(p.events, Event{N: p.n, Op: op, Kind: kind})
			return kind, true
		}
	}
	return "", false
}
