// Package health is segugiod's overload state machine. Every pipeline
// stage feeds named signals (ingest queue depth, WAL fsync latency,
// classify-pass deadline overruns, memory at the Go memory limit) into a Tracker;
// the daemon's overall state is the worst live signal, ordered
//
//	healthy → degraded → overloaded
//
// Signals are TTL-held: a hot path reports pressure once (with a decay
// window) and never has to report recovery — when the pressure stops
// being re-asserted the signal expires and the state relaxes on the
// next read. That keeps the fast paths free of clear-on-success
// bookkeeping and makes recovery automatic. Sticky signals (no TTL)
// exist for conditions with an explicit all-clear, e.g. the classify
// watchdog clearing after a pass completes inside its deadline.
//
// The Tracker records every state transition (bounded history) so the
// daemon can audit them, and exposes the current state for /healthz,
// /readyz, the segugiod_health_state gauge, and the shed/admission
// policies that act only under pressure.
package health

import (
	"sync"
	"time"
)

// State is one of the three daemon health states, ordered by severity.
type State int32

const (
	// Healthy: every stage within its budget.
	Healthy State = iota
	// Degraded: some stage is over budget (slow fsyncs, classify passes
	// blowing their deadline) but the
	// daemon is keeping up. Serving continues; operators should look.
	Degraded
	// Overloaded: a stage can no longer keep up (ingest queues full,
	// memory at the Go memory limit). Shedding and admission-control
	// policies that are armed only under pressure engage in this state.
	Overloaded
)

// String renders the state for /healthz and logs.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Overloaded:
		return "overloaded"
	default:
		return "unknown"
	}
}

// Transition is one recorded state change, attributed to the signal
// whose arrival (or expiry) caused it.
type Transition struct {
	Time   time.Time `json:"ts"`
	From   string    `json:"from"`
	To     string    `json:"to"`
	Signal string    `json:"signal"`
	Reason string    `json:"reason,omitempty"`
}

// Signal is a named pressure report with its current severity, the
// human-readable reason it was last raised, and (for TTL-held signals)
// when it decays.
type Signal struct {
	Name    string    `json:"name"`
	State   string    `json:"state"`
	Reason  string    `json:"reason,omitempty"`
	Expires time.Time `json:"expires,omitempty"`
}

type signal struct {
	state   State
	reason  string
	expires time.Time // zero: sticky until Clear
}

// Config parameterizes a Tracker. The zero value is usable.
type Config struct {
	// HistorySize bounds the transition ring (default 64).
	HistorySize int
	// OnTransition, when set, is called (outside the tracker lock) for
	// every state change — the daemon wires it to the audit trail.
	OnTransition func(tr Transition)
	// Now overrides the clock for tests.
	Now func() time.Time
}

// Tracker aggregates signals into the daemon state. All methods are
// safe for concurrent use.
type Tracker struct {
	cfg Config

	mu      sync.Mutex
	signals map[string]signal
	state   State
	history []Transition
}

// New builds a Tracker in the Healthy state with no signals.
func New(cfg Config) *Tracker {
	if cfg.HistorySize <= 0 {
		cfg.HistorySize = 64
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Tracker{cfg: cfg, signals: make(map[string]signal)}
}

func (t *Tracker) now() time.Time { return t.cfg.Now() }

// Set raises (or lowers) a sticky signal: it holds until Clear or a
// later Set. Setting Healthy is equivalent to Clear.
func (t *Tracker) Set(name string, s State, reason string) {
	t.SetFor(name, s, reason, 0)
}

// SetFor raises a signal that decays back to Healthy after ttl unless
// re-asserted — the idiom for hot-path pressure reports, which never
// have to report recovery. ttl <= 0 makes the signal sticky.
func (t *Tracker) SetFor(name string, s State, reason string, ttl time.Duration) {
	t.mu.Lock()
	if s == Healthy {
		delete(t.signals, name)
	} else {
		sig := signal{state: s, reason: reason}
		if ttl > 0 {
			sig.expires = t.now().Add(ttl)
		}
		t.signals[name] = sig
	}
	trs := t.recomputeLocked(name, reason)
	t.mu.Unlock()
	t.notify(trs)
}

// Clear removes a signal; the state relaxes if it was the worst one.
func (t *Tracker) Clear(name string) {
	t.mu.Lock()
	_, had := t.signals[name]
	if had {
		delete(t.signals, name)
	}
	trs := t.recomputeLocked(name, "cleared")
	t.mu.Unlock()
	t.notify(trs)
}

// State returns the current aggregate state, expiring stale TTL
// signals first (expiry transitions are recorded like any other).
func (t *Tracker) State() State {
	t.mu.Lock()
	trs := t.recomputeLocked("", "")
	s := t.state
	t.mu.Unlock()
	t.notify(trs)
	return s
}

// Overloaded reports whether the aggregate state is Overloaded — the
// gate the shed policies check on their slow path.
func (t *Tracker) Overloaded() bool { return t.State() == Overloaded }

// Signals returns a snapshot of the live (unexpired) signals, for
// /healthz.
func (t *Tracker) Signals() []Signal {
	t.mu.Lock()
	trs := t.recomputeLocked("", "")
	out := make([]Signal, 0, len(t.signals))
	for name, sig := range t.signals {
		out = append(out, Signal{Name: name, State: sig.state.String(), Reason: sig.reason, Expires: sig.expires})
	}
	t.mu.Unlock()
	t.notify(trs)
	return out
}

// History returns the recorded transitions, oldest first.
func (t *Tracker) History() []Transition {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Transition(nil), t.history...)
}

// recomputeLocked expires stale signals, recomputes the aggregate, and
// returns any transitions to deliver after the lock is released.
// cause/reason attribute a transition triggered by an explicit
// Set/Clear; expiry-driven transitions are attributed to the signal
// that expired.
func (t *Tracker) recomputeLocked(cause, reason string) []Transition {
	now := t.now()
	expired := ""
	for name, sig := range t.signals {
		if !sig.expires.IsZero() && now.After(sig.expires) {
			delete(t.signals, name)
			expired = name
		}
	}
	next := Healthy
	for _, sig := range t.signals {
		if sig.state > next {
			next = sig.state
		}
	}
	if next == t.state {
		return nil
	}
	if cause == "" {
		cause, reason = expired, "signal expired"
	}
	tr := Transition{Time: now, From: t.state.String(), To: next.String(), Signal: cause, Reason: reason}
	t.state = next
	t.history = append(t.history, tr)
	if len(t.history) > t.cfg.HistorySize {
		t.history = t.history[len(t.history)-t.cfg.HistorySize:]
	}
	return []Transition{tr}
}

func (t *Tracker) notify(trs []Transition) {
	if t.cfg.OnTransition == nil {
		return
	}
	for _, tr := range trs {
		t.cfg.OnTransition(tr)
	}
}
