// Package detector defines the plugin interface for the detection models
// that run beside the paper's forest classifier. The forest is not a
// plugin: the server drives it through a core.ClassifySession and it owns
// the classify pass's rows and verdict. An auxiliary model — the
// incremental belief-propagation baseline, or a future scenario-specific
// one (tunneling, DGA) — implements Detector and registers a factory
// under a stable name; the daemon enables a set of them with
// -detectors=forest,lbp and the server runs each once per classify pass
// on the pass's snapshot and delta, carrying their scores in the pass
// value next to the forest's and fusing the verdicts.
package detector

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"segugio/internal/graph"
)

// Pass is one classify pass's input: the labeled live snapshot plus the
// delta since the caller's previous pass, exactly as returned by
// SnapshotSince(Since).
type Pass struct {
	Graph   *graph.Graph
	Version uint64
	// Since is the version of the previous pass this delta is relative
	// to (0 for the first pass).
	Since uint64
	Delta graph.Delta
}

// Score is one scored domain.
type Score struct {
	Domain string
	Score  float64
}

// Stats describes how a detector executed its pass.
type Stats struct {
	// Mode is detector-specific: the LBP engine reports "full",
	// "residual", or "cached".
	Mode string
	// Iterations/Updates/PeakQueue carry propagation accounting for
	// graph-inference detectors; zero elsewhere.
	Iterations int
	Updates    int
	PeakQueue  int
}

// Result is one detector's output for a pass.
type Result struct {
	// Scores holds the scored targets, in the detector's native order.
	Scores []Score
	// Missing lists requested targets the detector could not score.
	Missing []string
	Stats   Stats
}

// Detector is one pluggable detection model. Prepare observes a pass
// (propagating incremental state forward); Score answers for targets
// against the prepared pass — nil targets means every unknown domain.
// Implementations are safe for sequential use by one driver; drivers
// serialize Prepare/Score per detector.
//
// Both pass-driving methods take the pass context and must return its
// error promptly once it is cancelled (the daemon bounds passes with
// -pass-deadline). A cancelled pass must leave the detector in a state
// from which the next Prepare can proceed — partial incremental state
// is discarded or re-escalated, never served as a fixed point.
type Detector interface {
	Name() string
	// Threshold is the score at or above which a domain counts as
	// detected by this plugin.
	Threshold() float64
	Prepare(ctx context.Context, p Pass) error
	Score(ctx context.Context, targets []string) (*Result, error)
	Close() error
}

// Config parameterizes plugin construction.
type Config struct {
	// Tuning holds the hot-reloadable per-plugin knobs.
	Tuning Tuning
}

// Factory builds one plugin instance.
type Factory func(cfg Config) (Detector, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register installs a plugin factory under name. Registering a
// duplicate name panics: plugin names are part of the daemon's flag and
// metrics surface.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("detector: duplicate plugin %q", name))
	}
	registry[name] = f
}

// Names lists the registered plugin names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New builds the named plugin.
func New(name string, cfg Config) (Detector, error) {
	regMu.RLock()
	f := registry[name]
	regMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("detector: unknown plugin %q (have %v)", name, Names())
	}
	return f(cfg)
}
