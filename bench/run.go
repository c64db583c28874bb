package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"segugio/internal/core"
)

// env is what one invocation shares across runs.
type env struct {
	root   string // module root
	outDir string // bench/out
	bin    string // built segugiod
	sc     scale
	log    io.Writer
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Metrics   map[string]float64 `json:"metrics"` // end to end
	Layers    map[string]float64 `json:"layers"`  // per layer
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	Gates     []string           `json:"gates,omitempty"` // failed correctness gates
	Warnings  []string           `json:"warnings,omitempty"`
	StreamSHA string             `json:"stream_sha256"`
}

// prepared is the seed-derived input of a run, made before any daemon
// starts: none of it is measured except as bench.synth_s.
type prepared struct {
	net    *network
	det    *core.Detector
	days   []*dayStream
	dirs   daemonDirs
	runDir string
	synth  time.Duration
}

// satHeadroom sizes closed-loop streams: enough events to outlast the
// window at this rate, well above the seed commit's saturation
// throughput. A daemon faster than this ends the window early (with a
// warning) rather than starving.
const satHeadroom = 800000

// prepare synthesises the network, writes the daemon's -data and -model
// inputs and pre-encodes the stream. Training and the days are
// independent of each other, so they share the machine's cores.
func (e *env) prepare(w workload, seed int64, seconds float64) (*prepared, error) {
	t0 := time.Now()
	runDir, err := os.MkdirTemp(e.outDir, "run-")
	if err != nil {
		return nil, err
	}
	p := &prepared{runDir: runDir, dirs: daemonDirs{
		state: filepath.Join(runDir, "state"),
		data:  filepath.Join(runDir, "data"),
		model: filepath.Join(runDir, "model.bin"),
	}}
	p.net, err = newNetwork(e.sc, seed)
	if err != nil {
		os.RemoveAll(runDir)
		return nil, err
	}
	rate := w.rate * e.sc.rateScale
	warm := float64(e.sc.warm)
	need := warm + seconds*rate*1.05 + 4*chunkEvents
	if rate == 0 {
		rate = nominalSat
		need = warm + seconds*satHeadroom
	}
	probeEvery := int(rate * w.probeGap.Seconds())
	perDay := e.sc.dayEvents()
	nDays := int(math.Ceil(need / perDay))

	p.days = make([]*dayStream, nDays)
	errs := make([]error, nDays+2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[nDays] = p.net.writeDataDir(p.dirs.data)
	}()
	go func() {
		defer wg.Done()
		p.det, errs[nDays+1] = p.net.train(p.dirs.model)
	}()
	for i := range p.days {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var split []int
			limit := 0
			if i == 0 {
				split = []int{e.sc.warm}
			}
			if i == nDays-1 {
				limit = int(need - float64(i)*perDay)
			}
			p.days[i], errs[i] = p.net.encodeDay(day0+i, probeEvery, split, limit)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		os.RemoveAll(runDir)
		return nil, err
	}
	// The passive-DNS database is the harness's largest pointer-rich
	// structure and is not needed again; a smaller heap means shorter GC
	// cycles in the harness while the daemon is being measured.
	p.net.pdnsDB = nil
	runtime.GC()
	p.synth = time.Since(t0)
	return p, nil
}

// recoveryRepeats is how many times a run crashes and recovers the warm
// state; the fastest recovery is reported.
const recoveryRepeats = 2

// setupRepeats is how many times a run measures set-up; the median is
// reported.
const setupRepeats = 3

// run executes one measured run of w.
func (e *env) run(ctx context.Context, w workload, seed int64, seconds float64) (*runResult, error) {
	p, err := e.prepare(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	defer func() {
		// Flush the deletions now: on a filesystem mounted with discard,
		// trimming a few hundred MB of WAL otherwise lands on whoever
		// runs next — the next run's set-up time.
		os.RemoveAll(p.runDir)
		syscall.Sync()
	}()
	r := &runner{
		e: e, w: w, p: p, seconds: seconds,
		res: &runResult{
			Workload: w.name, Seed: seed, Seconds: seconds,
			Metrics: map[string]float64{}, Layers: map[string]float64{},
			StreamSHA: streamSHA(p.days),
		},
	}
	r.res.Layers["bench.synth_s"] = p.synth.Seconds()
	defer func() {
		if r.dm != nil {
			r.dm.kill()
		}
	}()
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	r.cancel = cancel
	if err := r.execute(ctx); err != nil {
		if r.dm != nil {
			err = fmt.Errorf("%w\n-- segugiod log tail --\n%s", err, r.dm.tail())
		}
		return nil, err
	}
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	r.finish()
	for name, v := range r.res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.gate("%s could not be measured", name)
			r.res.Metrics[name] = 0
		}
	}
	for name, v := range r.res.Layers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.res.Layers[name] = 0
		}
	}
	r.res.Correct = len(r.res.Gates) == 0
	if !r.res.Correct {
		// A failed gate fails the run: all its operations count as failed.
		r.res.Failed = r.res.Attempted
	}
	return r.res, nil
}

// runner is the state of one run. A run is: set-up (measured
// setupRepeats times) → warm-up → SIGKILL and recovery (measured) →
// window → quiescence → serve phase → final classify-all → oracle.
type runner struct {
	e       *env
	w       workload
	p       *prepared
	seconds float64
	res     *runResult
	cancel  context.CancelCauseFunc

	dm    *daemon // the live daemon, if any
	lives []*life // every daemon life that was fed events
	// finals[i] is lives[i]'s scrape at quiescence, after its poller stopped.
	finals []scrape

	windowStart, lastAck time.Time
	base                 scrape  // scrape at window start
	cpuWindow            float64 // daemon CPU seconds spent in the window
	peakRSSMB            float64
	recovery             time.Duration
	replayed             float64
	serve                serveStats
	late                 []float64
	served, cold         *classifyReply // final classify-all: as served, and after a cache flush
	finalDay, finalChunk int

	phaseAt   time.Time
	phaseName string
}

func (r *runner) gate(format string, args ...any) {
	r.res.Gates = append(r.res.Gates, fmt.Sprintf(format, args...))
}

func (r *runner) warn(format string, args ...any) {
	r.res.Warnings = append(r.res.Warnings, fmt.Sprintf(format, args...))
}

// startLife starts a poller on the live daemon. The returned stop ends
// the poller and records the life's final scrape.
func (r *runner) startLife(ctx context.Context) (*life, func() error) {
	l := newLife(r.dm, r.p.days)
	pctx, pcancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := l.poll(pctx); err != nil {
			r.cancel(err)
		}
	}()
	r.lives = append(r.lives, l)
	r.finals = append(r.finals, scrape{})
	idx := len(r.lives) - 1
	stopped := false
	return l, func() error {
		if stopped {
			return nil
		}
		stopped = true
		pcancel()
		<-done
		sc, err := l.scrapeDirect()
		if err == nil {
			r.finals[idx] = sc
		}
		return err
	}
}

// restart brings the daemon up on the state dir as it is and reports
// the time from exec to ready.
func (r *runner) restart() (time.Duration, error) {
	dm, err := startDaemon(r.e.bin, r.p.dirs, r.w.flags...)
	if err != nil {
		return 0, err
	}
	r.dm = dm
	return dm.waitReady(120 * time.Second)
}

// phase logs how long the run's phases take, for whoever watches stderr.
func (r *runner) phase(name string) {
	now := time.Now()
	if !r.phaseAt.IsZero() {
		fmt.Fprintf(r.e.log, "  [%s] %-22s %6.2fs\n", r.w.name, r.phaseName, now.Sub(r.phaseAt).Seconds())
	}
	r.phaseAt, r.phaseName = now, name
}

func (r *runner) execute(ctx context.Context) error {
	p, w := r.p, r.w
	defer r.phase("")
	r.phase("set-up x" + fmt.Sprint(setupRepeats))

	// Set-up time: exec to ready on an empty state dir, setupRepeats
	// times; the last process is the one the run continues on.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if r.dm != nil {
			r.dm.kill()
			os.RemoveAll(p.dirs.state)
		}
		d, err := r.restart()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	r.res.Metrics["setup_s"] = median(setups)

	// Warm-up, unmeasured: the first segment of the first day.
	r.phase("warm-up")
	l, stopPoll := r.startLife(ctx)
	snd := &sender{l: l, days: p.days, fence: true}
	defer func() { snd.close() }()
	if err := snd.send(ctx, sendOpts{segment: true}); err != nil {
		return err
	}
	if err := l.waitAccounted(ctx); err != nil {
		return err
	}

	// SIGKILL over the warm state and recover. Every applied event is in
	// the WAL (a process kill leaves the page cache alone), so the graph
	// that comes back must be the one that died.
	r.phase("kill and recover")
	if err := stopPoll(); err != nil {
		return err
	}
	snd.close()
	before := r.finals[len(r.finals)-1]
	for i := 0; i < recoveryRepeats; i++ {
		// The recovered process has taken no event, so a second SIGKILL
		// leaves the same state behind and the recovery does the same
		// work again. Timing noise on a shared host only ever adds, so
		// the faster of the two is the better estimate.
		r.dm.kill()
		d, err := r.restart()
		if err != nil {
			return err
		}
		if r.recovery == 0 || d < r.recovery {
			r.recovery = d
		}
	}
	l, stopPoll = r.startLife(ctx)
	after, err := l.scrapeDirect()
	if err != nil {
		return err
	}
	for _, g := range []string{"segugiod_graph_machines", "segugiod_graph_domains"} {
		if after.get(g) != before.get(g) {
			r.gate("recovery lost acknowledged state: %s %v before SIGKILL, %v after", g, before.get(g), after.get(g))
		}
	}
	r.replayed = after.get("segugiod_recovery_replayed_events_total")
	l.posEvents.Store(int64(p.days[0].chunks[snd.next-1].dayEvents))
	snd = &sender{l: l, days: p.days, day: snd.day, next: snd.next, fence: true}
	r.phase("first passes")
	// The cold full pass over the warm graph is set-up, not steady state.
	if err := l.waitCounter(ctx, passSeries, 2); err != nil {
		return err
	}

	// A workload that keeps the serve path idle while the window is open
	// measures it now, on the quiescent warm graph — the same graph on
	// every run of a seed: what a request costs with nothing else running.
	if !w.serveUnderLoad {
		r.phase("idle serve")
		l.serve(ctx, r.pools(), r.e.sc, p.net.seed, idleServeCycles, &r.serve)
	}

	// Window.
	r.phase("window")
	if r.base, err = l.scrapeDirect(); err != nil {
		return err
	}
	cpu0, err := r.dm.proc()
	if err != nil {
		return err
	}
	r.windowStart = time.Now()
	deadline := r.windowStart.Add(time.Duration(r.seconds * float64(time.Second)))
	stopServe := func() {}
	if w.serveUnderLoad {
		stopServe = r.startServe(ctx, l)
	}
	defer func() { stopServe() }()
	if err := snd.send(ctx, sendOpts{rate: w.rate * r.e.sc.rateScale, deadline: deadline, minDayEvents: int64(r.e.sc.poolAfter)}); err != nil {
		return err
	}
	if snd.exhausted {
		r.warn("the stream ran out %.1fs before the window's end: the daemon outran satHeadroom", time.Until(deadline).Seconds())
	}

	// Quiescence: every event sent is accounted for.
	r.phase("quiesce")
	if err := l.waitAccounted(ctx); err != nil {
		return err
	}
	l.mu.Lock()
	r.lastAck = l.lastAckAt
	l.mu.Unlock()
	stopServe()
	ps, err := r.dm.proc()
	if err != nil {
		return err
	}
	r.cpuWindow = ps.cpuSeconds - cpu0.cpuSeconds
	r.late = snd.late
	r.finalDay, r.finalChunk = snd.day, snd.next-1
	snd.close()
	r.phase("last probes")
	if err := l.waitProbes(ctx); err != nil {
		return err
	}
	r.phase("final state")

	// Final state, read from outside, twice: the classify-all the
	// daemon serves from its incremental state, and — after a detector
	// reload has flushed the score cache and the memoized prune plan —
	// the one a cold full pass over the same graph gives.
	if r.served, err = r.classifyAll(); err != nil {
		return err
	}
	if status, body, err := r.dm.post("/v1/reload", ""); err != nil {
		return err
	} else if status != http.StatusOK {
		r.gate("POST /v1/reload answered %d: %s", status, body)
	}
	if r.cold, err = r.classifyAll(); err != nil {
		return err
	}
	if err := stopPoll(); err != nil {
		return err
	}
	if ps, err = r.dm.proc(); err != nil {
		return err
	}
	r.peakRSSMB = ps.peakRSSMB
	r.dm.kill()
	r.dm = nil
	return nil
}

// classifyAll fetches one POST /v1/classify {} reply; a non-200 answer
// fails a gate and returns nil.
func (r *runner) classifyAll() (*classifyReply, error) {
	status, body, err := r.dm.post("/v1/classify", "{}")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		r.gate("final classify-all answered %d: %s", status, body)
		return nil, nil
	}
	reply := &classifyReply{}
	if err := json.Unmarshal(body, reply); err != nil {
		return nil, fmt.Errorf("classify reply: %w", err)
	}
	return reply, nil
}

// idleServeCycles is how many client cycles (getsPerLoop GETs and one
// classify-all each) the idle serve phase runs.
const idleServeCycles = 8

// pools are the days' GET targets, in stream order.
func (r *runner) pools() []*namePool {
	pools := make([]*namePool, len(r.p.days))
	for i, ds := range r.p.days {
		pools[i] = &ds.pool
	}
	return pools
}

// startServe runs the closed-loop HTTP client against l, beside whatever
// else is going on, until the returned stop is called.
func (r *runner) startServe(ctx context.Context, l *life) (stop func()) {
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.serve(sctx, r.pools(), r.e.sc, r.p.net.seed, 0, &r.serve)
	}()
	stopped := false
	return func() {
		if !stopped {
			stopped = true
			cancel()
			<-done
		}
	}
}
