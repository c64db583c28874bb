package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/metrics"
	"segugio/internal/ml"
)

// The classify benchmarks price the classify-all pass — the cold classify
// of a snapshot: prune pipeline plus extraction and scoring of every
// unknown domain — over a graph of scale x 100k unknown domains, with the
// machine and labeled-domain populations scaled alike. Each scale's
// fixture is built once and shared.
const (
	benchUnknown  = 100_000
	benchMalware  = 400
	benchBenign   = 800
	benchInfected = 400
	benchClean    = 3600
	benchHeavy    = 5000
)

type classifyBenchEnv struct {
	gs     *stepSource
	srv    *Server
	handle *DetectorHandle
}

// benchHandle wraps an in-memory detector in a handle, as a load from
// disk would.
func benchHandle(det *core.Detector) *DetectorHandle {
	h := &DetectorHandle{}
	h.install(det)
	return h
}

// reinstall swaps in a fresh load of the same detector: the next pass
// starts from an empty session (cold prune).
func reinstall(h *DetectorHandle) {
	det, _ := h.Get()
	h.install(det)
}

var classifyBench struct {
	mu   sync.Mutex
	envs map[int]*classifyBenchEnv
}

func benchUnkName(i int) string {
	return fmt.Sprintf("u%d.z%d.org", i, i/2)
}

// benchPrunedName is an unknown domain one machine queries: R3 prunes it.
const benchPrunedName = "lonely.pruned.org"

func classifyBenchSetup(scale int) (*classifyBenchEnv, error) {
	unknown, malware, benign := benchUnknown*scale, benchMalware*scale, benchBenign*scale
	infected, clean := benchInfected*scale, benchClean*scale
	bld := graph.NewBuilder("bench", 42, dnsutil.DefaultSuffixList())
	bl := intel.NewBlacklist()
	for i := 0; i < malware; i++ {
		name := fmt.Sprintf("c2.evil%d.net", i)
		bl.Add(intel.BlacklistEntry{Domain: name, Family: "fam", FirstListed: 0})
		for m := 0; m < 6; m++ {
			bld.AddQuery(fmt.Sprintf("inf%03d", (i+m)%infected), name)
		}
		bld.AddResolution(name, dnsutil.IPv4(0x0a000000+uint32(i)))
	}
	var whitelisted []string
	for i := 0; i < benign; i++ {
		e2ld := fmt.Sprintf("good%d.com", i)
		whitelisted = append(whitelisted, e2ld)
		name := "www." + e2ld
		for m := 0; m < 8; m++ {
			bld.AddQuery(fmt.Sprintf("clean%04d", (i+m)%clean), name)
		}
	}
	// Unknown targets: one infected machine plus two clean ones each, on
	// two-domain e2LDs, so R3/R4 keep them.
	for i := 0; i < unknown; i++ {
		name := benchUnkName(i)
		bld.AddQuery(fmt.Sprintf("inf%03d", i%infected), name)
		bld.AddQuery(fmt.Sprintf("clean%04d", i%clean), name)
		bld.AddQuery(fmt.Sprintf("clean%04d", (i*7+1)%clean), name)
	}
	// Proxy-degree machines own the top of the degree distribution, so
	// R2's percentile threshold lands on them and not on the infected
	// population (whose degrees tie closely).
	for h := 0; h < 2*scale; h += 2 {
		for i := 0; i < benchHeavy; i++ {
			bld.AddQuery(fmt.Sprintf("heavy%d", h), benchUnkName(h/2*benchHeavy+i))
			bld.AddQuery(fmt.Sprintf("heavy%d", h+1), benchUnkName(unknown-1-h/2*benchHeavy-i))
		}
	}
	bld.AddQuery("clean0000", benchPrunedName)
	src := graph.LabelSources{Blacklist: bl, Whitelist: intel.NewWhitelist(whitelisted), AsOf: 42}

	g := bld.Snapshot()
	g.ApplyLabels(src)

	cfg := core.DefaultConfig()
	cfg.NewModel = func(benign, malware int) ml.Model {
		return ml.NewLogisticRegression(ml.LogisticRegressionConfig{Seed: 7})
	}
	det, _, err := core.Train(cfg, core.TrainInput{Graph: g})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	gs := &stepSource{g: g, version: 1}
	handle := benchHandle(det)
	srv := New(Config{
		Graphs:   gs,
		Detector: handle,
		Registry: metrics.NewRegistry(),
	})
	return &classifyBenchEnv{gs: gs, srv: srv, handle: handle}, nil
}

func classifyBenchEnvFor(b *testing.B, scale int) *classifyBenchEnv {
	b.Helper()
	classifyBench.mu.Lock()
	defer classifyBench.mu.Unlock()
	if env := classifyBench.envs[scale]; env != nil {
		return env
	}
	env, err := classifyBenchSetup(scale)
	if err != nil {
		b.Fatal(err)
	}
	if classifyBench.envs == nil {
		classifyBench.envs = map[int]*classifyBenchEnv{}
	}
	classifyBench.envs[scale] = env
	return env
}

// BenchmarkClassifyAllFull is the pass every classify-all runs, at 100k and
// 400k unknown domains: the session memo is dropped and the version moved
// every iteration, so each pass pays the full prune pipeline plus the
// extraction and scoring of every unknown domain. ms, B/op and allocs/op
// per 100k unknown domains across the two scales say whether the pass
// grows linearly with the graph.
func BenchmarkClassifyAllFull(b *testing.B) {
	for _, scale := range []int{1, 4} {
		b.Run(fmt.Sprintf("unknown=%dk", scale*benchUnknown/1000), func(b *testing.B) {
			env := classifyBenchEnvFor(b, scale)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				env.gs.advance(env.gs.g) // a new version: the pass scores
				reinstall(env.handle)    // drop the memo: cold prune
				b.StartTimer()
				p, _, err := env.srv.classifyAll(ctx, env.srv.model())
				if err != nil {
					b.Fatal(err)
				}
				if len(p.rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkDomainLookupBesideIngest is GET /v1/domains/{name} as a reader
// beside a live stream pays for it: one pass up front, then the graph
// version moves before every request, so no request ever finds the pass
// current. A lookup the pass answers builds nothing — tens of allocations
// for the request, the evidence and the JSON; a snapshot, a prune plan or a
// view would show up as thousands (bench-allocs gates all three kinds).
func BenchmarkDomainLookupBesideIngest(b *testing.B) {
	env := classifyBenchEnvFor(b, 1)
	env.gs.advance(env.gs.g)
	if _, _, err := env.srv.classifyAll(context.Background(), env.srv.model()); err != nil {
		b.Fatal(err)
	}
	h := env.srv.Handler()
	for _, kind := range []struct{ name, domain string }{
		{"scored", benchUnkName(4711)},
		{"pruned", benchPrunedName},
		{"listed", "c2.evil7.net"},
	} {
		b.Run(kind.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, "/v1/domains/"+kind.domain, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env.gs.advance(env.gs.g)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			if live := env.srv.lookupsLive.Value(); live != 0 {
				b.Fatalf("%d lookups fell through to the live graph", live)
			}
		})
	}
}
