package server

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"segugio/internal/activity"
	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/metrics"
	"segugio/internal/pdns"
	"segugio/internal/trace"
)

// BenchmarkPassSteady prices the pass as segugiod runs it: one day of a
// synthetic ISP (20k machines, every edge sent twice in shuffled order)
// is fed to a graph.Builder in passSteps batches, and after each batch
// classifyAll takes the snapshot, labels it and scores every unknown
// domain the prune plan keeps, with the default random forest, a 14-day
// activity log and a passive-DNS abuse index. One op is one day on a
// fresh builder; feeding the batches is off the clock. snapshot-ms,
// label-ms and classify-ms are the mean per pass of the fold and
// snapshot, the labelling and the rest.
func BenchmarkPassSteady(b *testing.B) {
	fx := passFixture(b)
	ctx := context.Background()
	var snap, label, total time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src := &builderSource{b: graph.NewBuilder("isp", passDay, fx.suffixes), labels: fx.labels}
		srv := New(Config{Graphs: src, Detector: benchHandle(fx.det), Registry: metrics.NewRegistry(),
			Activity: fx.activity, Abuse: fx.abuse})
		for _, step := range fx.steps {
			b.StopTimer()
			step.feed(src.b)
			b.StartTimer()
			t0 := time.Now()
			p, _, err := srv.classifyAll(ctx, srv.model())
			if err != nil {
				b.Fatal(err)
			}
			total += time.Since(t0)
			if len(p.rows) == 0 {
				b.Fatal("a pass scored nothing")
			}
		}
		snap += src.snapTime
		label += src.labelTime
	}
	passes := float64(b.N * len(fx.steps))
	b.ReportMetric(snap.Seconds()*1e3/passes, "snapshot-ms")
	b.ReportMetric(label.Seconds()*1e3/passes, "label-ms")
	b.ReportMetric((total-snap-label).Seconds()*1e3/passes, "classify-ms")
}

const (
	passTrainDay = 89
	passDay      = 90
	passSteps    = 10
)

// builderSource is a GraphSource over one graph.Builder that labels each
// snapshot as segugiod's PrepareSnapshot does, and times the snapshot
// and the labelling apart.
type builderSource struct {
	b                   *graph.Builder
	labels              graph.LabelSources
	g                   *graph.Graph
	version             uint64
	snapTime, labelTime time.Duration
}

func (s *builderSource) Snapshot() (*graph.Graph, uint64) { return s.g, s.version }
func (s *builderSource) Day() int                         { return s.b.Day() }
func (s *builderSource) Version() uint64                  { return s.version }

func (s *builderSource) SnapshotSince(uint64) (*graph.Graph, uint64, graph.Delta) {
	t0 := time.Now()
	g := s.b.Snapshot()
	t1 := time.Now()
	g.ApplyLabels(s.labels)
	s.snapTime += t1.Sub(t0)
	s.labelTime += time.Since(t1)
	s.g = g
	s.version++
	return g, s.version, graph.Delta{}
}

// passStep is one batch of the day: queries as (machine, domain) names
// and the resolutions of the domains first queried in it.
type passStep struct {
	queries [][2]string
	ips     map[string][]dnsutil.IPv4
}

func (st passStep) feed(b *graph.Builder) {
	for _, q := range st.queries {
		b.AddQuery(q[0], q[1])
	}
	for name, ips := range st.ips {
		b.SetDomainIPs(name, ips)
	}
}

type passBenchFixture struct {
	suffixes *dnsutil.SuffixList
	labels   graph.LabelSources
	det      *core.Detector
	activity *activity.Log
	abuse    *pdns.AbuseIndex
	steps    []passStep
}

var passBench struct {
	once sync.Once
	fx   *passBenchFixture
	err  error
}

// passFixture builds the network, trains the detector on the day before
// and cuts the day into steps, once per process.
func passFixture(b *testing.B) *passBenchFixture {
	b.Helper()
	passBench.once.Do(func() { passBench.fx, passBench.err = newPassFixture() })
	if passBench.err != nil {
		b.Fatal(passBench.err)
	}
	return passBench.fx
}

func newPassFixture() (*passBenchFixture, error) {
	cfg := trace.DefaultConfig("isp", 5)
	cfg.TimelineDays = 120
	cfg.Machines = 20000
	cfg.BenignE2LDs = 12000
	cfg.TailDomains = 16000
	cfg.SubdomainsPerZone = 600
	cfg.Inactive = 1200
	cfg.Proxies = 8
	cat, err := trace.NewCatalog(cfg)
	if err != nil {
		return nil, err
	}
	gen := trace.NewGenerator(cat)
	fx := &passBenchFixture{suffixes: dnsutil.DefaultSuffixList()}

	bl := cat.Blacklist(trace.BlacklistConfig{Coverage: 0.75, MeanListingDelayDays: 3, Salt: 1})
	arch := cat.RankArchive(trace.RankArchiveConfig{Days: 8, ListLen: 3 * cfg.BenignE2LDs / 4, JitterFraction: 0.02})
	wl, err := intel.BuildWhitelist(arch, intel.WhitelistConfig{ExcludeZones: cat.KnownFreeRegZones(0.6)})
	if err != nil {
		return nil, err
	}
	db := pdns.NewDB()
	cat.EmitPDNSHistory(db, passDay-42, passDay-1)
	abuse := func(asOf int) *pdns.AbuseIndex {
		return pdns.BuildAbuseIndex(db, asOf-150, asOf-1, func(d string) pdns.Verdict {
			switch {
			case bl.Contains(d, asOf):
				return pdns.VerdictMalware
			case wl.ContainsDomain(d, fx.suffixes):
				return pdns.VerdictBenign
			}
			return pdns.VerdictUnknown
		})
	}

	train := trace.BuildGraph(gen.GenerateDay(passTrainDay), cat, fx.suffixes)
	train.ApplyLabels(graph.LabelSources{Blacklist: bl, Whitelist: wl, AsOf: passTrainDay})
	trainAct := activity.NewLog()
	cat.MarkActivity(trainAct, fx.suffixes, passTrainDay-13, passTrainDay)
	fx.det, _, err = core.Train(core.DefaultConfig(), core.TrainInput{Graph: train, Activity: trainAct, Abuse: abuse(passTrainDay)})
	if err != nil {
		return nil, err
	}

	fx.labels = graph.LabelSources{Blacklist: bl, Whitelist: wl, AsOf: passDay}
	fx.activity = activity.NewLog()
	cat.MarkActivity(fx.activity, fx.suffixes, passDay-13, passDay)
	fx.abuse = abuse(passDay)

	// Every edge twice, in shuffled tap order, cut into equal steps.
	tr := gen.GenerateDay(passDay)
	edges := append(append([]trace.Edge(nil), tr.Edges...), tr.Edges...)
	rand.New(rand.NewSource(5)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	resolved := map[int32]bool{}
	per := (len(edges) + passSteps - 1) / passSteps
	for lo := 0; lo < len(edges); lo += per {
		st := passStep{ips: map[string][]dnsutil.IPv4{}}
		for _, e := range edges[lo:min(lo+per, len(edges))] {
			name := cat.Name(e.Domain)
			st.queries = append(st.queries, [2]string{tr.MachineIDs[e.Machine], name})
			if !resolved[e.Domain] {
				resolved[e.Domain] = true
				st.ips[name] = cat.ResolveOn(passDay, e.Domain)
			}
		}
		fx.steps = append(fx.steps, st)
	}
	return fx, nil
}
