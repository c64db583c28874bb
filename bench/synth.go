package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"segugio/internal/activity"
	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/logio"
	"segugio/internal/ml"
	"segugio/internal/pdns"
	"segugio/internal/trace"
)

// scale names one network size. isp-50k is what every reported number is
// measured on; tiny exists so `go test ./bench` can smoke the whole
// harness in seconds. It is a harness convenience, not a workload
// parameter: no metric from a tiny run is comparable to anything.
type scale struct {
	name     string
	machines int
	e2lds    int
	tail     int
	subs     int
	inactive int
	proxies  int
	// warm is how much of the first day is sent, closed loop and
	// unmeasured, before the window opens: the graph then has a good
	// share of its machines and domains, the cold full classify pass is
	// over, and there are infected machines for probes to be queried by.
	warm int
	// probeWarm is how many events of a day pass before its first probe.
	probeWarm int
	// probeMachines is how many already-infected machines query each
	// planted probe domain, in one contiguous burst; probeBystanders more
	// queries come from machines not known to be infected. At isp-50k the
	// mix is the median of the training day's listed control domains.
	probeMachines, probeBystanders int
	// poolFrom: GET targets are drawn from a day's first poolFrom events
	// and used once poolAfter events of that day are sent.
	poolFrom, poolAfter int
	// rateScale scales the open-loop rates, so that a tiny day lasts as
	// long as a real one.
	rateScale float64
}

// dayEvents estimates the events of one day: every edge twice plus one
// resolution per domain. Used only to size streams.
func (sc scale) dayEvents() float64 {
	return float64(sc.machines)*2*42 + float64(sc.e2lds)*3.5
}

var scales = map[string]scale{
	"isp-50k": {name: "isp-50k", machines: 50000, e2lds: 30000, tail: 40000, subs: 1500, inactive: 3000, proxies: 20,
		warm: 500000, probeWarm: 200000, probeMachines: 64, probeBystanders: 8, poolFrom: 100000, poolAfter: 150000, rateScale: 1},
	"tiny": {name: "tiny", machines: 1500, e2lds: 2500, tail: 3000, subs: 150, inactive: 100, proxies: 3,
		warm: 30000, probeWarm: 15000, probeMachines: 8, probeBystanders: 1, poolFrom: 8000, poolAfter: 12000, rateScale: 0.04},
}

const (
	// timelineDays bounds the catalog; day0 is the daemon's -start-day
	// and trainDay the day the detector is trained on. The passive-DNS
	// feed covers [pdnsFrom, day0): enough for every abused /24 the
	// families rotate through to appear, short enough that loading it
	// does not dominate the daemon's set-up time.
	timelineDays = 120
	trainDay     = 89
	day0         = 90
	pdnsFrom     = day0 - 42
	// activityFrom is the first day of the preloaded activity digest:
	// the F2 look-back (14 days) before day0.
	activityFrom = day0 - 14

	// chunkEvents is how many events one pre-encoded chunk carries: the
	// unit the sender writes and the accounting fences on.
	chunkEvents = 2048
	// forestRows caps the rows each tree of the forest trains on, which
	// bounds fit time without changing what a row costs to score.
	forestRows = 12000
)

// network is everything derived from the seed before a single event is
// sent: the domain universe, the machine population, the ground-truth
// feeds the daemon loads from -data, and the same feeds in memory for
// the batch oracle.
type network struct {
	sc       scale
	seed     int64
	cat      *trace.Catalog
	gen      *trace.Generator
	suffixes *dnsutil.SuffixList

	blacklist *intel.Blacklist
	whitelist *intel.Whitelist
	pdnsDB    *pdns.DB
	abuse     *pdns.AbuseIndex // as the daemon builds it at -start-day day0

	// abusedPrefixes are /24s the daemon's abuse index marks as
	// malware-hosting; probes resolve into them.
	abusedPrefixes []dnsutil.Prefix24
}

func newNetwork(sc scale, seed int64) (*network, error) {
	cfg := trace.DefaultConfig("isp", seed)
	cfg.TimelineDays = timelineDays
	cfg.Machines = sc.machines
	cfg.BenignE2LDs = sc.e2lds
	cfg.TailDomains = sc.tail
	cfg.SubdomainsPerZone = sc.subs
	cfg.Inactive = sc.inactive
	cfg.Proxies = sc.proxies
	cat, err := trace.NewCatalog(cfg)
	if err != nil {
		return nil, err
	}
	n := &network{sc: sc, seed: seed, cat: cat, gen: trace.NewGenerator(cat), suffixes: dnsutil.DefaultSuffixList()}

	n.blacklist = cat.Blacklist(trace.BlacklistConfig{Coverage: 0.75, MeanListingDelayDays: 3, Salt: 1})
	arch := cat.RankArchive(trace.RankArchiveConfig{Days: 8, ListLen: 3 * cfg.BenignE2LDs / 4, JitterFraction: 0.02})
	n.whitelist, err = intel.BuildWhitelist(arch, intel.WhitelistConfig{ExcludeZones: cat.KnownFreeRegZones(0.6)})
	if err != nil {
		return nil, err
	}
	n.pdnsDB = pdns.NewDB()
	cat.EmitPDNSHistory(n.pdnsDB, pdnsFrom, day0-1)
	n.abuse = n.buildAbuse(day0)

	// Abused prefixes: /24s of blacklisted control domains seen in the
	// feed. A probe takes a host address no catalog domain uses (.250+),
	// so only the prefix evidence (F3) fires, not the exact-IP one.
	seen := map[dnsutil.Prefix24]struct{}{}
	for _, name := range n.blacklist.DomainsAsOf(day0) {
		for _, ip := range n.pdnsDB.IPs(name, pdnsFrom, day0-1) {
			p := dnsutil.Prefix24Of(ip)
			if _, dup := seen[p]; !dup && n.abuse.MalwarePrefix(ip) {
				seen[p] = struct{}{}
				n.abusedPrefixes = append(n.abusedPrefixes, p)
			}
		}
	}
	sort.Slice(n.abusedPrefixes, func(i, j int) bool { return n.abusedPrefixes[i] < n.abusedPrefixes[j] })
	if len(n.abusedPrefixes) == 0 {
		return nil, fmt.Errorf("synth: no abused /24 in the passive-DNS feed")
	}
	return n, nil
}

// buildAbuse mirrors segugiod's loadIntel: the abuse index over the
// five months before asOf, with verdicts from the feeds as of asOf.
func (n *network) buildAbuse(asOf int) *pdns.AbuseIndex {
	return pdns.BuildAbuseIndex(n.pdnsDB, asOf-150, asOf-1, func(d string) pdns.Verdict {
		if n.blacklist.Contains(d, asOf) {
			return pdns.VerdictMalware
		}
		if n.whitelist.ContainsDomain(d, n.suffixes) {
			return pdns.VerdictBenign
		}
		return pdns.VerdictUnknown
	})
}

// preloadActivity marks the activity digest the daemon preloads from
// activity.tsv into log.
func (n *network) preloadActivity(log *activity.Log) {
	n.cat.MarkActivity(log, n.suffixes, activityFrom, day0-1)
	n.probeActivity(func(day int, domain string) {
		log.MarkDomain(day, domain)
		log.MarkE2LD(day, n.suffixes.E2LD(domain))
	})
}

const (
	// probeDays and probesPerDay bound the probe names the activity
	// digest knows about.
	probeDays    = 4
	probesPerDay = 1024
	// probeHistory is how many days, up to the day before the stream
	// starts, the digest has seen each probe domain active. A probe is
	// new to this network, not to the world: a control domain typically
	// reaches an ISP days after it went live, and a detector trained on
	// listed domains has seen no malware younger than the listing delay.
	probeHistory = 10
)

// probeActivity calls mark for every (day, probe domain) pair of the
// digest.
func (n *network) probeActivity(mark func(day int, domain string)) {
	for d := day0 - probeHistory; d < day0; d++ {
		for day := day0; day < day0+probeDays; day++ {
			for k := 0; k < probesPerDay; k++ {
				mark(d, n.probeName(day, k))
			}
		}
	}
}

// writeDataDir writes the -data directory segugiod loads at start-up.
func (n *network) writeDataDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w *bufio.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(f, 256<<10)
		if err := fn(w); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("blacklist.tsv", func(w *bufio.Writer) error { return logio.WriteBlacklist(w, n.blacklist) }); err != nil {
		return err
	}
	if err := write("whitelist.txt", func(w *bufio.Writer) error { return logio.WriteWhitelist(w, n.whitelist) }); err != nil {
		return err
	}
	if err := write("pdns.tsv", func(w *bufio.Writer) error {
		var werr error
		n.pdnsDB.ForEachRecord(pdnsFrom, day0-1, func(day int, domain string, ip dnsutil.IPv4) {
			if werr == nil {
				werr = logio.WritePDNSRecord(w, day, domain, ip)
			}
		})
		return werr
	}); err != nil {
		return err
	}
	return write("activity.tsv", func(w *bufio.Writer) error {
		for d := activityFrom; d < day0; d++ {
			for id := int32(0); int(id) < n.cat.NumDomains(); id++ {
				if !n.cat.ActiveOn(d, id) {
					continue
				}
				if err := logio.WriteActivityMark(w, d, n.cat.Name(id)); err != nil {
					return err
				}
			}
		}
		var werr error
		n.probeActivity(func(day int, domain string) {
			if werr == nil {
				werr = logio.WriteActivityMark(w, day, domain)
			}
		})
		return werr
	})
}

// train fits the detector on trainDay's batch graph with core.Train and
// writes it where segugiod's -model points. The forest keeps the
// deployment shape (96 trees, depth 14) so scoring cost in the daemon is
// the real one; only the per-tree sample is capped (forestRows).
func (n *network) train(modelPath string) (*core.Detector, error) {
	tr := n.gen.GenerateDay(trainDay)
	g := trace.BuildGraph(tr, n.cat, n.suffixes)
	g.ApplyLabels(graph.LabelSources{Blacklist: n.blacklist, Whitelist: n.whitelist, AsOf: trainDay})
	act := activity.NewLog()
	n.cat.MarkActivity(act, n.suffixes, trainDay-13, trainDay)
	cfg := core.DefaultConfig()
	cfg.NewModel = forest
	det, _, err := core.Train(cfg, core.TrainInput{Graph: g, Activity: act, Abuse: n.buildAbuse(trainDay)})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	var buf bytes.Buffer
	if err := core.SaveDetector(&buf, det); err != nil {
		return nil, err
	}
	if err := os.WriteFile(modelPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	// The oracle scores with the detector as the daemon will load it.
	return core.LoadDetector(bytes.NewReader(buf.Bytes()))
}

// probe is one planted detection target: a fresh, unlisted domain that
// resolves into an abused /24 and is queried by probeMachines machines
// that already queried a blacklisted domain earlier the same day.
type probe struct {
	Domain string
	Day    int
}

// dayStream is one day of tap traffic, pre-encoded as self-contained
// segb1 streams (each with its own symbol table, each sent on its own
// connection): the whole day, or — for the day the run starts on — the
// warm-up part and the rest. That keeps days independent: they encode in
// parallel, a restarted daemon is fed from a segment boundary, and
// resending the open day after a crash is replaying the same bytes.
// Chunks are byte ranges of whole frames carrying a known number of
// events, so the sender and the accounting fence work in chunks, never
// in bytes.
type dayStream struct {
	day    int
	buf    []byte
	chunks []chunkRef
	probes []probe
	events int
	pool   namePool
}

type chunkRef struct {
	off, end int // byte range in dayStream.buf
	events   int
	// dayEvents is the day's cumulative event count after this chunk.
	dayEvents int
	probe     int // index into dayStream.probes completed by this chunk, or -1
	// fresh marks the first chunk of a self-contained stream: it goes on
	// a new connection.
	fresh bool
}

// segments returns the byte ranges of the day's self-contained streams
// up to and including chunk last.
func (ds *dayStream) segments(last int) [][]byte {
	var out [][]byte
	start := 0
	for i := 1; i <= last; i++ {
		if ds.chunks[i].fresh {
			out = append(out, ds.buf[start:ds.chunks[i].off])
			start = ds.chunks[i].off
		}
	}
	return append(out, ds.buf[start:ds.chunks[last].end])
}

// walkDay replays day d's tap order: edges in seeded-shuffled order (not
// per-machine order), a domain's resolution just before its first query,
// and every edge twice — the second copy lands at a random later slot,
// because real taps repeat pairs and the builder's dedup path must work.
// emit returns false to stop early.
func (n *network) walkDay(day int, emit func(e logio.Event) bool) {
	tr := n.gen.GenerateDay(day)
	order := make([]int32, 2*len(tr.Edges))
	for i := range tr.Edges {
		order[2*i], order[2*i+1] = int32(i), int32(i)
	}
	rng := rand.New(rand.NewSource(n.seed*1000003 + int64(day)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	seen := make([]bool, n.cat.NumDomains())
	for _, ei := range order {
		e := tr.Edges[ei]
		name := n.cat.Name(e.Domain)
		if !seen[e.Domain] {
			seen[e.Domain] = true
			if !emit(logio.Event{Kind: logio.EventResolution, Day: day, Domain: name, IPs: n.cat.ResolveOn(day, e.Domain)}) {
				return
			}
		}
		if !emit(logio.Event{Kind: logio.EventQuery, Day: day, Machine: tr.MachineIDs[e.Machine], Domain: name}) {
			return
		}
	}
}

// probeQuietTail is the share of a day, at its end, that carries no
// probes.
const probeQuietTail = 0.35

// encodeDay builds day's stream with one probe planted after every
// probeEvery-th ordinary event (0: none), up to maxEvents ordinary
// events (0: the whole day), starting a fresh self-contained stream
// after each of splitAt ordinary events. Everything derives from the
// network's seed: the same seed gives a byte-identical stream.
func (n *network) encodeDay(day, probeEvery int, splitAt []int, maxEvents int) (*dayStream, error) {
	ds := &dayStream{day: day}
	var out bytes.Buffer
	enc := logio.NewEventEncoder(&out)
	// infected lists machines that have, so far today, queried a domain
	// the daemon labels malware; probes draw their machines from it, and
	// their bystanders from the machines seen so far that have not.
	var infected, others []string
	isInfected := map[string]bool{} // every machine seen so far -> seen infected
	prng := rand.New(rand.NewSource(n.seed*7919 + int64(day)))
	cur := chunkRef{probe: -1, fresh: true}
	ordinary, sinceProbe := 0, 0
	pooled := map[string]bool{}
	// A domain first seen in a day's last seconds is never audited live:
	// the rotation drops the day's graph before a pass has looked at it.
	// No probe is planted there, so that no run fails by design.
	probeStop := int((1 - probeQuietTail) * n.sc.dayEvents())
	var encErr error
	cut := func() {
		if encErr = enc.Flush(); encErr != nil || cur.events == 0 {
			return
		}
		cur.end, cur.dayEvents = out.Len(), ds.events
		ds.chunks = append(ds.chunks, cur)
		cur = chunkRef{off: out.Len(), probe: -1}
	}
	n.walkDay(day, func(e logio.Event) bool {
		if encErr = enc.Encode(e); encErr != nil {
			return false
		}
		cur.events++
		ds.events++
		ordinary++
		sinceProbe++
		if e.Kind == logio.EventQuery {
			listed := n.blacklist.Contains(e.Domain, day)
			inf, seen := isInfected[e.Machine]
			if !seen {
				isInfected[e.Machine] = false
				others = append(others, e.Machine)
			}
			if listed && !inf {
				isInfected[e.Machine] = true
				infected = append(infected, e.Machine)
			}
			if ordinary <= n.sc.poolFrom && !pooled[e.Domain] {
				pooled[e.Domain] = true
				if listed || n.whitelist.ContainsDomain(e.Domain, n.suffixes) {
					ds.pool.known = append(ds.pool.known, e.Domain)
				} else {
					ds.pool.unknown = append(ds.pool.unknown, e.Domain)
				}
			}
		}
		switch {
		case slices.Contains(splitAt, ordinary):
			cut()
			enc.Reset(&out)
			cur.fresh = true
		case probeEvery > 0 && sinceProbe >= probeEvery && ordinary >= n.sc.probeWarm && ordinary < probeStop &&
			len(infected) >= n.sc.probeMachines && len(ds.probes) < probesPerDay && day < day0+probeDays:
			sinceProbe = 0
			p := probe{Domain: n.probeName(day, len(ds.probes)), Day: day}
			for _, pe := range n.probeBurst(p, infected, others, isInfected, prng) {
				if encErr = enc.Encode(pe); encErr != nil {
					return false
				}
				cur.events++
				ds.events++
			}
			cur.probe = len(ds.probes)
			ds.probes = append(ds.probes, p)
			cut()
		case cur.events >= chunkEvents:
			cut()
		}
		return encErr == nil && (maxEvents == 0 || ordinary < maxEvents)
	})
	if encErr == nil {
		cut()
	}
	if encErr != nil {
		return nil, encErr
	}
	ds.buf = out.Bytes()
	return ds, nil
}

// probeName names probe k of a day: a fresh e2LD in the style of the
// catalog's control domains, so it is label-unknown. It is a function of
// the seed alone, because the activity digest has to know the names
// before any stream is encoded.
func (n *network) probeName(day, k int) string {
	h := uint64(n.seed)*0x9e3779b97f4a7c15 + uint64(day)*0xbf58476d1ce4e5b9 + uint64(k)*0x94d049bb133111eb
	h ^= h >> 31
	return fmt.Sprintf("sync-%06x%04x.info", h&0xffffff, k&0xffff)
}

// probeBurst is the probe's events: one resolution into an abused /24
// (a host address no catalog domain uses, so only the prefix evidence
// fires), then queries from scale.probeMachines distinct infected
// machines and scale.probeBystanders distinct machines not seen infected
// so far.
func (n *network) probeBurst(p probe, infected, others []string, isInfected map[string]bool, rng *rand.Rand) []logio.Event {
	prefix := n.abusedPrefixes[rng.Intn(len(n.abusedPrefixes))]
	ip := dnsutil.IPv4(uint32(prefix) | uint32(250+rng.Intn(5)))
	want := n.sc.probeMachines
	out := make([]logio.Event, 0, 1+want+n.sc.probeBystanders)
	out = append(out, logio.Event{Kind: logio.EventResolution, Day: p.Day, Domain: p.Domain, IPs: []dnsutil.IPv4{ip}})
	picked := map[string]bool{}
	for len(picked) < want {
		if m := infected[rng.Intn(len(infected))]; !picked[m] {
			picked[m] = true
			out = append(out, logio.Event{Kind: logio.EventQuery, Day: p.Day, Machine: m, Domain: p.Domain})
		}
	}
	for len(picked) < want+n.sc.probeBystanders {
		if m := others[rng.Intn(len(others))]; !picked[m] && !isInfected[m] {
			picked[m] = true
			out = append(out, logio.Event{Kind: logio.EventQuery, Day: p.Day, Machine: m, Domain: p.Domain})
		}
	}
	return out
}

// streamSHA is the SHA-256 over every day's bytes, in day order.
func streamSHA(days []*dayStream) string {
	h := sha256.New()
	for _, ds := range days {
		h.Write(ds.buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// forest is the deployment forest shape with a capped per-tree sample.
func forest(benign, malware int) ml.Model {
	w := 1.0
	if malware > 0 && benign > malware {
		w = min(float64(benign)/float64(malware), 10)
	}
	return ml.NewRandomForest(ml.RandomForestConfig{
		NumTrees: 96, MaxDepth: 14, MinLeaf: 4, SubsampleSize: forestRows, PositiveWeight: w, Seed: 1,
	})
}
