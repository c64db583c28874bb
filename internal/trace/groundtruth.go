package trace

import (
	"fmt"
	"sort"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/intel"
	"segugio/internal/pdns"
	"segugio/internal/sandbox"
)

// BlacklistConfig controls how a ground-truth feed is sampled from the
// catalog's true malware population.
type BlacklistConfig struct {
	// Coverage is the fraction of true control domains the feed knows.
	Coverage float64
	// MeanListingDelayDays is the mean lag between a control domain's
	// activation and its appearance on the feed (geometric).
	MeanListingDelayDays int
	// NoiseDomains is the number of benign domains the feed mislabels as
	// C&C (public feeds carry such noise; Section IV-E).
	NoiseDomains int
	// Salt differentiates independent feeds drawn from the same catalog.
	Salt uint64
}

// Blacklist samples a C&C domain feed from the true malware population.
// Every included entry carries its family tag and a FirstListed day, so
// experiments can honestly restrict training knowledge to a point in time
// and measure early detection against listing lag.
func (c *Catalog) Blacklist(cfg BlacklistConfig) *intel.Blacklist {
	bl := intel.NewBlacklist()
	seed := uint64(c.cfg.Seed)
	for _, id := range c.AllCCDomains() {
		h := mix(seed, 0x70, cfg.Salt, uint64(id))
		if !chance(cfg.Coverage, h, 1) {
			continue
		}
		delay := geometricDelay(cfg.MeanListingDelayDays, h)
		fam, _ := c.TrueFamily(id)
		bl.Add(intel.BlacklistEntry{
			Domain:      c.Name(id),
			Family:      fam,
			FirstListed: c.ccFrom[id-c.offCC] + delay,
		})
	}
	for i := 0; i < cfg.NoiseDomains; i++ {
		h := mix(seed, 0x71, cfg.Salt, uint64(i))
		// Mislabeled benign domains in real public feeds are small sites
		// (the paper's examples: recsports.uga.edu, www.hdblog.it), so
		// noise is drawn from the unpopular half of the benign catalog.
		lo := int(c.offSub) / 2
		id := int32(lo + pick(int(c.offSub)-lo, h, 1))
		bl.Add(intel.BlacklistEntry{Domain: c.Name(id), Family: "misc", FirstListed: 0})
	}
	return bl
}

// geometricDelay draws a non-negative geometric delay with the given mean.
func geometricDelay(mean int, h uint64) int {
	if mean <= 0 {
		return 0
	}
	p := 1.0 / (float64(mean) + 1)
	d := 0
	for ; d < 6*mean; d++ {
		if chance(p, h, uint64(1000+d)) {
			break
		}
	}
	return d
}

// RankArchiveConfig controls the synthetic popularity-ranking archive.
type RankArchiveConfig struct {
	// Days is the number of archived ranking days (the paper collects one
	// year).
	Days int
	// ListLen truncates each day's ranked list (the paper's top-1M cut).
	ListLen int
	// JitterFraction scales the day-to-day rank noise relative to the
	// catalog size; borderline e2LDs churn across the ListLen cut, which
	// is exactly what the "consistently top" filter defends against.
	JitterFraction float64
}

// RankArchive produces the daily popularity rankings of benign e2LDs and
// free-registration zones, analogous to the paper's alexa.com archive.
// Free-registration zones rank among the popular sites (blog hosts are
// popular), which is why imperfect exclusion of them leaves whitelist
// noise.
func (c *Catalog) RankArchive(cfg RankArchiveConfig) *intel.RankArchive {
	arch := intel.NewRankArchive()
	n := len(c.benignE2LDs)
	jitter := cfg.JitterFraction * float64(n)
	type scored struct {
		name  string
		score float64
	}
	for day := 0; day < cfg.Days; day++ {
		entries := make([]scored, 0, n+len(c.zoneNames))
		for i, name := range c.benignE2LDs {
			noise := (unitFloat(mix(uint64(c.cfg.Seed), 0x80, uint64(day), uint64(i))) - 0.5) * 2 * jitter
			entries = append(entries, scored{name: name, score: float64(i) + noise})
		}
		for z, name := range c.zoneNames {
			// Zones sit firmly inside the popular band.
			entries = append(entries, scored{name: name, score: float64((z + 1) * n / (len(c.zoneNames) + 2) / 10)})
		}
		sort.Slice(entries, func(a, b int) bool { return entries[a].score < entries[b].score })
		limit := len(entries)
		if cfg.ListLen > 0 && cfg.ListLen < limit {
			limit = cfg.ListLen
		}
		ranked := make([]string, limit)
		for i := 0; i < limit; i++ {
			ranked[i] = entries[i].name
		}
		arch.AddDay(ranked)
	}
	return arch
}

// KnownFreeRegZones returns the subset of free-registration zones an
// operator managed to identify for whitelist exclusion. The remainder is
// the whitelist noise behind Segugio's residual false positives
// (Section IV-D). knownFraction 1 models a perfect exclusion list.
// Exactly round(fraction x zones) zones are selected (by a deterministic
// shuffle), so an imperfect fraction always leaves some zone unexcluded.
func (c *Catalog) KnownFreeRegZones(knownFraction float64) []string {
	n := len(c.zoneNames)
	count := int(knownFraction*float64(n) + 0.5)
	if count > n {
		count = n
	}
	// Deterministic shuffle by hash score.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return mix(uint64(c.cfg.Seed), 0x81, uint64(order[a])) < mix(uint64(c.cfg.Seed), 0x81, uint64(order[b]))
	})
	out := make([]string, 0, count)
	for _, z := range order[:count] {
		out = append(out, c.zoneNames[z])
	}
	sort.Strings(out)
	return out
}

// SandboxSet returns the domains observed in malware-execution network
// traces: every control domain and abused subdomain, plus the popular
// benign domains malware also contacts (connectivity checks etc.). It
// backs the "evidence of malware communications" rows of Tables III
// and IV. EmitSandboxTraces produces the full per-sample trace database;
// this set is the flat union view.
func (c *Catalog) SandboxSet() map[string]struct{} {
	out := make(map[string]struct{})
	for _, id := range c.AllCCDomains() {
		out[c.Name(id)] = struct{}{}
	}
	for _, id := range c.AllAbusedSubdomains() {
		out[c.Name(id)] = struct{}{}
	}
	for id := int32(0); id < c.offSub; id++ {
		if c.sandboxContactsBenign(id) {
			out[c.Name(id)] = struct{}{}
		}
	}
	return out
}

// sandboxContactsBenign decides whether executed malware also contacts
// this benign hostname (connectivity checks against popular sites, and
// content hosted in dirty networks).
func (c *Catalog) sandboxContactsBenign(id int32) bool {
	e2ld := c.fqdnE2LD[id]
	popular := int(e2ld) < len(c.benignE2LDs)/20
	dirty := c.dirtyE2LD[e2ld]
	h := mix(uint64(c.cfg.Seed), 0x82, uint64(id))
	return (popular && chance(0.05, h, 1)) || (dirty && chance(0.3, h, 2))
}

// EmitSandboxTraces fills a sandbox trace database with per-sample
// execution records up to upToDay: samplesPerFamily samples per malware
// family, each querying a handful of its family's control domains active
// on the execution day, occasionally its abused free-registration pages,
// and a few popular benign domains (connectivity checks). A tail of
// unclustered samples models the vendor's imperfect family labeling.
func (c *Catalog) EmitSandboxTraces(db *sandbox.DB, samplesPerFamily, upToDay int) {
	seed := uint64(c.cfg.Seed)
	// Benign contact pool, shared across samples.
	var benignPool []string
	for id := int32(0); id < c.offSub; id++ {
		if c.sandboxContactsBenign(id) {
			benignPool = append(benignPool, c.names[id])
		}
	}
	for f := 0; f < c.cfg.Families; f++ {
		for s := 0; s < samplesPerFamily; s++ {
			h := mix(seed, 0x83, uint64(f), uint64(s))
			day := pick(upToDay+1, h, 1)
			tr := sandbox.Trace{
				SampleID: fmt.Sprintf("sha-%03d-%04x", f, mix(h, 2)&0xffff),
				Family:   c.familyNames[f],
				Day:      day,
			}
			if chance(0.1, h, 3) {
				tr.Family = "" // unclustered sample
			}
			cc := c.ActiveCC(day, f)
			n := 2 + pick(4, h, 4)
			for i := 0; i < n && len(cc) > 0; i++ {
				tr.Domains = append(tr.Domains, c.names[cc[pick(len(cc), h, uint64(10+i))]])
			}
			if subs := c.ActiveAbusedSubs(day, f); len(subs) > 0 && chance(0.5, h, 5) {
				tr.Domains = append(tr.Domains, c.names[subs[pick(len(subs), h, 6)]])
			}
			for i := 0; i < 2 && len(benignPool) > 0; i++ {
				if chance(0.7, h, uint64(20+i)) {
					tr.Domains = append(tr.Domains, benignPool[pick(len(benignPool), h, uint64(30+i))])
				}
			}
			if len(tr.Domains) == 0 {
				continue // family dormant on that day; no network behavior
			}
			db.Add(tr)
		}
	}
}

// EmitPDNSHistory feeds the passive-DNS database with the catalog's
// resolution history for days [from, to]. Records are emitted at IP-set
// changes and at periodic refreshes, which is sufficient for the
// abuse-index and reject-option queries built on the database.
func (c *Catalog) EmitPDNSHistory(db *pdns.DB, from, to int) {
	emit := func(name string, ips []dnsutil.IPv4, day int) {
		for _, ip := range ips {
			db.Add(day, name, ip)
		}
	}
	span := func(lo, hi, step int, f func(day int)) {
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		for d := lo; d <= hi; d += step {
			f(d)
		}
	}
	// Benign FQDNs: stable addresses, observed weekly (popular domains
	// are resolved continuously; weekly snapshots keep the database
	// compact without distorting history-depth features), starting when
	// the hostname went live.
	for id := int32(0); id < c.offSub; id++ {
		ips := c.e2ldIPs[c.fqdnE2LD[id]]
		span(c.fqdnBirth[id], to, 7, func(d int) { emit(c.names[id], ips, d) })
	}
	// Free-registration subdomains.
	for l := range c.subZone {
		id := c.offSub + int32(l)
		if c.subAbused[l] {
			span(c.subFrom[l], c.subTo[l], 7, func(d int) { emit(c.names[id], c.subIPs[l], d) })
			continue
		}
		span(from, to, 30, func(d int) { emit(c.names[id], c.subIPs[l], d) })
	}
	// Control domains: record activation, the mid-life relocation, and
	// weekly refreshes in between.
	for l := range c.ccFamily {
		id := c.offCC + int32(l)
		mid := (c.ccFrom[l] + c.ccTo[l]) / 2
		span(c.ccFrom[l], mid-1, 7, func(d int) { emit(c.names[id], c.ccEarlyIPs[l], d) })
		span(mid, c.ccTo[l], 7, func(d int) { emit(c.names[id], c.ccLateIPs[l], d) })
	}
	// Long-tail domains after birth.
	for l := range c.tailBirth {
		id := c.offTail + int32(l)
		span(c.tailBirth[l], to, 30, func(d int) { emit(c.names[id], c.tailIPs[l], d) })
	}
}

// MarkActivity records, for days [from, to], every active domain (and its
// e2LD) into the activity log. Feature group F2 is measured against this.
func (c *Catalog) MarkActivity(log *activity.Log, suffixes *dnsutil.SuffixList, from, to int) {
	n := int32(c.NumDomains())
	e2ldCache := make([]string, n)
	for day := from; day <= to; day++ {
		for id := int32(0); id < n; id++ {
			if !c.ActiveOn(day, id) {
				continue
			}
			name := c.names[id]
			log.MarkDomain(day, name)
			if e2ldCache[id] == "" {
				e2ldCache[id] = suffixes.E2LD(name)
			}
			log.MarkE2LD(day, e2ldCache[id])
		}
	}
}
