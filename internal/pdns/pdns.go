// Package pdns implements a passive-DNS database: a time-indexed history of
// domain→IP resolutions, as collected below a local resolver over months of
// monitoring.
//
// Segugio's IP-abuse features (F3) ask, for each resolved address of a
// candidate domain, whether that address or its /24 prefix was pointed to by
// already-known malware-control domains during a look-back window W (five
// months in the paper), and how much the address space was shared with
// still-unknown domains. This package stores the raw history and builds the
// AbuseIndex those features are measured against.
//
// Days are plain integers counting days since the start of the simulated
// timeline; the observation day of a graph is always larger than every
// historical day recorded here.
package pdns

import (
	"sort"
	"sync"

	"segugio/internal/dnsutil"
)

// Observation is one entry of a domain's history: it resolved to IP on Day.
type Observation struct {
	Day int
	IP  dnsutil.IPv4
}

// DB is an append-mostly passive-DNS store. It is safe for concurrent use.
type DB struct {
	mu       sync.RWMutex
	byDomain map[string][]Observation
	records  int
	minDay   int
	maxDay   int
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{byDomain: make(map[string][]Observation), minDay: -1, maxDay: -1}
}

// Add records that domain resolved to ip on day. Duplicate observations are
// deduplicated lazily at query time.
func (db *DB) Add(day int, domain string, ip dnsutil.IPv4) {
	db.AddRun(domain, []Observation{{Day: day, IP: ip}})
}

// AddRun appends a run of domain's observations under one lock: the bulk
// form of Add for history loads, with the same result as one Add per
// entry in run order. run is copied.
func (db *DB) AddRun(domain string, run []Observation) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.byDomain[domain] = append(db.byDomain[domain], run...)
	db.records += len(run)
	for _, o := range run {
		if db.minDay < 0 || o.Day < db.minDay {
			db.minDay = o.Day
		}
		db.maxDay = max(db.maxDay, o.Day)
	}
}

// Len reports the total number of stored resolution records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.records
}

// Domains reports the number of distinct domains with history.
func (db *DB) Domains() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.byDomain)
}

// DayRange returns the earliest and latest recorded days, or (-1, -1) for an
// empty database.
func (db *DB) DayRange() (minDay, maxDay int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.minDay, db.maxDay
}

// IPs returns the distinct addresses domain resolved to within [from, to]
// (inclusive), in ascending order.
func (db *DB) IPs(domain string, from, to int) []dnsutil.IPv4 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seen := make(map[dnsutil.IPv4]struct{})
	for _, r := range db.byDomain[domain] {
		if r.Day >= from && r.Day <= to {
			seen[r.IP] = struct{}{}
		}
	}
	out := make([]dnsutil.IPv4, 0, len(seen))
	for ip := range seen {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ActiveDays returns the distinct days within [from, to] on which domain had
// at least one recorded resolution, in ascending order.
func (db *DB) ActiveDays(domain string, from, to int) []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seen := make(map[int]struct{})
	for _, r := range db.byDomain[domain] {
		if r.Day >= from && r.Day <= to {
			seen[r.Day] = struct{}{}
		}
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// ForEachRecord calls fn for every stored resolution with day in
// [from, to]. Iteration order is unspecified. fn must not call back into
// the DB's write methods.
func (db *DB) ForEachRecord(from, to int, fn func(day int, domain string, ip dnsutil.IPv4)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for domain, hist := range db.byDomain {
		for _, r := range hist {
			if r.Day >= from && r.Day <= to {
				fn(r.Day, domain, r.IP)
			}
		}
	}
}

// ForEachDomain calls fn for every domain with at least one record in
// [from, to], passing the distinct IPs observed in that window. Iteration
// order is unspecified. fn must not call back into the DB's write methods.
func (db *DB) ForEachDomain(from, to int, fn func(domain string, ips []dnsutil.IPv4)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for domain, hist := range db.byDomain {
		var ips []dnsutil.IPv4
		seen := make(map[dnsutil.IPv4]struct{})
		for _, r := range hist {
			if r.Day < from || r.Day > to {
				continue
			}
			if _, dup := seen[r.IP]; dup {
				continue
			}
			seen[r.IP] = struct{}{}
			ips = append(ips, r.IP)
		}
		if len(ips) > 0 {
			fn(domain, ips)
		}
	}
}
