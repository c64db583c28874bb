// Package activity tracks on which days domains (and their effective
// second-level domains) were observed in DNS query logs. Segugio's
// domain-activity features (F2) are measured against this log: the number
// of active days in a 14-day look-back window and the length of the
// consecutive-activity streak ending on the observation day, for both the
// full domain name and its e2LD (paper Section II-A3).
package activity

import (
	"slices"
	"sort"
	"sync"
)

// Log records per-day activity for domains and e2LDs. It is safe for
// concurrent use. The zero value is not usable; construct with NewLog.
type Log struct {
	mu      sync.RWMutex
	domains map[string][]int // sorted unique day lists
	e2lds   map[string][]int
}

// NewLog returns an empty activity log.
func NewLog() *Log {
	return &Log{
		domains: make(map[string][]int),
		e2lds:   make(map[string][]int),
	}
}

// MarkDomain records that domain was actively queried on day.
func (l *Log) MarkDomain(day int, domain string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.domains[domain] = insertDay(l.domains[domain], day)
}

// MarkE2LD records that some name under e2ld was actively queried on day.
func (l *Log) MarkE2LD(day int, e2ld string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.e2lds[e2ld] = insertDay(l.e2lds[e2ld], day)
}

// Merge unions per-name day lists (any order, duplicates allowed) into the
// log under one lock: the bulk MarkDomain/MarkE2LD of history preloads, in
// any order with live marks. It keeps the lists; the caller must not reuse
// them.
func (l *Log) Merge(domains, e2lds map[string][]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	mergeSet(l.domains, domains)
	mergeSet(l.e2lds, e2lds)
}

func mergeSet(set, add map[string][]int) {
	for name, days := range add {
		days = append(days, set[name]...)
		slices.Sort(days)
		set[name] = slices.Compact(days)
	}
}

// insertDay inserts day into a sorted unique slice. Days normally arrive in
// order, so the append fast path dominates.
func insertDay(days []int, day int) []int {
	if n := len(days); n == 0 || days[n-1] < day {
		return append(days, day)
	}
	i := sort.SearchInts(days, day)
	if i < len(days) && days[i] == day {
		return days
	}
	days = append(days, 0)
	copy(days[i+1:], days[i:])
	days[i] = day
	return days
}

// DomainActiveDays counts the days in [from, to] on which domain was
// active.
func (l *Log) DomainActiveDays(domain string, from, to int) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return countInWindow(l.domains[domain], from, to)
}

// E2LDActiveDays counts the days in [from, to] on which e2ld was active.
func (l *Log) E2LDActiveDays(e2ld string, from, to int) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return countInWindow(l.e2lds[e2ld], from, to)
}

// DomainStreak returns the length of the consecutive-day activity run
// ending exactly at endDay (0 when the domain was not active on endDay).
func (l *Log) DomainStreak(domain string, endDay int) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return streak(l.domains[domain], endDay)
}

// E2LDStreak is DomainStreak for an effective second-level domain.
func (l *Log) E2LDStreak(e2ld string, endDay int) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return streak(l.e2lds[e2ld], endDay)
}

// FirstSeenDay returns the earliest recorded activity day for domain.
// ok is false when the domain has no recorded activity. Because Trim
// drops days outside the look-back window, this is the first *retained*
// day — exact for domains younger than the retention horizon (the case
// detection-freshness audit records care about: new detections are by
// construction recent arrivals), a lower bound on age otherwise.
func (l *Log) FirstSeenDay(domain string) (day int, ok bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	days := l.domains[domain]
	if len(days) == 0 {
		return 0, false
	}
	return days[0], true
}

// Domains reports the number of distinct tracked domains.
func (l *Log) Domains() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.domains)
}

// Trim drops all activity strictly before day, bounding memory in
// long-running deployments: once the observation day advances, anything
// older than the F2 look-back window is dead weight. Names left with no
// in-window activity are removed entirely.
func (l *Log) Trim(day int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	trimSet(l.domains, day)
	trimSet(l.e2lds, day)
}

func trimSet(set map[string][]int, day int) {
	for name, days := range set {
		i := sort.SearchInts(days, day)
		switch {
		case i == 0:
		case i == len(days):
			delete(set, name)
		default:
			set[name] = append(days[:0], days[i:]...)
		}
	}
}

func countInWindow(days []int, from, to int) int {
	lo := sort.SearchInts(days, from)
	hi := sort.SearchInts(days, to+1)
	return hi - lo
}

func streak(days []int, endDay int) int {
	i := sort.SearchInts(days, endDay)
	if i >= len(days) || days[i] != endDay {
		return 0
	}
	n := 1
	for j := i - 1; j >= 0 && days[j] == days[j+1]-1; j-- {
		n++
	}
	return n
}
