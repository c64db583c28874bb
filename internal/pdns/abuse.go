package pdns

import (
	"segugio/internal/dnsutil"
)

// Verdict classifies a domain from the ground truth available when the
// AbuseIndex is built. It intentionally mirrors the graph's node labels but
// lives here so pdns does not depend on the graph package.
type Verdict uint8

// Verdict values.
const (
	VerdictUnknown Verdict = iota
	VerdictBenign
	VerdictMalware
)

// origin tracks how many distinct domains contributed an address (or
// prefix) to a set, remembering the sole contributor while there is only
// one. That is what makes the *Excluding queries cheap: feature
// measurement must ignore the candidate domain's own history, both when a
// training domain's label is hidden and, symmetrically, at test time.
type origin struct {
	count int32
	sole  string
}

// AbuseIndex is the precomputed view of historically abused IP space that
// feature measurement consults. It answers, in O(1):
//
//   - was this IP (or its /24) pointed to by a known malware-control domain
//     during the look-back window W (other than a given excluded domain), and
//   - was it used by domains whose nature is still unknown.
//
// The paper sets W to the five months preceding the observation day.
type AbuseIndex struct {
	malwareIPs      map[dnsutil.IPv4]origin
	malwarePrefixes map[dnsutil.Prefix24]origin
	unknownIPs      map[dnsutil.IPv4]origin
	unknownPrefixes map[dnsutil.Prefix24]origin
	from, to        int
}

// BuildAbuseIndex scans db's records in [from, to] and classifies each
// domain's addresses by the verdict function. Benign domains contribute to
// neither set: the features only care about malware-associated and
// unknown-associated address space.
func BuildAbuseIndex(db *DB, from, to int, verdict func(domain string) Verdict) *AbuseIndex {
	idx := &AbuseIndex{
		malwareIPs:      make(map[dnsutil.IPv4]origin),
		malwarePrefixes: make(map[dnsutil.Prefix24]origin),
		unknownIPs:      make(map[dnsutil.IPv4]origin),
		unknownPrefixes: make(map[dnsutil.Prefix24]origin),
		from:            from,
		to:              to,
	}
	db.ForEachDomain(from, to, func(domain string, ips []dnsutil.IPv4) {
		var ipSet map[dnsutil.IPv4]origin
		var prefixSet map[dnsutil.Prefix24]origin
		switch verdict(domain) {
		case VerdictMalware:
			ipSet, prefixSet = idx.malwareIPs, idx.malwarePrefixes
		case VerdictUnknown:
			ipSet, prefixSet = idx.unknownIPs, idx.unknownPrefixes
		default: // benign history is not indexed
			return
		}
		seenPrefix := make(map[dnsutil.Prefix24]struct{}, len(ips))
		for _, ip := range ips {
			addOrigin(ipSet, ip, domain)
			p := dnsutil.Prefix24Of(ip)
			if _, dup := seenPrefix[p]; dup {
				continue // one contribution per (domain, prefix)
			}
			seenPrefix[p] = struct{}{}
			addOrigin(prefixSet, p, domain)
		}
	})
	return idx
}

func addOrigin[K comparable](set map[K]origin, key K, domain string) {
	o := set[key]
	o.count++
	if o.count == 1 {
		o.sole = domain
	} else {
		o.sole = ""
	}
	set[key] = o
}

// excludes reports whether the origin is explained away entirely by the
// excluded domain.
func (o origin) excluding(domain string) bool {
	if o.count == 0 {
		return false
	}
	return !(o.count == 1 && o.sole == domain)
}

// Window returns the [from, to] day range the index covers.
func (idx *AbuseIndex) Window() (from, to int) { return idx.from, idx.to }

// MalwareIP reports whether ip was pointed to by a known malware domain.
func (idx *AbuseIndex) MalwareIP(ip dnsutil.IPv4) bool {
	return idx.malwareIPs[ip].count > 0
}

// MalwareIPExcluding reports whether ip was pointed to by a known malware
// domain other than the excluded one.
func (idx *AbuseIndex) MalwareIPExcluding(ip dnsutil.IPv4, exclude string) bool {
	return idx.malwareIPs[ip].excluding(exclude)
}

// MalwarePrefix reports whether any address in ip's /24 was pointed to by
// a known malware domain.
func (idx *AbuseIndex) MalwarePrefix(ip dnsutil.IPv4) bool {
	return idx.malwarePrefixes[dnsutil.Prefix24Of(ip)].count > 0
}

// MalwarePrefixExcluding is MalwarePrefix ignoring the excluded domain's
// own contributions.
func (idx *AbuseIndex) MalwarePrefixExcluding(ip dnsutil.IPv4, exclude string) bool {
	return idx.malwarePrefixes[dnsutil.Prefix24Of(ip)].excluding(exclude)
}

// UnknownIP reports whether ip was used by a still-unknown domain.
func (idx *AbuseIndex) UnknownIP(ip dnsutil.IPv4) bool {
	return idx.unknownIPs[ip].count > 0
}

// UnknownIPExcluding is UnknownIP ignoring the excluded domain's own
// contributions.
func (idx *AbuseIndex) UnknownIPExcluding(ip dnsutil.IPv4, exclude string) bool {
	return idx.unknownIPs[ip].excluding(exclude)
}

// UnknownPrefixExcluding reports whether ip's /24 was used by a
// still-unknown domain other than exclude.
func (idx *AbuseIndex) UnknownPrefixExcluding(ip dnsutil.IPv4, exclude string) bool {
	return idx.unknownPrefixes[dnsutil.Prefix24Of(ip)].excluding(exclude)
}

// Stats summarizes the index size, useful for logging and tests.
func (idx *AbuseIndex) Stats() (malwareIPs, malwarePrefixes, unknownIPs, unknownPrefixes int) {
	return len(idx.malwareIPs), len(idx.malwarePrefixes), len(idx.unknownIPs), len(idx.unknownPrefixes)
}
