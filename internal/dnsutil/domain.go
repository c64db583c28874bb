// Package dnsutil provides domain-name and IPv4 utilities used throughout
// Segugio: fully-qualified-domain normalization and validation, effective
// second-level-domain (e2LD) extraction against a public-suffix list
// augmented with dynamic-DNS zones, and compact IPv4 / "/24"-prefix handling.
//
// The paper computes the effective second-level domain of every queried name
// by leveraging the Mozilla Public Suffix List augmented with a custom list
// of dynamic-DNS provider zones (Section II-A1, footnote 2). This package
// embeds a curated subset of the public suffix list that covers the zones
// exercised by the synthetic workloads, and allows callers to register
// additional suffixes (e.g. dynamic-DNS zones discovered operationally).
package dnsutil

import (
	"errors"
	"fmt"
	"strings"
)

// Errors returned by domain validation.
var (
	ErrEmptyDomain  = errors.New("dnsutil: empty domain name")
	ErrDomainTooLng = errors.New("dnsutil: domain name exceeds 253 characters")
	ErrBadLabel     = errors.New("dnsutil: invalid domain label")
)

// Normalize lowercases a domain name, strips a single trailing dot, and
// validates its syntax. It returns the canonical form used as a graph-node
// key everywhere else in the system.
func Normalize(domain string) (string, error) {
	d := strings.ToLower(strings.TrimSuffix(domain, "."))
	if d == "" {
		return "", ErrEmptyDomain
	}
	if len(d) > 253 {
		return "", ErrDomainTooLng
	}
	start := 0
	for i := 0; i <= len(d); i++ {
		if i != len(d) && d[i] != '.' {
			continue
		}
		label := d[start:i]
		if err := checkLabel(label); err != nil {
			return "", fmt.Errorf("%w: %q in %q", err, label, d)
		}
		start = i + 1
	}
	return d, nil
}

// checkLabel validates a single DNS label (letters, digits, hyphen and
// underscore; no leading/trailing hyphen; 1..63 bytes). Underscores are
// accepted because they appear in real DNS traffic (e.g. DKIM, SRV owners).
func checkLabel(label string) error {
	if len(label) == 0 || len(label) > 63 {
		return ErrBadLabel
	}
	if label[0] == '-' || label[len(label)-1] == '-' {
		return ErrBadLabel
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case 'a' <= c && c <= 'z':
		case '0' <= c && c <= '9':
		case c == '-' || c == '_':
		default:
			return ErrBadLabel
		}
	}
	return nil
}

// Labels splits a normalized domain into its dot-separated labels.
func Labels(domain string) []string {
	if domain == "" {
		return nil
	}
	return strings.Split(domain, ".")
}

// SuffixList answers "is this a public suffix?" queries and extracts
// effective second-level domains. The zero value is not usable; construct
// with NewSuffixList or DefaultSuffixList.
//
// Matching follows the public-suffix-list algorithm: exact rules
// ("co.uk"), wildcard rules ("*.compute.example"), and exception rules
// ("!city.kawasaki.jp") that negate a wildcard for one name. Exceptions
// prevail over everything; otherwise the longest matching rule wins.
type SuffixList struct {
	exact      map[string]struct{}
	wildcard   map[string]struct{} // key is the parent of the "*": "compute.example"
	exceptions map[string]struct{}
}

// NewSuffixList builds a suffix list from explicit rules. Rules beginning
// with "*." are wildcard rules, rules beginning with "!" are exceptions;
// all others are exact. Rules are assumed to be already lowercase.
func NewSuffixList(rules []string) *SuffixList {
	s := &SuffixList{
		exact:      make(map[string]struct{}, len(rules)),
		wildcard:   make(map[string]struct{}),
		exceptions: make(map[string]struct{}),
	}
	for _, r := range rules {
		s.Add(r)
	}
	return s
}

// Add registers an additional suffix rule. It is how deployments fold in
// custom dynamic-DNS zones, mirroring the paper's augmented suffix list.
func (s *SuffixList) Add(rule string) {
	if rest, ok := strings.CutPrefix(rule, "!"); ok {
		s.exceptions[rest] = struct{}{}
		return
	}
	if rest, ok := strings.CutPrefix(rule, "*."); ok {
		s.wildcard[rest] = struct{}{}
		return
	}
	s.exact[rule] = struct{}{}
}

// Len reports the number of rules in the list.
func (s *SuffixList) Len() int { return len(s.exact) + len(s.wildcard) + len(s.exceptions) }

// PublicSuffix returns the longest public suffix of domain, or "" if no rule
// matches. domain must be normalized. Every candidate is a suffix of the
// input, so the scan slices at dot offsets and allocates nothing.
func (s *SuffixList) PublicSuffix(domain string) string {
	// Exception rules prevail over every other rule: the public suffix is
	// the exception with its leftmost label removed.
	if len(s.exceptions) > 0 {
		for cand := domain; ; {
			dot := strings.IndexByte(cand, '.')
			if dot < 0 {
				break
			}
			if _, ok := s.exceptions[cand]; ok {
				return cand[dot+1:]
			}
			cand = cand[dot+1:]
		}
	}
	// Scan from the longest candidate suffix to the shortest so the longest
	// rule wins, then fall back to the TLD-as-suffix default rule.
	for cand := domain; ; {
		if _, ok := s.exact[cand]; ok {
			return cand
		}
		dot := strings.IndexByte(cand, '.')
		if dot < 0 {
			// Default rule: the bare TLD is a public suffix.
			return cand
		}
		// A wildcard rule "*.foo" makes "<anything>.foo" a public suffix.
		if _, ok := s.wildcard[cand[dot+1:]]; ok {
			return cand
		}
		cand = cand[dot+1:]
	}
}

// E2LD returns the effective second-level domain of a normalized domain
// name: the public suffix plus one label. If the domain is itself a public
// suffix (or a bare TLD), E2LD returns the domain unchanged. The result is
// always a suffix of domain and shares its storage.
func (s *SuffixList) E2LD(domain string) string {
	suffix := s.PublicSuffix(domain)
	if len(suffix) >= len(domain) {
		return domain
	}
	rest := domain[:len(domain)-len(suffix)-1] // strip ".suffix"
	return domain[strings.LastIndexByte(rest, '.')+1:]
}

// defaultRules is a curated subset of the Mozilla Public Suffix List plus
// common dynamic-DNS provider zones, sufficient for the synthetic workloads
// and representative of a production deployment's augmented list.
var defaultRules = []string{
	// Generic TLDs (covered by the default rule too; listed for clarity).
	"com", "net", "org", "info", "biz", "edu", "gov", "mil", "int",
	// Country-code second-level registrations.
	"co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk",
	"com.br", "net.br", "org.br", "gov.br",
	"co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
	"com.cn", "net.cn", "org.cn", "gov.cn",
	"com.au", "net.au", "org.au",
	"co.kr", "or.kr", "ne.kr",
	"co.in", "net.in", "org.in",
	"com.ru", "net.ru", "org.ru",
	"com.tr", "net.tr", "org.tr",
	"co.za", "org.za",
	"com.mx", "org.mx",
	"com.ar", "net.ar",
	// Wildcard-style hosting zones.
	"*.compute.amazonaws.example",
	// Dynamic-DNS provider zones (the paper's custom augmentation). These
	// make "user.dyndns.example" an e2LD of its own, so per-user subdomains
	// are not collapsed into the provider's zone.
	"dyndns.example", "no-ip.example", "duckdns.example",
	"dynv6.example", "afraid-dns.example",
}

// DefaultSuffixList returns a SuffixList loaded with the embedded rules.
// Each call returns a fresh list so callers may Add to it independently.
func DefaultSuffixList() *SuffixList {
	return NewSuffixList(defaultRules)
}
