package dnsutil

import (
	"math/rand"
	"strings"
	"testing"
)

const samplePSL = `
// ===BEGIN ICANN DOMAINS===
com
uk
co.uk

// Japan has wildcard geo zones with city exceptions.
jp
*.kawasaki.jp
!city.kawasaki.jp

// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
blogspot.example
// trailing-comment style entries
dyndns.example  registrar remark
`

func TestParseSuffixList(t *testing.T) {
	s, err := ParseSuffixList(strings.NewReader(samplePSL))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		domain, wantE2LD string
	}{
		{"www.bbc.co.uk", "bbc.co.uk"},
		{"example.com", "example.com"},
		// Wildcard: anything.kawasaki.jp is a public suffix.
		{"site.foo.kawasaki.jp", "site.foo.kawasaki.jp"},
		{"deep.site.foo.kawasaki.jp", "site.foo.kawasaki.jp"},
		// Exception: city.kawasaki.jp is registrable despite the wildcard.
		{"city.kawasaki.jp", "city.kawasaki.jp"},
		{"www.city.kawasaki.jp", "city.kawasaki.jp"},
		// Private-section zones behave like any suffix.
		{"alice.blogspot.example", "alice.blogspot.example"},
		{"c2.alice.dyndns.example", "alice.dyndns.example"},
	}
	for _, tt := range tests {
		if got := s.E2LD(tt.domain); got != tt.wantE2LD {
			t.Errorf("E2LD(%q) = %q, want %q", tt.domain, got, tt.wantE2LD)
		}
	}
}

func TestParseSuffixListPublicSuffixException(t *testing.T) {
	s, err := ParseSuffixList(strings.NewReader(samplePSL))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PublicSuffix("www.city.kawasaki.jp"); got != "kawasaki.jp" {
		t.Fatalf("PublicSuffix = %q, want kawasaki.jp (exception strips leftmost label)", got)
	}
	if got := s.PublicSuffix("other.kawasaki.jp"); got != "other.kawasaki.jp" {
		t.Fatalf("PublicSuffix = %q, want other.kawasaki.jp (wildcard)", got)
	}
}

func TestParseSuffixListRejectsGarbage(t *testing.T) {
	// Note the official format truncates rules at the first whitespace,
	// so the invalid part must be in the first token.
	if _, err := ParseSuffixList(strings.NewReader("b@d..rule\n")); err == nil {
		t.Fatal("garbage rule must fail")
	}
}

func TestParseSuffixListEmpty(t *testing.T) {
	s, err := ParseSuffixList(strings.NewReader("// only comments\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	// Default rule still applies.
	if got := s.E2LD("a.b.c"); got != "b.c" {
		t.Fatalf("E2LD with default rule = %q, want b.c", got)
	}
}

func TestSuffixListCaseInsensitiveRules(t *testing.T) {
	s, err := ParseSuffixList(strings.NewReader("CO.UK\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.E2LD("www.bbc.co.uk"); got != "bbc.co.uk" {
		t.Fatalf("E2LD = %q, want bbc.co.uk", got)
	}
}

// refPublicSuffix and refE2LD are the split-and-join implementation the
// slicing one replaced, kept as the reference its outputs are pinned to.
func refPublicSuffix(s *SuffixList, domain string) string {
	labels := Labels(domain)
	if len(s.exceptions) > 0 {
		for i := 0; i < len(labels)-1; i++ {
			if _, ok := s.exceptions[strings.Join(labels[i:], ".")]; ok {
				return strings.Join(labels[i+1:], ".")
			}
		}
	}
	for i := 0; i < len(labels); i++ {
		cand := strings.Join(labels[i:], ".")
		if _, ok := s.exact[cand]; ok {
			return cand
		}
		if i+1 < len(labels) {
			if _, ok := s.wildcard[strings.Join(labels[i+1:], ".")]; ok {
				return cand
			}
		}
	}
	return labels[len(labels)-1]
}

func refE2LD(s *SuffixList, domain string) string {
	suffix := refPublicSuffix(s, domain)
	if len(suffix) >= len(domain) {
		return domain
	}
	rest := domain[:len(domain)-len(suffix)-1]
	if i := strings.LastIndexByte(rest, '.'); i >= 0 {
		return rest[i+1:] + "." + suffix
	}
	return rest + "." + suffix
}

// TestSuffixListMatchesReference pins PublicSuffix and E2LD to the
// reference over the table cases above plus seeded random names drawn
// from a small label alphabet, so exceptions, wildcards, multi-label
// rules and bare TLDs are all hit often.
func TestSuffixListMatchesReference(t *testing.T) {
	sample, err := ParseSuffixList(strings.NewReader(samplePSL))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"www.bbc.co.uk", "example.com", "site.foo.kawasaki.jp", "deep.site.foo.kawasaki.jp",
		"city.kawasaki.jp", "www.city.kawasaki.jp", "other.kawasaki.jp", "kawasaki.jp", "jp",
		"alice.blogspot.example", "c2.alice.dyndns.example", "dyndns.example", "co.uk", "uk",
		"a.b.c", "localhost", "x.compute.amazonaws.example", "h.x.compute.amazonaws.example",
		"compute.amazonaws.example",
	}
	labels := []string{"a", "www", "city", "kawasaki", "jp", "co", "uk", "com", "foo",
		"example", "dyndns", "blogspot", "compute", "amazonaws", "x1"}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 5000; i++ {
		parts := make([]string, 1+rng.Intn(6))
		for j := range parts {
			parts[j] = labels[rng.Intn(len(labels))]
		}
		names = append(names, strings.Join(parts, "."))
	}
	for _, list := range []*SuffixList{sample, DefaultSuffixList(), NewSuffixList(nil)} {
		for _, name := range names {
			if got, want := list.PublicSuffix(name), refPublicSuffix(list, name); got != want {
				t.Fatalf("PublicSuffix(%q) = %q, reference %q", name, got, want)
			}
			if got, want := list.E2LD(name), refE2LD(list, name); got != want {
				t.Fatalf("E2LD(%q) = %q, reference %q", name, got, want)
			}
		}
	}
}

var e2ldSink string

// BenchmarkE2LD is gated at 0 allocs/op in scripts/bench-allocs.sh: E2LD
// runs once per interned name in every builder, snapshot decode and the
// batch oracle.
func BenchmarkE2LD(b *testing.B) {
	s := DefaultSuffixList()
	names := []string{
		"h17.zone3.example.com", "www.bbc.co.uk", "c2.alice.dyndns.example",
		"a.b.x.compute.amazonaws.example", "localhost",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e2ldSink = s.E2LD(names[i%len(names)])
	}
}
