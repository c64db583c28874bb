package logio

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/pdns"
)

// readActivityPerLine is the per-line activity loader ReadActivity
// replaced: two locked marks per line. It is the reference the bulk
// loader must match.
func readActivityPerLine(r io.Reader, log *activity.Log, suffixes *dnsutil.SuffixList) error {
	e2ldCache := make(map[string]string)
	return scanLines(r, func(lineNo int, line string) error {
		dayStr, rest, ok := strings.Cut(line, "\t")
		if !ok {
			return fmt.Errorf("logio: activity line %d: want day<TAB>domain", lineNo)
		}
		day, err := strconv.Atoi(dayStr)
		if err != nil {
			return fmt.Errorf("logio: activity line %d: bad day %q", lineNo, dayStr)
		}
		domain, err := dnsutil.Normalize(rest)
		if err != nil {
			return fmt.Errorf("logio: activity line %d: %w", lineNo, err)
		}
		log.MarkDomain(day, domain)
		e2ld, cached := e2ldCache[domain]
		if !cached {
			e2ld = suffixes.E2LD(domain)
			e2ldCache[domain] = e2ld
		}
		log.MarkE2LD(day, e2ld)
		return nil
	})
}

// readPDNSPerLine is the per-line passive-DNS loader ReadPDNS replaced:
// a split and a locked Add per line.
func readPDNSPerLine(r io.Reader, db *pdns.DB) error {
	return scanLines(r, func(lineNo int, line string) error {
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			return fmt.Errorf("logio: pdns line %d: want day<TAB>domain<TAB>ip", lineNo)
		}
		day, err := strconv.Atoi(fields[0])
		if err != nil {
			return fmt.Errorf("logio: pdns line %d: bad day %q", lineNo, fields[0])
		}
		domain, err := dnsutil.Normalize(fields[1])
		if err != nil {
			return fmt.Errorf("logio: pdns line %d: %w", lineNo, err)
		}
		ip, err := dnsutil.ParseIPv4(fields[2])
		if err != nil {
			return fmt.Errorf("logio: pdns line %d: %w", lineNo, err)
		}
		db.Add(day, domain, ip)
		return nil
	})
}

// historyFixture renders an isp-50k-shaped activity file (day-major, about
// nine active days per name in a two-week window, names grouped under
// shared e2LDs) and pdns file (per-domain runs of about eight
// resolutions), scaled to names domains.
func historyFixture(seed int64, names int) (act, pd []byte) {
	rng := rand.New(rand.NewSource(seed))
	name := func(i int) string { return fmt.Sprintf("h%d.e%d.com", i, i/6) }
	var a, p bytes.Buffer
	for day := 170; day < 184; day++ {
		for i := 0; i < names; i++ {
			if (i+day)%3 != 0 || rng.Intn(4) == 0 {
				WriteActivityMark(&a, day, name(i))
			}
		}
	}
	for i := 0; i < names; i++ {
		for k := 4 + rng.Intn(8); k > 0; k-- {
			ip := dnsutil.MakeIPv4(10, byte(i/251), byte(i%251), byte(rng.Intn(4)))
			WritePDNSRecord(&p, 20+rng.Intn(150), name(i), ip)
		}
	}
	return a.Bytes(), p.Bytes()
}

// activityOddities covers what a seeded fixture never holds: out-of-order
// days, duplicates, upper case, trailing dots, comments and blank lines.
const activityOddities = `# activity digest
5	b.example.org

3	b.example.org
5	B.Example.ORG.
4	www.b.example.org
  9	c.example.net
4	b.example.org
`

const pdnsOddities = `# pdns
7	a.example.org	10.0.0.1
3	a.example.org	10.0.0.2

7	A.Example.org.	10.0.0.1
5	b.example.org	10.0.1.1
2	a.example.org	10.0.0.9
`

// activityView renders the log's day lists for every name (and e2LD) of
// the input over [from, to], one probe per day.
func activityView(log *activity.Log, input []byte, suffixes *dnsutil.SuffixList, from, to int) map[string][]int {
	view := map[string][]int{"#domains": {log.Domains()}}
	scanLines(bytes.NewReader(input), func(_ int, line string) error {
		_, rest, _ := strings.Cut(line, "\t")
		domain, err := dnsutil.Normalize(rest)
		if err != nil {
			return nil
		}
		e2ld := suffixes.E2LD(domain)
		if _, done := view[domain]; done {
			return nil
		}
		var dd, ed []int
		for d := from; d <= to; d++ {
			if log.DomainActiveDays(domain, d, d) == 1 {
				dd = append(dd, d)
			}
			if log.E2LDActiveDays(e2ld, d, d) == 1 {
				ed = append(ed, d)
			}
		}
		view[domain], view["e2ld:"+e2ld] = dd, ed
		return nil
	})
	return view
}

func TestReadActivityMatchesPerLine(t *testing.T) {
	suffixes := dnsutil.DefaultSuffixList()
	fixture, _ := historyFixture(3, 400)
	inputs := map[string][]byte{
		"seeded":   fixture,
		"oddities": []byte(activityOddities),
		"mixed":    append(append([]byte(activityOddities), fixture...), "1\tb.example.org\n"...),
		"bad day":  []byte(activityOddities + "x\ta.com\n5\tb.example.org\n"),
		"bad name": []byte(activityOddities + "6\tbad name!\n"),
		"one col":  []byte(activityOddities + "justone\n"),
		"no name":  []byte(activityOddities + "5\t\n7\t.\n"),
	}
	for label, in := range inputs {
		t.Run(label, func(t *testing.T) {
			seed := func() *activity.Log {
				// A preexisting entry: live marks may land before the preload.
				log := activity.NewLog()
				log.MarkDomain(8, "b.example.org")
				log.MarkE2LD(8, "example.org")
				log.MarkDomain(4, "h1.e0.com")
				return log
			}
			bulk, ref := seed(), seed()
			errBulk := ReadActivity(bytes.NewReader(in), bulk, suffixes)
			errRef := readActivityPerLine(bytes.NewReader(in), ref, suffixes)
			if fmt.Sprint(errBulk) != fmt.Sprint(errRef) {
				t.Fatalf("error = %v, per-line reference %v", errBulk, errRef)
			}
			got := activityView(bulk, in, suffixes, 0, 200)
			want := activityView(ref, in, suffixes, 0, 200)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("bulk load differs from the per-line reference:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// pdnsView is every stored record per domain, in storage order, plus the
// DB's counters.
func pdnsView(db *pdns.DB) map[string][]pdns.Observation {
	view := make(map[string][]pdns.Observation)
	db.ForEachRecord(-1<<30, 1<<30, func(day int, domain string, ip dnsutil.IPv4) {
		view[domain] = append(view[domain], pdns.Observation{Day: day, IP: ip})
	})
	lo, hi := db.DayRange()
	view["#counters"] = []pdns.Observation{{Day: db.Len()}, {Day: db.Domains()}, {Day: lo}, {Day: hi}}
	return view
}

func TestReadPDNSMatchesPerLine(t *testing.T) {
	_, fixture := historyFixture(5, 400)
	inputs := map[string][]byte{
		"seeded":     fixture,
		"oddities":   []byte(pdnsOddities),
		"mixed":      append(append([]byte(pdnsOddities), fixture...), pdnsOddities...),
		"bad day":    []byte(pdnsOddities + "x\ta.com\t1.1.1.1\n"),
		"bad name":   []byte(pdnsOddities + "1\tbad name!\t1.1.1.1\n"),
		"bad ip":     []byte(pdnsOddities + "1\ta.example.org\tnope\n"),
		"four cols":  []byte(pdnsOddities + "1\ta.example.org\t1.1.1.1\tx\n"),
		"two cols":   []byte(pdnsOddities + "1\ta.example.org\n"),
		"mid-run":    []byte("1\ta.com\t1.1.1.1\n2\ta.com\tbad\n3\ta.com\t1.1.1.2\n"),
		"empty name": []byte("1\t\t1.1.1.1\n"),
		"empty file": nil,
	}
	verdict := func(d string) pdns.Verdict {
		switch {
		case strings.HasPrefix(d, "h1"):
			return pdns.VerdictMalware
		case strings.HasPrefix(d, "h2"):
			return pdns.VerdictBenign
		}
		return pdns.VerdictUnknown
	}
	for label, in := range inputs {
		t.Run(label, func(t *testing.T) {
			seed := func() *pdns.DB {
				db := pdns.NewDB()
				db.Add(1, "a.example.org", dnsutil.MakeIPv4(10, 0, 0, 7))
				return db
			}
			bulk, ref := seed(), seed()
			errBulk := ReadPDNS(bytes.NewReader(in), bulk)
			errRef := readPDNSPerLine(bytes.NewReader(in), ref)
			if fmt.Sprint(errBulk) != fmt.Sprint(errRef) {
				t.Fatalf("error = %v, per-line reference %v", errBulk, errRef)
			}
			if got, want := pdnsView(bulk), pdnsView(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("bulk load differs from the per-line reference:\n got %v\nwant %v", got, want)
			}
			var gotStats, wantStats [4]int
			gotStats[0], gotStats[1], gotStats[2], gotStats[3] = pdns.BuildAbuseIndex(bulk, 0, 200, verdict).Stats()
			wantStats[0], wantStats[1], wantStats[2], wantStats[3] = pdns.BuildAbuseIndex(ref, 0, 200, verdict).Stats()
			if gotStats != wantStats {
				t.Fatalf("AbuseIndex.Stats = %v, per-line reference %v", gotStats, wantStats)
			}
		})
	}
}

// benchNames sizes the loader benchmarks' fixture: a tenth of isp-50k's
// 106k activity names, same shape.
const benchNames = 10000

func benchmarkActivity(b *testing.B, load func(io.Reader, *activity.Log, *dnsutil.SuffixList) error) {
	act, _ := historyFixture(1, benchNames)
	suffixes := dnsutil.DefaultSuffixList()
	b.SetBytes(int64(len(act)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := load(bytes.NewReader(act), activity.NewLog(), suffixes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadActivity is the bulk activity preload; /perline is the
// per-line reference it replaced, on the same fixture.
func BenchmarkReadActivity(b *testing.B) {
	b.Run("bulk", func(b *testing.B) { benchmarkActivity(b, ReadActivity) })
	b.Run("perline", func(b *testing.B) { benchmarkActivity(b, readActivityPerLine) })
}

func benchmarkPDNS(b *testing.B, load func(io.Reader, *pdns.DB) error) {
	_, pd := historyFixture(1, benchNames)
	b.SetBytes(int64(len(pd)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := load(bytes.NewReader(pd), pdns.NewDB()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadPDNS is the run-at-a-time pdns load; /perline is the
// per-line reference it replaced.
func BenchmarkReadPDNS(b *testing.B) {
	b.Run("bulk", func(b *testing.B) { benchmarkPDNS(b, ReadPDNS) })
	b.Run("perline", func(b *testing.B) { benchmarkPDNS(b, readPDNSPerLine) })
}
