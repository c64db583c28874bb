// Package notos implements a Notos-style dynamic domain reputation system
// (Antonakakis et al., USENIX Security 2010 [3]), the baseline of the
// paper's Section V comparison. Like the original, it judges a domain
// from historic passive-DNS evidence alone — network features of its
// resolved-IP footprint, zone features of its name string, and
// evidence features measuring overlap with blacklisted infrastructure —
// and it *rejects* domains for which no history exists.
//
// The structural contrast with Segugio is the point of the comparison:
// Notos never looks at who queries a domain, so a freshly activated
// control domain with a thin history earns a mediocre reputation, and a
// benign site hosted in "dirty" shared IP space earns a bad one. Catching
// the former therefore costs accepting the latter (the 16-21% false
// positives of Figure 12a).
package notos

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"segugio/internal/dnsutil"
	"segugio/internal/intel"
	"segugio/internal/ml"
	"segugio/internal/pdns"
)

// NumFeatures is the reputation feature-vector length.
const NumFeatures = 12

// FeatureNames returns the reputation features in vector order.
func FeatureNames() []string {
	return []string{
		// Network-based: the domain's historic IP footprint.
		"history_ip_count",
		"history_prefix24_count",
		"history_prefix16_count",
		"history_active_days",
		"history_span_days",
		// Evidence-based: overlap with blacklisted infrastructure.
		"malware_shared_ip_fraction",
		"malware_shared_prefix_fraction",
		// Zone-based: properties of the name string.
		"name_length",
		"label_count",
		"digit_ratio",
		"hyphen_count",
		"e2ld_length",
	}
}

// Config parameterizes the reputation system.
type Config struct {
	// Suffixes extracts effective 2LDs for the zone features.
	Suffixes *dnsutil.SuffixList
	// HistoryWindow is the passive-DNS look-back in days (default 150,
	// matching Segugio's five-month abuse window).
	HistoryWindow int
	// MinHistoryDays is the reject-option depth: a domain observed on
	// fewer distinct days in the window cannot be judged (default 2). The
	// paper's Notos instance "may avoid classifying an input domain if
	// not enough historic evidence could be collected", which is why it
	// misses some malware-control domains even at the highest FP rates.
	MinHistoryDays int
	// NewModel builds the reputation classifier (default: random forest).
	NewModel func(benign, malware int) ml.Model
}

// Classifier is a trained reputation system. Construct with Train.
type Classifier struct {
	cfg   Config
	db    *pdns.DB
	abuse *pdns.AbuseIndex
	model ml.Model
}

// Training errors.
var (
	ErrNoSuffixes = errors.New("notos: Config.Suffixes is required")
	ErrNoTraining = errors.New("notos: no training domains with history")
)

// Train fits the reputation model as of trainDay: positive examples are
// blacklisted domains (listed by trainDay) with passive-DNS history,
// negatives are domains under the whitelist observed in the database. The
// paper's instance was trained with a very large blacklist and the Alexa
// top-100K (Section V).
func Train(cfg Config, db *pdns.DB, trainDay int, bl *intel.Blacklist, wl *intel.Whitelist) (*Classifier, error) {
	if cfg.Suffixes == nil {
		return nil, ErrNoSuffixes
	}
	if cfg.HistoryWindow <= 0 {
		cfg.HistoryWindow = 150
	}
	if cfg.MinHistoryDays <= 0 {
		cfg.MinHistoryDays = 2
	}
	if cfg.NewModel == nil {
		cfg.NewModel = defaultModel
	}

	c := &Classifier{cfg: cfg, db: db}
	from, to := trainDay-cfg.HistoryWindow, trainDay-1
	c.abuse = pdns.BuildAbuseIndex(db, from, to, func(d string) pdns.Verdict {
		if bl.Contains(d, trainDay) {
			return pdns.VerdictMalware
		}
		return pdns.VerdictUnknown
	})

	// The database iterates in map order; the forest's bootstrap depends
	// on row order, so fix it or the same inputs train different models.
	var domains []string
	db.ForEachDomain(from, to, func(domain string, _ []dnsutil.IPv4) {
		domains = append(domains, domain)
	})
	sort.Strings(domains)
	var X [][]float64
	var y []int
	for _, domain := range domains {
		var label int
		switch {
		case bl.Contains(domain, trainDay):
			label = 1
		case wl.ContainsDomain(domain, cfg.Suffixes):
			label = 0
		default:
			continue
		}
		v, ok := c.features(domain, trainDay)
		if !ok {
			continue
		}
		X = append(X, v)
		y = append(y, label)
	}
	if len(X) == 0 {
		return nil, ErrNoTraining
	}
	benign, malware := 0, 0
	for _, l := range y {
		if l == 1 {
			malware++
		} else {
			benign++
		}
	}
	model := cfg.NewModel(benign, malware)
	if err := model.Fit(X, y); err != nil {
		return nil, fmt.Errorf("notos: fit: %w", err)
	}
	c.model = model
	return c, nil
}

func defaultModel(benign, malware int) ml.Model {
	w := 1.0
	if malware > 0 && benign > malware {
		w = float64(benign) / float64(malware)
		if w > 50 {
			w = 50
		}
	}
	return ml.NewRandomForest(ml.RandomForestConfig{
		NumTrees:       48,
		MaxDepth:       12,
		MinLeaf:        4,
		PositiveWeight: w,
		Seed:           2,
	})
}

// Score returns the maliciousness score of domain as of the given day.
// ok is false when the reject option fires: the database holds no history
// for the domain in the look-back window, so no reputation can be
// computed (the paper's Notos instance behaves the same, which is why it
// cannot reach 100% detection even at FPR 1).
func (c *Classifier) Score(domain string, asOf int) (score float64, ok bool) {
	v, ok := c.features(domain, asOf)
	if !ok {
		return 0, false
	}
	return c.model.Score(v), true
}

// features measures the reputation vector; ok=false means no history.
func (c *Classifier) features(domain string, asOf int) ([]float64, bool) {
	from, to := asOf-c.cfg.HistoryWindow, asOf-1
	ips := c.db.IPs(domain, from, to)
	if len(ips) == 0 {
		return nil, false
	}
	days := c.db.ActiveDays(domain, from, to)
	if len(days) < c.cfg.MinHistoryDays {
		return nil, false // reject option: not enough historic evidence
	}

	prefixes := make(map[dnsutil.Prefix24]struct{})
	prefix16s := make(map[uint32]struct{})
	sharedIPs, sharedPrefixes := 0, 0
	for _, ip := range ips {
		prefixes[dnsutil.Prefix24Of(ip)] = struct{}{}
		prefix16s[uint32(ip)&^0xffff] = struct{}{}
		if c.abuse.MalwareIPExcluding(ip, domain) {
			sharedIPs++
		}
		if c.abuse.MalwarePrefixExcluding(ip, domain) {
			sharedPrefixes++
		}
	}

	e2ld := c.cfg.Suffixes.E2LD(domain)
	digits := 0
	hyphens := 0
	for i := 0; i < len(domain); i++ {
		switch {
		case domain[i] >= '0' && domain[i] <= '9':
			digits++
		case domain[i] == '-':
			hyphens++
		}
	}

	span := 0
	if len(days) > 0 {
		span = days[len(days)-1] - days[0] + 1
	}
	v := []float64{
		float64(len(ips)),
		float64(len(prefixes)),
		float64(len(prefix16s)),
		float64(len(days)),
		float64(span),
		float64(sharedIPs) / float64(len(ips)),
		float64(sharedPrefixes) / float64(len(ips)),
		float64(len(domain)),
		float64(strings.Count(domain, ".") + 1),
		float64(digits) / float64(len(domain)),
		float64(hyphens),
		float64(len(e2ld)),
	}
	return v, true
}
