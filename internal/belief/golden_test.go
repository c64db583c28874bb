package belief

import (
	"fmt"
	"math"
	"testing"

	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
)

// goldenFixture is the benchmark lineage's first snapshot at a small
// size: labeled seed domains each queried by two machines, then an
// unknown mass of one to three querying machines per domain.
func goldenFixture(t *testing.T) *graph.Graph {
	t.Helper()
	const (
		machines = 16
		unknowns = 40
		labeled  = 6
	)
	bl := intel.NewBlacklist()
	wl := intel.NewWhitelist([]string{"good.com"})
	b := graph.NewBuilder("GOLDEN", 1, dnsutil.DefaultSuffixList())
	for i := 0; i < labeled; i++ {
		bl.Add(intel.BlacklistEntry{Domain: fmt.Sprintf("c%d.evil.net", i), FirstListed: 0})
		b.AddQuery(fmt.Sprintf("m%d", (i*7)%machines), fmt.Sprintf("c%d.evil.net", i))
		b.AddQuery(fmt.Sprintf("m%d", (i*13+1)%machines), fmt.Sprintf("www.g%d.good.com", i))
	}
	for i := 0; i < unknowns; i++ {
		name := fmt.Sprintf("u%d.x%d.net", i, i%7)
		for k := 0; k <= i%3; k++ {
			b.AddQuery(fmt.Sprintf("m%d", (i*31+k*17)%machines), name)
		}
	}
	g := b.Build()
	g.ApplyLabels(graph.LabelSources{Blacklist: bl, Whitelist: wl, AsOf: 1})
	return g
}

// TestPropagateGolden pins the batch propagation on goldenFixture with
// the default configuration: the iteration count, convergence, and every
// domain and machine marginal, keyed by name.
func TestPropagateGolden(t *testing.T) {
	g := goldenFixture(t)
	res, err := Propagate(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 || !res.Converged {
		t.Fatalf("iterations = %d, converged = %v; want 3, true", res.Iterations, res.Converged)
	}
	if len(res.DomainBelief) != len(goldenDomains) || len(res.MachineBelief) != len(goldenMachines) {
		t.Fatalf("got %d domain and %d machine beliefs, want %d and %d",
			len(res.DomainBelief), len(res.MachineBelief), len(goldenDomains), len(goldenMachines))
	}
	const tol = 1e-12
	for d, got := range res.DomainBelief {
		name := g.DomainName(int32(d))
		if want := goldenDomains[name]; math.Abs(got-want) > tol {
			t.Errorf("domain %s belief = %v, want %v", name, got, want)
		}
	}
	for m, got := range res.MachineBelief {
		id := g.MachineID(int32(m))
		if want := goldenMachines[id]; math.Abs(got-want) > tol {
			t.Errorf("machine %s belief = %v, want %v", id, got, want)
		}
	}
}

var goldenDomains = map[string]float64{
	"c0.evil.net":     0.9907474858995512,
	"www.g0.good.com": 0.010003648692913028,
	"c1.evil.net":     0.9907474887382057,
	"www.g1.good.com": 0.010808549239136473,
	"c2.evil.net":     0.9907463608780133,
	"www.g2.good.com": 0.010003746025890076,
	"c3.evil.net":     0.9907463593911591,
	"www.g3.good.com": 0.010002495880762682,
	"c4.evil.net":     0.9907474876461223,
	"www.g4.good.com": 0.010808547752282264,
	"c5.evil.net":     0.9907474907025831,
	"www.g5.good.com": 0.01000240649718459,
	"u0.x0.net":       0.5196309010812787,
	"u1.x1.net":       0.5197865556167379,
	"u2.x2.net":       0.5392946239747822,
	"u3.x3.net":       0.500187313317442,
	"u4.x4.net":       0.5197865996542933,
	"u5.x5.net":       0.5190677114771701,
	"u6.x6.net":       0.5000268948609385,
	"u7.x0.net":       0.5000247369460533,
	"u8.x1.net":       0.49930592560104053,
	"u9.x2.net":       0.5196309726543203,
	"u10.x3.net":      0.5197237033877191,
	"u11.x4.net":      0.5392320273239961,
	"u12.x5.net":      0.5001556512943268,
	"u13.x6.net":      0.5197550652593972,
	"u14.x0.net":      0.5190025534672813,
	"u15.x1.net":      0.49930799712589735,
	"u16.x2.net":      0.518908644095233,
	"u17.x3.net":      0.5190652171506863,
	"u18.x4.net":      0.5196025351018593,
	"u19.x5.net":      0.519758235274307,
	"u20.x6.net":      0.5392946679439101,
	"u21.x0.net":      0.49931045125244516,
	"u22.x1.net":      0.4993384000204305,
	"u23.x2.net":      0.49933734618404607,
	"u24.x3.net":      0.4992789304417287,
	"u25.x4.net":      0.5188796955509595,
	"u26.x5.net":      0.518973488104244,
	"u27.x6.net":      0.5196024976127318,
	"u28.x0.net":      0.5197265863243972,
	"u29.x1.net":      0.5392632432461619,
	"u30.x2.net":      0.4992766767491097,
	"u31.x3.net":      0.4985869321405109,
	"u32.x4.net":      0.5181573830667775,
	"u33.x5.net":      0.500187313317442,
	"u34.x6.net":      0.519758235274307,
	"u35.x0.net":      0.5199134317660987,
	"u36.x1.net":      0.5196309451188329,
	"u37.x2.net":      0.518911138482257,
	"u38.x3.net":      0.5189077809480662,
	"u39.x4.net":      0.4999978922611084,
}

var goldenMachines = map[string]float64{
	"m0":  0.9907725166508786,
	"m1":  0.4826998634329768,
	"m7":  0.9907743138127889,
	"m14": 0.9900633691315457,
	"m11": 0.48276084337876113,
	"m5":  0.9900624350301963,
	"m8":  0.48197309007955774,
	"m12": 0.9907736229312434,
	"m3":  0.9907755483258285,
	"m2":  0.481916856919555,
	"m15": 0.5046826917648658,
	"m13": 0.5046827950518743,
	"m10": 0.5006722643964108,
	"m9":  0.4999468889683522,
	"m6":  0.5031072182236591,
	"m4":  0.5038911935299856,
}
