package features

import (
	"runtime"
	"sync"

	"segugio/internal/graph"
)

// Dataset is a labeled feature matrix ready for package ml.
type Dataset struct {
	X       [][]float64
	Y       []int // 0 = benign, 1 = malware
	Domains []string
}

// Len reports the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Counts returns the per-class example counts.
func (d *Dataset) Counts() (benign, malware int) {
	for _, y := range d.Y {
		if y == 1 {
			malware++
		} else {
			benign++
		}
	}
	return benign, malware
}

// TrainingSet measures the feature vector of every known benign and
// malware domain in the extractor's graph (each with its own label hidden,
// per the training-set preparation of paper Figure 5), skipping any domain
// in exclude — the test-set exclusion of the train/test protocol
// (Section IV-A). Extraction runs in parallel.
func TrainingSet(e *Extractor, exclude map[string]struct{}) *Dataset {
	g := e.Graph()
	var nodes []int32
	var labels []int
	for d := int32(0); d < int32(g.NumDomains()); d++ {
		if !e.Kept(d) {
			continue
		}
		var y int
		switch g.DomainLabel(d) {
		case graph.LabelMalware:
			y = 1
		case graph.LabelBenign:
			y = 0
		default:
			continue
		}
		if _, skip := exclude[g.DomainName(d)]; skip {
			continue
		}
		nodes = append(nodes, d)
		labels = append(labels, y)
	}

	ds := &Dataset{X: VectorsOf(e, nodes), Y: labels, Domains: make([]string, len(nodes))}
	for i, d := range nodes {
		ds.Domains[i] = g.DomainName(d)
	}
	return ds
}

// VectorsFor measures feature vectors for the named domains. Domains
// absent from the graph (e.g. pruned away) yield ok=false and a nil
// vector at their position. All present rows share one flat backing
// array — one allocation per pass instead of one per domain — and each
// row is capped at NumFeatures so appends cannot bleed into a neighbor.
func VectorsFor(e *Extractor, domains []string) ([][]float64, []bool) {
	g := e.g
	X := make([][]float64, len(domains))
	ok := make([]bool, len(domains))
	if len(domains) == 0 {
		return X, ok
	}
	backing := make([]float64, len(domains)*NumFeatures)
	parallelFor(len(domains), func(i int) {
		d, found := g.DomainIndex(domains[i])
		if !found || !e.Kept(d) {
			return
		}
		row := backing[i*NumFeatures : (i+1)*NumFeatures : (i+1)*NumFeatures]
		e.VectorInto(d, row)
		X[i] = row
		ok[i] = true
	})
	return X, ok
}

// VectorsOf measures the feature vectors of the given domain nodes, one
// row per node, on one flat backing array like VectorsFor's.
func VectorsOf(e *Extractor, nodes []int32) [][]float64 {
	X := make([][]float64, len(nodes))
	backing := make([]float64, len(nodes)*NumFeatures)
	parallelFor(len(nodes), func(i int) {
		X[i] = backing[i*NumFeatures : (i+1)*NumFeatures : (i+1)*NumFeatures]
		e.VectorInto(nodes[i], X[i])
	})
	return X
}

// UnknownDomains lists the unknown-labeled domains the extractor
// measures — the classification targets at deployment time.
func UnknownDomains(e *Extractor) []string {
	g := e.Graph()
	nodes := UnknownNodes(e)
	if len(nodes) == 0 {
		return nil
	}
	out := make([]string, len(nodes))
	for i, d := range nodes {
		out[i] = g.DomainName(d)
	}
	return out
}

// UnknownNodes is UnknownDomains as node ids of the extractor's graph,
// in node order.
func UnknownNodes(e *Extractor) []int32 {
	if e.plan != nil {
		return e.plan.DomainsWithLabel(graph.LabelUnknown)
	}
	return e.g.DomainsWithLabel(graph.LabelUnknown)
}

// parallelFor runs fn(i) for i in [0, n) across GOMAXPROCS workers.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
