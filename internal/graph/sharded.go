package graph

import "segugio/internal/dnsutil"

// ShardOf routes an event key to one of n graph shards with the same
// 32-bit FNV-1a hash the ingest rings use, so the per-(source,shard) SPSC
// rings feed straight into their shard's builder when the ring and graph
// shard counts match. Query events route by machine ID and resolution
// events by domain name; the resulting partition invariants are what make
// sharding exact:
//
//   - every (machine, domain) edge lands in shard(machine), so a machine's
//     whole adjacency — and therefore its label — is shard-local;
//   - every (domain, address) pair lands in shard(domain), so per-shard
//     address deduplication equals global deduplication;
//   - per-shard edge deduplication equals global deduplication, so the
//     per-shard fresh deltas drained by Builder.DrainInto compose into
//     one exact global delta with no cross-shard duplicates.
func ShardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// ShardedSnapshot is a consistent point-in-time view of a sharded graph
// backend: the merged graph every consumer (classify sessions, the prune
// plan, the score cache, both detectors) runs on unchanged, plus the
// per-shard snapshots it was composed from for scatter-gather reads and
// per-shard introspection.
type ShardedSnapshot struct {
	merged *Graph
	shards []*Graph
}

// NewShardedSnapshot wraps a merged graph and the per-shard snapshots it
// was composed from.
func NewShardedSnapshot(merged *Graph, shards []*Graph) *ShardedSnapshot {
	return &ShardedSnapshot{merged: merged, shards: shards}
}

// Merged returns the merged view; it is a plain *Graph carrying the exact
// union of the per-shard deltas.
func (s *ShardedSnapshot) Merged() *Graph { return s.merged }

// NumShards reports how many shard snapshots back the view.
func (s *ShardedSnapshot) NumShards() int { return len(s.shards) }

// Shard returns shard i's snapshot.
func (s *ShardedSnapshot) Shard(i int) *Graph { return s.shards[i] }

// MachineFractions computes the F1 machine-behavior numerators scatter-
// gather style: each shard contributes the infected/unknown counts of its
// own machines querying the domain, and the per-shard tallies sum into
// the global fractions. Because machines partition disjointly across
// shards and a machine's label derives only from its shard-local
// adjacency, the composition is exact:
//
//	infected_fraction = (Σ_s infected_s) / (Σ_s n_s)
//
// Every shard snapshot must be labeled (ApplyLabels) with the same label
// sources as the merged view. This is the composition the equivalence
// tests pin against the merged graph's own F1 features; the production
// classify path reads Merged() directly.
func (s *ShardedSnapshot) MachineFractions(domain string) (infected, unknown float64, total int) {
	var inf, unk int
	for _, g := range s.shards {
		d, ok := g.DomainIndex(domain)
		if !ok {
			continue
		}
		machines := g.MachinesOf(d)
		total += len(machines)
		for _, m := range machines {
			switch g.MachineLabelHiding(m, d) {
			case LabelMalware:
				inf++
			case LabelUnknown:
				unk++
			}
		}
	}
	if total > 0 {
		infected = float64(inf) / float64(total)
		unknown = float64(unk) / float64(total)
	}
	return infected, unknown, total
}

// DomainIPs gathers the domain's resolved addresses across shards. The
// resolution routing invariant means at most one shard owns a domain's
// address set, so no cross-shard merge or deduplication is needed — the
// first shard that knows any address for the domain is authoritative.
func (s *ShardedSnapshot) DomainIPs(domain string) []dnsutil.IPv4 {
	for _, g := range s.shards {
		if d, ok := g.DomainIndex(domain); ok {
			if ips := g.DomainIPs(d); len(ips) > 0 {
				return ips
			}
		}
	}
	return nil
}
