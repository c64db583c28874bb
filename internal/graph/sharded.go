package graph

// ShardOf routes an event key to one of n graph shards by 32-bit FNV-1a
// hash; ingest dispatches with it, so the per-(source,shard) SPSC rings
// feed straight into their shard's builder. Query events route by machine
// ID and resolution events by domain name; the resulting partition
// invariants are what make sharding exact:
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
