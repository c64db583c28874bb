package graph

// ShardOf routes an event key to one of n ingest shards by 32-bit FNV-1a
// hash; ingest dispatches with it, so each per-(source, shard) SPSC ring
// feeds one worker. Query events route by machine ID and resolution
// events by domain name. The routing only spreads the load: a shard
// stages node ids of the one day builder, and the fold deduplicates edges
// and addresses across every shard, so no result depends on which shard
// an event landed in. It does keep one machine's queries in order
// relative to each other.
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
