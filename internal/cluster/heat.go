// Per-bucket access heat: the observability substrate of the autopilot's
// hot-bucket spreading loop. Every routed distribution key — point reads
// resolving their shard and writes picking their target — bumps one atomic
// counter for its bucket, so skewed workloads light up exactly the buckets
// they hammer. The counters are cumulative; the control loop diffs
// successive snapshots, which makes a bucket's heat travel with it when a
// rebalance moves it to another node.
package cluster

// BucketHeat snapshots the cumulative per-bucket access counters, indexed
// by bucket id. Consumers diff successive snapshots to get per-window heat.
func (c *Cluster) BucketHeat() []int64 {
	out := make([]int64, NumBuckets)
	for i := range out {
		out[i] = c.heat[i].Load()
	}
	return out
}

// touchHeat records one access to bucket b. One atomic add — cheap enough
// for the routing hot path, always on.
func (c *Cluster) touchHeat(b int) { c.heat[b].Add(1) }
