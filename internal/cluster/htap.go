// HTAP integration points (paper §II-III, GaussDB/Taurus): the
// analytical-read provider interface internal/htap implements, barrier
// seeding of columnar replicas from the primaries, and the exported row
// digest replicas use to verify convergence against PartitionDigest.

package cluster

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/txnkit"
	"repro/internal/types"
)

// AnalyticalProvider is the cluster's view of the HTAP manager: a
// freshness gate consulted once per analytical statement, and per-(table,
// primary) columnar replica lookup for its scan fragments.
type AnalyticalProvider interface {
	// Gate decides whether the replicas covering dnIDs are fresh enough
	// to serve one statement. Under a blocking freshness policy it may
	// sleep until the apply watermark catches up; returning false
	// degrades the statement to the primary row path.
	Gate(dnIDs []int) bool
	// Replica returns the columnar replica mirroring table name on
	// primary dn, plus the replica-local transaction manager whose
	// snapshots govern its visibility. ok=false falls the fragment back
	// to the primary partition.
	Replica(name string, dn int) (*colstore.Table, *txnkit.TxnManager, bool)
}

// SetAnalyticalReads installs (or, with nil, removes) the HTAP read
// provider consulted by analytical statement routing. The commit tap is a
// separate subscription: with routing removed the replicas keep applying,
// which is how E19 and the identity tests take the primary's answer.
func (c *Cluster) SetAnalyticalReads(p AnalyticalProvider) {
	if p == nil {
		c.analytical.Store(nil)
		return
	}
	c.analytical.Store(&p)
}

// analyticalReads returns the installed provider, nil when HTAP is off.
func (c *Cluster) analyticalReads() AnalyticalProvider {
	if p := c.analytical.Load(); p != nil {
		return *p
	}
	return nil
}

// SeedAnalyticalReplicas snapshots every non-replicated stored table under
// a full routing + catalog barrier (seedRecs, as enrolment does) and hands
// install the tables and, per primary, insert records of the rows its
// partitions store — unfiltered by bucket ownership, so later OpReap records
// find their rows (scans filter, as on the primary). install must build the
// replicas and subscribe its commit tap before returning, so a replica sees
// exactly the seed plus every later commit: no gap, no overlap. Replicated
// tables are not seeded: their fragments always read the primary copy.
func (c *Cluster) SeedAnalyticalReplicas(install func(primaries []int, tables []*plan.TableMeta, seed map[int][]WriteRec) error) error {
	c.lockRoutes()
	defer c.routeMu.Unlock()
	// scanTargetsLocked consults the retired set under mu.RLock itself, so
	// it must run before the catalog lock below (lock order: routeMu, mu).
	primaries := c.scanTargetsLocked()
	c.mu.Lock()
	defer c.mu.Unlock()

	var tables []*plan.TableMeta
	var srcs []seedSource
	for _, ti := range c.tables {
		if ti.replicated {
			continue
		}
		tables = append(tables, ti.Meta)
		for _, dn := range primaries {
			srcs = append(srcs, seedSource{ti, dn})
		}
	}
	recs, err := c.seedRecs(srcs)
	if err != nil {
		return fmt.Errorf("htap seed: %w", err)
	}
	seed := make(map[int][]WriteRec, len(primaries))
	for i, s := range srcs {
		seed[s.dn] = append(seed[s.dn], recs[i]...)
	}
	return install(primaries, tables, seed)
}

// DigestRows hashes a row multiset with the same encoding PartitionDigest
// uses, so an HTAP replica can be digest-compared against its primary
// partition. Order-independent (commutative sum).
func DigestRows(rows []types.Row) TableDigest {
	var d TableDigest
	d.add(rows)
	return d
}

// OwnsRow returns a predicate matching rows the current routing map
// assigns to owner (nil when the table has no distribution key). HTAP
// replicas use it to filter physically mirrored but disowned rows, exactly
// like primary partition scans do after a bucket migration.
func (c *Cluster) OwnsRow(meta *plan.TableMeta, owner int) func(types.Row) bool {
	if meta.DistKey < 0 {
		return nil
	}
	owners := c.BucketOwners()
	dk := meta.DistKey
	return func(r types.Row) bool { return owners[BucketOf(r[dk])] == owner }
}
