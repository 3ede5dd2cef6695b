//! Logical sites and their mapping onto physical instances.
//!
//! Following the paper (Section 4): the workload is defined over *logical
//! sites* (the finest partitioning, one per core); a deployment groups
//! whole logical sites into physical instances. A multisite transaction is
//! physically distributed only if its sites fall in different instances —
//! this is why coarse configurations execute fewer distributed
//! transactions.

use islands_workload::tpcc;

/// Maps `(table, key)` to a logical site.
pub trait SiteMap {
    fn n_sites(&self) -> usize;
    fn site_of(&self, table: u32, key: u64) -> usize;
}

/// Contiguous range partitioning of a single keyspace (the microbenchmark
/// table).
#[derive(Debug, Clone)]
pub struct RangeSites {
    pub total_rows: u64,
    pub n_sites: usize,
}

impl SiteMap for RangeSites {
    fn n_sites(&self) -> usize {
        self.n_sites
    }

    fn site_of(&self, _table: u32, key: u64) -> usize {
        debug_assert!(key < self.total_rows);
        // Truncated-per with the remainder in the last site: the same
        // ownership rule `NativeCluster::build_micro` loads rows by,
        // `MicroGenerator` homes them by, and multi-process deployments
        // partition by (`islands-server`'s deploy module), so a key has one
        // owner across every layer even when rows % n_sites != 0. (The
        // previous proportional mapping disagreed with all three at range
        // boundaries for non-divisible row counts, routing boundary keys to
        // instances that never loaded them.)
        let per = (self.total_rows / self.n_sites as u64).max(1);
        ((key / per) as usize).min(self.n_sites - 1)
    }
}

/// Warehouse partitioning for TPC-C-lite: warehouses are striped
/// contiguously over sites.
#[derive(Debug, Clone)]
pub struct WarehouseSites {
    pub warehouses: u64,
    pub n_sites: usize,
}

impl WarehouseSites {
    /// [`SiteMap::site_of`] for rows that may not belong to this layout: an
    /// unknown table or a warehouse past the scale factor is an `Err` naming
    /// it, not a panic — the form a coordinator routes untrusted plans with.
    pub fn checked_site_of(&self, table: u32, key: u64) -> Result<usize, String> {
        // History and order rows are homed where they are written; their
        // keys encode the warehouse in the high 32 bits.
        let w = tpcc::warehouse_of_table(table, key)
            .ok_or_else(|| format!("unknown tpcc table {table}"))?;
        if w >= self.warehouses {
            return Err(format!(
                "warehouse {w} out of range ({} warehouses)",
                self.warehouses
            ));
        }
        Ok(((w as u128 * self.n_sites as u128) / self.warehouses as u128) as usize)
    }
}

impl SiteMap for WarehouseSites {
    fn n_sites(&self) -> usize {
        self.n_sites
    }

    fn site_of(&self, table: u32, key: u64) -> usize {
        match self.checked_site_of(table, key) {
            Ok(site) => site,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Warehouse range `[lo, hi)` owned by `site` — the exact inverse of
/// [`WarehouseSites::site_of`]'s proportional mapping, so a deployment can
/// tell each instance which warehouses to load without double-owning or
/// orphaning any warehouse.
pub fn warehouse_range(warehouses: u64, n_sites: usize, site: usize) -> (u64, u64) {
    debug_assert!(site < n_sites);
    let n = n_sites as u128;
    let w = warehouses as u128;
    let lo = (site as u128 * w).div_ceil(n) as u64;
    let hi = ((site as u128 + 1) * w).div_ceil(n) as u64;
    (lo, hi)
}

/// Physical instance owning logical `site` when `n_sites` are grouped into
/// `n_instances` contiguous blocks.
#[inline]
pub fn instance_of_site(site: usize, n_sites: usize, n_instances: usize) -> usize {
    debug_assert!(site < n_sites);
    (site * n_instances) / n_sites
}

/// The set of distinct instances a plan touches, home first.
pub fn participants(
    plan: &crate::plan::TxnPlan,
    sites: &dyn SiteMap,
    n_instances: usize,
) -> Vec<usize> {
    let n_sites = sites.n_sites();
    let mut out = Vec::with_capacity(2);
    for op in &plan.ops {
        let inst = instance_of_site(sites.site_of(op.table, op.key), n_sites, n_instances);
        if !out.contains(&inst) {
            out.push(inst);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OpType, PlanOp, TxnPlan};

    #[test]
    fn range_sites_are_contiguous_and_balanced() {
        let m = RangeSites {
            total_rows: 24_000,
            n_sites: 24,
        };
        let mut counts = [0u64; 24];
        for k in 0..24_000 {
            counts[m.site_of(0, k)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1000));
        // Contiguity: site is monotone in key.
        assert!(m.site_of(0, 0) <= m.site_of(0, 23_999));
    }

    #[test]
    fn instance_grouping_is_contiguous() {
        // 24 sites into 4 instances: sites 0..6 -> 0, 6..12 -> 1, ...
        for site in 0..24 {
            assert_eq!(instance_of_site(site, 24, 4), site / 6);
        }
        // Shared-everything: everything -> 0.
        for site in 0..24 {
            assert_eq!(instance_of_site(site, 24, 1), 0);
        }
        // Fine-grained: identity.
        for site in 0..24 {
            assert_eq!(instance_of_site(site, 24, 24), site);
        }
    }

    #[test]
    fn multisite_becomes_local_in_coarser_configs() {
        let sites = RangeSites {
            total_rows: 24_000,
            n_sites: 24,
        };
        // Keys in sites 0 and 1.
        let plan = TxnPlan {
            ops: vec![
                PlanOp {
                    table: 0,
                    key: 10,
                    op: OpType::Read,
                },
                PlanOp {
                    table: 0,
                    key: 1_500,
                    op: OpType::Read,
                },
            ],
        };
        // Fine-grained: two participants; 4ISL: one.
        assert_eq!(participants(&plan, &sites, 24).len(), 2);
        assert_eq!(participants(&plan, &sites, 4).len(), 1);
    }

    #[test]
    fn warehouse_sites_follow_warehouse() {
        let sites = WarehouseSites {
            warehouses: 24,
            n_sites: 24,
        };
        use crate::plan::*;
        assert_eq!(sites.site_of(TPCC_WAREHOUSE, 7), 7);
        assert_eq!(sites.site_of(TPCC_DISTRICT, tpcc::district_key(7, 3)), 7);
        assert_eq!(
            sites.site_of(TPCC_CUSTOMER, tpcc::customer_key(7, 3, 100)),
            7
        );
        assert_eq!(sites.site_of(TPCC_HISTORY, (7u64 << 32) | 99), 7);
        assert_eq!(sites.site_of(TPCC_ORDER, (7u64 << 32) | 12), 7);
        assert_eq!(sites.site_of(TPCC_STOCK, tpcc::stock_key(7, 999)), 7);
    }

    #[test]
    fn warehouse_range_inverts_site_of_for_awkward_shapes() {
        for (warehouses, n_sites) in [(4u64, 2usize), (5, 2), (7, 3), (24, 24), (9, 4), (2, 2)] {
            let sites = WarehouseSites {
                warehouses,
                n_sites,
            };
            let mut covered = 0u64;
            for s in 0..n_sites {
                let (lo, hi) = warehouse_range(warehouses, n_sites, s);
                assert_eq!(lo, covered, "gap/overlap at site {s}");
                covered = hi;
                for w in lo..hi {
                    assert_eq!(
                        sites.site_of(crate::plan::TPCC_WAREHOUSE, w),
                        s,
                        "{warehouses}w/{n_sites}s: warehouse {w}"
                    );
                }
            }
            assert_eq!(covered, warehouses, "{warehouses}w/{n_sites}s");
        }
    }

    #[test]
    fn home_instance_is_first_participant() {
        let sites = RangeSites {
            total_rows: 1000,
            n_sites: 10,
        };
        let plan = TxnPlan {
            ops: vec![
                PlanOp {
                    table: 0,
                    key: 950, // site 9
                    op: OpType::Read,
                },
                PlanOp {
                    table: 0,
                    key: 10, // site 0
                    op: OpType::Read,
                },
            ],
        };
        let p = participants(&plan, &sites, 10);
        assert_eq!(p, vec![9, 0]);
    }
}
