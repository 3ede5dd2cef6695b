//! The benchmark's workloads: what each deployment looks like and the
//! request stream its clients generate from the seed.

use std::collections::HashMap;

use islands_core::partition::{SiteMap, WarehouseSites};
use islands_server::deploy::{split_by_owner, split_plan_by_owner, DeployWorkload};
use islands_server::EngineMode;
use islands_workload::plan::MICRO_TABLE;
use islands_workload::{
    MicroGenerator, MicroSpec, OpKind, PlanRequest, StepOp, TpccGenerator, TpccSpec, TxnRequest,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Payload bytes per micro row.
pub const MICRO_ROW_SIZE: usize = 64;

/// Where the request stream comes from.
#[derive(Debug, Clone)]
pub enum Spec {
    /// Single-shot micro batches over `n_sites` logical sites.
    Micro { spec: MicroSpec, n_sites: u64 },
    /// TPC-C NewOrder + Payment plans.
    Tpcc(TpccSpec),
}

/// One named workload: traffic, deployment and client count.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub spec: Spec,
    /// Instance processes.
    pub instances: usize,
    pub engine: EngineMode,
    /// Closed-loop client threads (one `DeployClient` each, holding one
    /// connection per instance).
    pub clients: usize,
}

pub const NAMES: [&str; 3] = ["tpcc-shared", "micro-2pc", "micro-read-large"];

pub fn by_name(name: &str) -> Option<Workload> {
    Some(match name {
        "tpcc-shared" => Workload {
            name: "tpcc-shared",
            spec: Spec::Tpcc(TpccSpec {
                warehouses: 2,
                remote_pct: islands_workload::tpcc::REMOTE_PAYMENT_PCT,
            }),
            instances: 1,
            engine: EngineMode::Locked,
            clients: 2,
        },
        "micro-2pc" => Workload {
            name: "micro-2pc",
            spec: Spec::Micro {
                spec: MicroSpec {
                    kind: OpKind::Update,
                    rows_per_txn: 4,
                    multisite_pct: 0.5,
                    skew: 0.0,
                    multisite_sites: Some(2),
                    total_rows: 40_000,
                    row_size: MICRO_ROW_SIZE,
                },
                n_sites: 2,
            },
            instances: 2,
            engine: EngineMode::Serial,
            clients: 1,
        },
        "micro-read-large" => Workload {
            name: "micro-read-large",
            spec: Spec::Micro {
                spec: MicroSpec {
                    kind: OpKind::Read,
                    rows_per_txn: 4,
                    multisite_pct: 0.0,
                    skew: 0.0,
                    multisite_sites: None,
                    total_rows: 1_000_000,
                    row_size: MICRO_ROW_SIZE,
                },
                n_sites: 1,
            },
            instances: 1,
            engine: EngineMode::Locked,
            clients: 2,
        },
        _ => return None,
    })
}

impl Workload {
    /// Rows the deployment is told to partition (micro rows; ignored by
    /// TPC-C, which loads whole warehouses).
    pub fn total_rows(&self) -> u64 {
        match &self.spec {
            Spec::Micro { spec, .. } => spec.total_rows,
            Spec::Tpcc(t) => t.loaded_rows(),
        }
    }

    pub fn deploy_workload(&self) -> DeployWorkload {
        match &self.spec {
            Spec::Micro { .. } => DeployWorkload::Micro,
            Spec::Tpcc(t) => DeployWorkload::Tpcc {
                warehouses: t.warehouses,
            },
        }
    }

    /// The request stream of client `id` under `seed`: the same pair always
    /// yields the same requests.
    pub fn client_stream(&self, seed: u64, id: usize) -> Stream {
        let rng = SmallRng::seed_from_u64(seed ^ ((id as u64 + 1) << 40));
        let gen = match &self.spec {
            Spec::Micro { spec, n_sites } => {
                Gen::Micro(MicroGenerator::new(spec.clone(), *n_sites))
            }
            // The client id is TPC-C's insert-key tag: history and order
            // keys never collide across concurrent clients.
            Spec::Tpcc(t) => Gen::Tpcc(TpccGenerator::new(*t, id as u64)),
        };
        Stream { gen, rng }
    }

    /// Route `req` the way `DeployClient` does: the participants it spans
    /// on this workload's deployment.
    pub fn route(&self, req: &Req) -> usize {
        match (req, &self.spec) {
            (Req::Micro(r), _) => split_by_owner(r, self.instances, self.total_rows()).0.len(),
            (Req::Plan(p), Spec::Tpcc(t)) => {
                let sites = WarehouseSites {
                    warehouses: t.warehouses,
                    n_sites: self.instances,
                };
                let (order, _branches): (Vec<usize>, HashMap<usize, PlanRequest>) =
                    split_plan_by_owner(p, |table, key| sites.site_of(table, key));
                order.len()
            }
            (Req::Plan(_), Spec::Micro { .. }) => 1,
        }
    }
}

enum Gen {
    Micro(MicroGenerator),
    Tpcc(TpccGenerator),
}

/// One client's deterministic request generator.
pub struct Stream {
    gen: Gen,
    rng: SmallRng,
}

impl Stream {
    pub fn next_req(&mut self) -> Req {
        match &mut self.gen {
            Gen::Micro(g) => Req::Micro(g.next(&mut self.rng)),
            Gen::Tpcc(g) => Req::Plan(g.next(&mut self.rng)),
        }
    }
}

/// A request of either shape the deployment serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    Micro(TxnRequest),
    Plan(PlanRequest),
}

/// One row access, in plan-table-id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    pub table: u32,
    pub key: u64,
    pub op: StepOp,
}

impl Req {
    /// Generated as a multisite transaction (the class it is reported in).
    pub fn multisite(&self) -> bool {
        match self {
            Req::Micro(r) => r.multisite,
            Req::Plan(p) => p.multisite,
        }
    }

    /// Row writes a commit applies: each adds exactly 1 to the audit sum.
    pub fn write_rows(&self) -> u64 {
        match self {
            Req::Micro(r) => match r.kind {
                OpKind::Update => r.keys.len() as u64,
                OpKind::Read => 0,
            },
            Req::Plan(p) => p.write_rows(),
        }
    }

    /// Every row access, range reads expanded.
    pub fn accesses(&self) -> Vec<Access> {
        match self {
            Req::Micro(r) => {
                let op = match r.kind {
                    OpKind::Read => StepOp::Read,
                    OpKind::Update => StepOp::Update,
                };
                r.keys
                    .iter()
                    .map(|&key| Access {
                        table: MICRO_TABLE,
                        key,
                        op,
                    })
                    .collect()
            }
            Req::Plan(p) => p
                .steps
                .iter()
                .flat_map(|s| {
                    let op = if s.op == StepOp::RangeRead {
                        StepOp::Read
                    } else {
                        s.op
                    };
                    (0..s.rows()).map(move |i| Access {
                        table: s.table,
                        key: s.key.wrapping_add(i),
                        op,
                    })
                })
                .collect(),
        }
    }

    pub fn encoded_len(&self) -> usize {
        match self {
            Req::Micro(r) => r.encoded_len(),
            Req::Plan(p) => p.encoded_len(),
        }
    }

    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Req::Micro(r) => r.encode_into(buf),
            Req::Plan(p) => p.encode_into(buf),
        }
    }

    /// Decode a request of the same shape as `self` from `bytes`.
    pub fn decode_like(&self, bytes: &[u8]) -> Result<Req, String> {
        match self {
            Req::Micro(_) => TxnRequest::decode_from(bytes)
                .map(|(r, _)| Req::Micro(r))
                .map_err(|e| e.to_string()),
            Req::Plan(_) => PlanRequest::decode_from(bytes)
                .map(|(p, _)| Req::Plan(p))
                .map_err(|e| e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_exists_and_streams_repeat_by_seed() {
        for name in NAMES {
            let wl = by_name(name).unwrap();
            assert_eq!(wl.name, name);
            let take = |seed| {
                let mut s = wl.client_stream(seed, 0);
                (0..50).map(|_| s.next_req()).collect::<Vec<_>>()
            };
            assert_eq!(take(7), take(7), "{name}: same seed, same stream");
            assert_ne!(take(7), take(8), "{name}: seed changes the stream");
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn micro_2pc_multisite_requests_span_both_instances() {
        let wl = by_name("micro-2pc").unwrap();
        let mut s = wl.client_stream(1, 0);
        let reqs: Vec<Req> = (0..400).map(|_| s.next_req()).collect();
        let multi = reqs.iter().filter(|r| r.multisite()).count();
        assert!(
            (120..280).contains(&multi),
            "about half multisite, got {multi}"
        );
        for r in &reqs {
            assert_eq!(wl.route(r), if r.multisite() { 2 } else { 1 });
            assert_eq!(r.write_rows(), 4);
        }
    }

    #[test]
    fn codec_round_trips_every_workload() {
        for name in NAMES {
            let wl = by_name(name).unwrap();
            let mut s = wl.client_stream(3, 1);
            for _ in 0..100 {
                let r = s.next_req();
                let mut buf = Vec::new();
                r.encode_into(&mut buf);
                assert_eq!(buf.len(), r.encoded_len());
                assert_eq!(r.decode_like(&buf).unwrap(), r);
            }
        }
    }
}
