//! Transaction plans: what a transaction does, independent of where it runs.

use islands_workload::plan::{PlanRequest, StepOp};
use islands_workload::tpcc::{self, Payment};
use islands_workload::TxnRequest;

/// One row operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpType {
    /// Fetch the row.
    Read,
    /// Read-modify-write the row (audit counter +1).
    Update,
    /// Insert a fresh row (audit counter starts at 1).
    Insert,
}

/// One operation against `(table, key)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOp {
    /// Table id (see the `MICRO_TABLE` / `TPCC_*` constants).
    pub table: u32,
    /// Row key.
    pub key: u64,
    /// Operation applied at `key`.
    pub op: OpType,
}

/// A transaction: an ordered list of row operations. The home site is the
/// site owning `ops[0]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnPlan {
    /// Ordered row operations.
    pub ops: Vec<PlanOp>,
}

impl TxnPlan {
    /// Whether every operation is a read.
    pub fn is_read_only(&self) -> bool {
        self.ops.iter().all(|o| o.op == OpType::Read)
    }

    /// Number of writing operations (updates plus inserts).
    pub fn writes(&self) -> usize {
        self.ops.iter().filter(|o| o.op != OpType::Read).count()
    }
}

// Table ids are defined next to the wire codec (`islands_workload::plan`)
// and re-exported here so every core-layer user keeps its existing paths.
pub use islands_workload::plan::{
    MICRO_TABLE, TPCC_CUSTOMER, TPCC_DISTRICT, TPCC_HISTORY, TPCC_ORDER, TPCC_STOCK, TPCC_WAREHOUSE,
};

/// Flatten a wire-level multi-step [`PlanRequest`] into a [`TxnPlan`],
/// expanding range reads into per-row reads (the in-process cluster executes
/// row-at-a-time, so a span is just its rows).
pub fn plan_from_request(req: &PlanRequest) -> TxnPlan {
    let mut ops = Vec::with_capacity(req.steps.len());
    for s in &req.steps {
        match s.op {
            StepOp::Read => ops.push(PlanOp {
                table: s.table,
                key: s.key,
                op: OpType::Read,
            }),
            StepOp::Update => ops.push(PlanOp {
                table: s.table,
                key: s.key,
                op: OpType::Update,
            }),
            StepOp::Insert => ops.push(PlanOp {
                table: s.table,
                key: s.key,
                op: OpType::Insert,
            }),
            StepOp::RangeRead => {
                for i in 0..s.span as u64 {
                    ops.push(PlanOp {
                        table: s.table,
                        key: s.key.wrapping_add(i),
                        op: OpType::Read,
                    });
                }
            }
        }
    }
    TxnPlan { ops }
}

/// Convert a microbenchmark request into a plan over [`MICRO_TABLE`],
/// through the one batch lowering (`PlanRequest::from`).
pub fn plan_micro(req: &TxnRequest) -> TxnPlan {
    plan_from_request(&req.into())
}

/// Convert a Payment into a plan. `history_key` must be unique per
/// transaction (the caller keeps a per-site counter).
pub fn plan_payment(p: &Payment, history_key: u64) -> TxnPlan {
    TxnPlan {
        ops: vec![
            PlanOp {
                table: TPCC_WAREHOUSE,
                key: p.w_id,
                op: OpType::Update,
            },
            PlanOp {
                table: TPCC_DISTRICT,
                key: tpcc::district_key(p.w_id, p.d_id),
                op: OpType::Update,
            },
            PlanOp {
                table: TPCC_CUSTOMER,
                key: tpcc::customer_key(p.c_w_id, p.c_d_id, p.c_id),
                op: OpType::Update,
            },
            PlanOp {
                table: TPCC_HISTORY,
                key: history_key,
                op: OpType::Insert,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_workload::OpKind;

    #[test]
    fn micro_plan_maps_kinds() {
        let req = TxnRequest {
            kind: OpKind::Update,
            keys: vec![4, 9],
            multisite: false,
        };
        let plan = plan_micro(&req);
        assert_eq!(plan.ops.len(), 2);
        assert!(plan.ops.iter().all(|o| o.op == OpType::Update));
        assert!(!plan.is_read_only());
        assert_eq!(plan.writes(), 2);
    }

    #[test]
    fn payment_plan_touches_four_tables() {
        let p = Payment {
            w_id: 2,
            d_id: 3,
            c_w_id: 5,
            c_d_id: 1,
            c_id: 77,
            amount: 10,
        };
        let plan = plan_payment(&p, 999);
        assert_eq!(plan.ops.len(), 4);
        assert_eq!(plan.ops[0].table, TPCC_WAREHOUSE);
        assert_eq!(plan.ops[2].key, tpcc::customer_key(5, 1, 77));
        assert_eq!(plan.ops[3].op, OpType::Insert);
        assert_eq!(plan.writes(), 4);
    }
}
