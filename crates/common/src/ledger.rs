//! Post-hoc cost accounting for (re)allocator runs.
//!
//! Cost obliviousness is what makes this design possible: the paper's
//! algorithms make identical decisions for every cost function, so a single
//! run can be recorded once and then priced under arbitrarily many cost
//! functions. Two records serve that:
//!
//! * [`Ledger`] stores, per request, the allocation size (if any), the
//!   sizes of all objects moved, and the space telemetry needed by the
//!   space lemmas — the per-op trace the theorem-bound checks read.
//! * [`CostSummary`] keeps only what pricing needs: how many times each
//!   size was allocated and moved, and the checkpoint total. Since
//!   `Σ_moves f(w) = Σ_w count(w)·f(w)`, it prices a run exactly under any
//!   `f` in `O(#distinct sizes)` memory — the serving engine's record.

use std::collections::HashMap;

use crate::Outcome;

/// Which request produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An `INSERTOBJECT` request.
    Insert,
    /// A `DELETEOBJECT` request.
    Delete,
    /// A cross-shard migration leaving this instance (delete-on-source half
    /// of a rebalance/resize transfer). Not a client request: the object
    /// stays alive, just elsewhere, so nothing is allocated or freed from
    /// the client's point of view.
    MigrateOut,
    /// A cross-shard migration arriving at this instance (insert-on-target
    /// half). The transfer itself is a *reallocation* — the object was
    /// already allocated once in its life — so its size belongs in
    /// `moved_sizes`, never in `allocated`.
    MigrateIn,
    /// A Theorem 2.7 defragmentation pass over this instance's live
    /// objects; `moved_sizes` carries the schedule's moves so the pass is
    /// priceable under any cost function like everything else.
    Defrag,
}

/// Ledger entry for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Which request produced this record.
    pub kind: OpKind,
    /// The request's object size `w` (inserted or deleted) — the `w` in
    /// worst-case bounds like Lemma 3.6's `O((1/ε)·w·f(1) + f(∆))`.
    pub request_size: u64,
    /// Size allocated by this request (inserts only).
    pub allocated: Option<u64>,
    /// Sizes of every object reallocated while serving this request.
    pub moved_sizes: Vec<u64>,
    /// Checkpoint barriers emitted by this request.
    pub checkpoints: u32,
    /// Structure size after the request completed.
    pub structure_after: u64,
    /// Peak structure size during the request (overflow/staging included).
    pub peak_during: u64,
    /// Active volume `V` after the request completed.
    pub volume_after: u64,
    /// `∆` so far.
    pub delta_after: u64,
}

impl OpRecord {
    /// Total volume moved by this request.
    pub fn moved_volume(&self) -> u64 {
        self.moved_sizes.iter().sum()
    }
}

/// Accumulated run history, priceable under any cost function after the fact.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    records: Vec<OpRecord>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Record one completed request.
    ///
    /// `allocated` is `Some(size)` for inserts. `structure_after`,
    /// `volume_after` and `delta_after` come from the reallocator's state
    /// queries immediately after the request.
    #[allow(clippy::too_many_arguments)] // a flat record of one request's telemetry
    pub fn record(
        &mut self,
        kind: OpKind,
        request_size: u64,
        allocated: Option<u64>,
        outcome: &Outcome,
        structure_after: u64,
        volume_after: u64,
        delta_after: u64,
    ) {
        self.records.push(OpRecord {
            kind,
            request_size,
            allocated,
            moved_sizes: outcome.moved_sizes().collect(),
            checkpoints: outcome.checkpoints,
            structure_after,
            peak_during: outcome.peak_structure_size.max(structure_after),
            volume_after,
            delta_after,
        });
    }

    /// Appends a pre-built record. The serve path goes through
    /// [`record`](Self::record); migration and defrag passes build their own
    /// [`OpRecord`]s (their move accounting is not derivable from a single
    /// [`Outcome`] — e.g. a cross-shard transfer adds the object itself to
    /// `moved_sizes`) and push them here.
    pub fn push(&mut self, record: OpRecord) {
        self.records.push(record);
    }

    /// All records in request order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records of `kind` — e.g. how many cross-shard transfers
    /// this instance received (`OpKind::MigrateIn`) or handed off
    /// (`OpKind::MigrateOut`); a fleet is consistent when the two totals
    /// agree across its union of ledgers.
    pub fn count_kind(&self, kind: OpKind) -> usize {
        self.records.iter().filter(|r| r.kind == kind).count()
    }

    /// `Σ f(w)` over every inserted object — the paper's lower bound on any
    /// algorithm's cost and the denominator of its competitive cost ratio.
    pub fn total_alloc_cost(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        self.records.iter().filter_map(|r| r.allocated).map(f).sum()
    }

    /// `Σ f(w)` over every reallocation performed in the run.
    pub fn total_realloc_cost(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        self.records
            .iter()
            .flat_map(|r| r.moved_sizes.iter())
            .map(|&w| f(w))
            .sum()
    }

    /// The paper's cost competitive ratio `b`: reallocation cost divided by
    /// total allocation cost. Returns 0 when nothing was allocated.
    pub fn cost_ratio(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        let alloc = self.total_alloc_cost(f);
        if alloc == 0.0 {
            0.0
        } else {
            self.total_realloc_cost(f) / alloc
        }
    }

    /// Largest reallocation cost charged to a single request (the worst-case
    /// bound of Lemma 3.6 / Lemma 3.7).
    pub fn max_op_realloc_cost(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        self.records
            .iter()
            .map(|r| r.moved_sizes.iter().map(|&w| f(w)).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Largest volume moved by a single request.
    pub fn max_op_moved_volume(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.moved_volume())
            .max()
            .unwrap_or(0)
    }

    /// Total volume moved across the run.
    pub fn total_moved_volume(&self) -> u64 {
        self.records.iter().map(|r| r.moved_volume()).sum()
    }

    /// Total number of reallocations across the run.
    pub fn total_moves(&self) -> usize {
        self.records.iter().map(|r| r.moved_sizes.len()).sum()
    }

    /// Max over requests of `structure_after / volume_after` — the
    /// steady-state footprint competitive ratio `a` (Lemma 2.5).
    pub fn max_settled_space_ratio(&self) -> f64 {
        self.records
            .iter()
            .filter(|r| r.volume_after > 0)
            .map(|r| r.structure_after as f64 / r.volume_after as f64)
            .fold(0.0, f64::max)
    }

    /// Max over requests of `(peak_during - slack·∆) / volume` style ratios
    /// is experiment-specific; expose the raw worst additive form instead:
    /// the max of `peak_during` minus `(1+eps_bound)·V`, in cells. Used to
    /// verify Lemma 3.1's `(1 + O(ε'))V + ∆` envelope.
    pub fn max_peak_excess(&self, space_factor: f64) -> f64 {
        self.records
            .iter()
            .filter(|r| r.volume_after > 0)
            .map(|r| r.peak_during as f64 - space_factor * r.volume_after as f64)
            .fold(f64::MIN, f64::max)
    }

    /// Largest number of checkpoint barriers in a single request.
    pub fn max_op_checkpoints(&self) -> u32 {
        self.records
            .iter()
            .map(|r| r.checkpoints)
            .max()
            .unwrap_or(0)
    }

    /// Total checkpoint barriers across the run.
    pub fn total_checkpoints(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.checkpoints)).sum()
    }

    /// Number of requests that flushed (moved at least one object).
    pub fn requests_with_moves(&self) -> usize {
        self.records
            .iter()
            .filter(|r| !r.moved_sizes.is_empty())
            .count()
    }

    /// Max over requests of `moved_volume / (pump_rate·w + ∆)` — 1.0 or
    /// less means the Lemma 3.6 worst-case volume bound held with pump rate
    /// `pump_rate = 4/ε′`.
    pub fn max_worst_case_utilization(&self, pump_rate: f64) -> f64 {
        self.records
            .iter()
            .map(|r| {
                r.moved_volume() as f64
                    / (pump_rate * r.request_size as f64 + r.delta_after as f64).max(1.0)
            })
            .fold(0.0, f64::max)
    }
}

/// Bounded post-hoc cost accounting: a size→count table of allocations,
/// one of reallocations, and the checkpoint total.
///
/// Prices a run exactly like the [`Ledger`] it summarizes, under any cost
/// function, while holding one entry per *distinct* size instead of one
/// record per request — so a long-running service can keep it forever.
/// Per-request facts (space telemetry, per-op maxima) are not kept; the
/// ledger remains the trace for those.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CostSummary {
    allocated: HashMap<u64, u64>,
    moved: HashMap<u64, u64>,
    checkpoints: u64,
}

impl CostSummary {
    /// An empty summary.
    pub fn new() -> Self {
        CostSummary::default()
    }

    /// Records one completed request's outcome: `allocated` is
    /// `Some(size)` for inserts; every move and checkpoint barrier in
    /// `outcome` is counted.
    pub fn record(&mut self, allocated: Option<u64>, outcome: &Outcome) {
        if let Some(size) = allocated {
            *self.allocated.entry(size).or_default() += 1;
        }
        for size in outcome.moved_sizes() {
            self.record_move(size);
        }
        self.checkpoints += u64::from(outcome.checkpoints);
    }

    /// Records one reallocation of a `size`-cell object that no
    /// [`Outcome`] carries — a cross-shard transfer's arrival, or a move of
    /// a defragmentation schedule.
    pub fn record_move(&mut self, size: u64) {
        *self.moved.entry(size).or_default() += 1;
    }

    /// `Σ f(w)` over every allocation — the denominator of the competitive
    /// cost ratio (see [`Ledger::total_alloc_cost`]).
    pub fn total_alloc_cost(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        price(&self.allocated, f)
    }

    /// `Σ f(w)` over every reallocation.
    pub fn total_realloc_cost(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        price(&self.moved, f)
    }

    /// Reallocation cost divided by allocation cost; 0 when nothing was
    /// allocated.
    pub fn cost_ratio(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        let alloc = self.total_alloc_cost(f);
        if alloc == 0.0 {
            0.0
        } else {
            self.total_realloc_cost(f) / alloc
        }
    }

    /// Total checkpoint barriers.
    pub fn total_checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Total number of reallocations.
    pub fn total_moves(&self) -> u64 {
        self.moved.values().sum()
    }

    /// Total volume moved.
    pub fn total_moved_volume(&self) -> u64 {
        self.moved.iter().map(|(&w, &n)| w * n).sum()
    }

    /// Entries in the allocation table: the number of distinct sizes
    /// allocated.
    pub fn distinct_allocated_sizes(&self) -> usize {
        self.allocated.len()
    }

    /// Entries in the reallocation table: the number of distinct sizes
    /// moved.
    pub fn distinct_moved_sizes(&self) -> usize {
        self.moved.len()
    }
}

/// `Σ count(w)·f(w)`, summed in ascending size order so the float result
/// does not depend on the map's iteration order.
fn price(counts: &HashMap<u64, u64>, f: &dyn Fn(u64) -> f64) -> f64 {
    let mut sizes: Vec<(u64, u64)> = counts.iter().map(|(&w, &n)| (w, n)).collect();
    sizes.sort_unstable();
    sizes.into_iter().map(|(w, n)| n as f64 * f(w)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Extent, ObjectId, StorageOp};

    fn outcome_with_moves(moves: &[u64], checkpoints: u32, peak: u64) -> Outcome {
        let mut ops = Vec::new();
        let mut at = 0;
        for (i, &w) in moves.iter().enumerate() {
            ops.push(StorageOp::Move {
                id: ObjectId(i as u64),
                from: Extent::new(1000 + at, w),
                to: Extent::new(at, w),
            });
            at += w;
        }
        for _ in 0..checkpoints {
            ops.push(StorageOp::CheckpointBarrier);
        }
        Outcome {
            ops,
            flushed: !moves.is_empty(),
            peak_structure_size: peak,
            checkpoints,
        }
    }

    fn sample_ledger() -> Ledger {
        let mut ledger = Ledger::new();
        // insert of size 4, no moves
        ledger.record(
            OpKind::Insert,
            4,
            Some(4),
            &outcome_with_moves(&[], 0, 4),
            4,
            4,
            4,
        );
        // insert of size 8 that flushed, moving a 4 and an 8
        ledger.record(
            OpKind::Insert,
            8,
            Some(8),
            &outcome_with_moves(&[4, 8], 2, 20),
            13,
            12,
            8,
        );
        // delete, no moves
        ledger.record(
            OpKind::Delete,
            8,
            None,
            &outcome_with_moves(&[], 0, 13),
            13,
            8,
            8,
        );
        ledger
    }

    #[test]
    fn alloc_and_realloc_costs_linear() {
        let ledger = sample_ledger();
        let linear = |w: u64| w as f64;
        assert_eq!(ledger.total_alloc_cost(&linear), 12.0);
        assert_eq!(ledger.total_realloc_cost(&linear), 12.0);
        assert_eq!(ledger.cost_ratio(&linear), 1.0);
    }

    #[test]
    fn alloc_and_realloc_costs_unit() {
        let ledger = sample_ledger();
        let unit = |_w: u64| 1.0;
        assert_eq!(ledger.total_alloc_cost(&unit), 2.0);
        assert_eq!(ledger.total_realloc_cost(&unit), 2.0);
        assert_eq!(ledger.max_op_realloc_cost(&unit), 2.0);
    }

    #[test]
    fn space_telemetry() {
        let ledger = sample_ledger();
        assert_eq!(ledger.max_op_moved_volume(), 12);
        assert_eq!(ledger.total_moved_volume(), 12);
        assert_eq!(ledger.total_moves(), 2);
        // ratios: 4/4, 13/12, 13/8
        assert!((ledger.max_settled_space_ratio() - 13.0 / 8.0).abs() < 1e-12);
        assert_eq!(ledger.max_op_checkpoints(), 2);
        assert_eq!(ledger.total_checkpoints(), 2);
        assert_eq!(ledger.requests_with_moves(), 1);
    }

    #[test]
    fn empty_ledger_is_benign() {
        let ledger = Ledger::new();
        assert!(ledger.is_empty());
        assert_eq!(ledger.cost_ratio(&|w| w as f64), 0.0);
        assert_eq!(ledger.max_op_moved_volume(), 0);
        assert_eq!(ledger.max_settled_space_ratio(), 0.0);
    }

    #[test]
    fn pushed_migration_records_price_as_reallocations() {
        let mut ledger = sample_ledger();
        // A migrated-in 6-cell object: the transfer is a move, not an
        // allocation, so it lands in realloc cost only.
        ledger.push(OpRecord {
            kind: OpKind::MigrateIn,
            request_size: 6,
            allocated: None,
            moved_sizes: vec![6],
            checkpoints: 0,
            structure_after: 19,
            peak_during: 19,
            volume_after: 14,
            delta_after: 8,
        });
        let linear = |w: u64| w as f64;
        assert_eq!(ledger.total_alloc_cost(&linear), 12.0, "alloc unchanged");
        assert_eq!(ledger.total_realloc_cost(&linear), 18.0);
        assert_eq!(ledger.total_moved_volume(), 18);
        assert_eq!(ledger.len(), 4);
        assert_eq!(ledger.count_kind(OpKind::MigrateIn), 1);
        assert_eq!(ledger.count_kind(OpKind::MigrateOut), 0);
        assert_eq!(ledger.count_kind(OpKind::Insert), 2);
    }

    #[test]
    fn summary_keeps_one_entry_per_distinct_size() {
        let mut summary = CostSummary::new();
        for _ in 0..1000 {
            summary.record(Some(6), &outcome_with_moves(&[6, 6], 1, 12));
            summary.record_move(6);
        }
        assert_eq!(summary.distinct_allocated_sizes(), 1);
        assert_eq!(summary.distinct_moved_sizes(), 1);
        assert_eq!(summary.total_moves(), 3000);
        assert_eq!(summary.total_moved_volume(), 18_000);
        assert_eq!(summary.total_checkpoints(), 1000);
        assert_eq!(summary.cost_ratio(&|w| w as f64), 3.0);
        assert_eq!(CostSummary::new().cost_ratio(&|w| w as f64), 0.0);
    }

    #[test]
    fn peak_excess_uses_peak_during() {
        let ledger = sample_ledger();
        // record 2: peak 20, V 12 → excess over 1.0·V is 8.
        assert!((ledger.max_peak_excess(1.0) - 8.0).abs() < 1e-12);
    }
}
