//! Property-based tests: arbitrary request sequences against every
//! reallocator variant, checking the paper's invariants after each request.

use proptest::prelude::*;
use storage_realloc::prelude::*;

/// A compact encoding of a random request sequence: positive values insert
/// an object of that size; a zero deletes the oldest live object.
fn op_sequence() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 1u64..=600,  // insert of a size spanning ~10 classes
            1 => Just(0u64),  // delete-oldest marker
        ],
        1..250,
    )
}

/// Replays the encoded sequence, returning the requests actually issued.
fn materialize(ops: &[u64]) -> Vec<Request> {
    let mut requests = Vec::new();
    let mut live = std::collections::VecDeque::new();
    let mut next = 0u64;
    for &op in ops {
        if op == 0 {
            if let Some(id) = live.pop_front() {
                requests.push(Request::Delete { id });
            }
        } else {
            let id = ObjectId(next);
            next += 1;
            live.push_back(id);
            requests.push(Request::Insert { id, size: op });
        }
    }
    requests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// §2 algorithm: structural invariants (2.2–2.4) and the (1+ε) footprint
    /// bound hold after every request, and all placements stay disjoint.
    #[test]
    fn amortized_invariants_hold(ops in op_sequence(), eps in 0.05f64..=0.5) {
        let mut r = CostObliviousReallocator::new(eps);
        for req in materialize(&ops) {
            match req {
                Request::Insert { id, size } => { r.insert(id, size).unwrap(); }
                Request::Delete { id } => { r.delete(id).unwrap(); }
            }
            r.validate().unwrap();
            if r.live_volume() > 0 {
                let ratio = r.structure_size() as f64 / r.live_volume() as f64;
                prop_assert!(ratio <= 1.0 + eps + 1e-9, "ratio {ratio} > 1+ε");
            }
        }
    }

    /// §3.2 algorithm: same invariants, plus every emitted move is
    /// nonoverlapping (checked per op; the full rules are substrate tests).
    #[test]
    fn checkpointed_invariants_hold(ops in op_sequence(), eps in 0.05f64..=0.5) {
        let mut r = CheckpointedReallocator::new(eps);
        for req in materialize(&ops) {
            let outcome = match req {
                Request::Insert { id, size } => r.insert(id, size).unwrap(),
                Request::Delete { id } => r.delete(id).unwrap(),
            };
            for op in &outcome.ops {
                if let StorageOp::Move { from, to, .. } = op {
                    prop_assert!(!from.overlaps(to), "overlapping move {from} -> {to}");
                }
            }
            r.validate().unwrap();
            if r.live_volume() > 0 {
                let ratio = r.structure_size() as f64 / r.live_volume() as f64;
                prop_assert!(ratio <= 1.0 + eps + 1e-9, "ratio {ratio} > 1+ε");
            }
        }
    }

    /// §3.3 algorithm: the worst-case volume bound holds for every single
    /// request, and the mid-flush index stays disjoint throughout.
    #[test]
    fn deamortized_worst_case_holds(ops in op_sequence(), eps in 0.05f64..=0.5) {
        let mut r = DeamortizedReallocator::new(eps);
        for req in materialize(&ops) {
            let (w, outcome) = match req {
                Request::Insert { id, size } => (size, r.insert(id, size).unwrap()),
                Request::Delete { id } => {
                    let w = r.extent_of(id).map_or(1, |e| e.len);
                    (w, r.delete(id).unwrap())
                }
            };
            let bound = r.eps().pump_quota(w) + r.max_object_size();
            prop_assert!(
                outcome.moved_volume() <= bound,
                "moved {} > bound {bound}",
                outcome.moved_volume()
            );
            r.validate().unwrap();
        }
    }

    /// The 2024 nearly-quadratic variant: §2 structural invariants plus the
    /// hole book-keeping hold after every request, the (1+ε) footprint
    /// bound never breaks (hole recycling must not degrade it), and every
    /// emitted move is nonoverlapping (it shares the §3.2 flush machinery).
    #[test]
    fn nearly_quadratic_invariants_hold(ops in op_sequence(), eps in 0.05f64..=0.5) {
        let mut r = NearlyQuadraticReallocator::new(eps);
        for req in materialize(&ops) {
            let outcome = match req {
                Request::Insert { id, size } => r.insert(id, size).unwrap(),
                Request::Delete { id } => r.delete(id).unwrap(),
            };
            for op in &outcome.ops {
                if let StorageOp::Move { from, to, .. } = op {
                    prop_assert!(!from.overlaps(to), "overlapping move {from} -> {to}");
                }
            }
            r.validate().unwrap();
            if r.live_volume() > 0 {
                let ratio = r.structure_size() as f64 / r.live_volume() as f64;
                prop_assert!(ratio <= 1.0 + eps + 1e-9, "ratio {ratio} > 1+ε");
            }
        }
    }

    /// Every registry variant agrees with a trivial reference model on
    /// liveness: same live ids, same sizes, same total volume.
    #[test]
    fn variants_agree_with_reference_model(ops in op_sequence()) {
        let requests = materialize(&ops);
        let mut reference = std::collections::HashMap::new();
        for req in &requests {
            match *req {
                Request::Insert { id, size } => { reference.insert(id, size); }
                Request::Delete { id } => { reference.remove(&id); }
            }
        }
        for name in VARIANTS {
            let mut r = build_variant(name, 0.3).expect("registry names build");
            for req in &requests {
                match *req {
                    Request::Insert { id, size } => { r.insert(id, size).unwrap(); }
                    Request::Delete { id } => { r.delete(id).unwrap(); }
                }
            }
            // Pending deletes stay *active* until drained (deamortized
            // paper semantics); quiesce before comparing to the model.
            r.quiesce();
            prop_assert_eq!(r.live_count(), reference.len(), "{}", name);
            prop_assert_eq!(r.live_volume(), reference.values().sum::<u64>(), "{}", name);
            for (&id, &size) in &reference {
                let e = r.extent_of(id);
                prop_assert!(e.map(|e| e.len) == Some(size), "{}: {id} wrong", name);
            }
        }
    }

    /// The bounded cost summary prices any outcome stream exactly like the
    /// per-request ledger, under every standard cost function, while
    /// holding one entry per distinct size.
    #[test]
    fn cost_summary_prices_like_the_ledger(
        stream in prop::collection::vec(
            (0u8..3, 1u64..=300, prop::collection::vec(1u64..=300, 0..6), 0u32..3),
            0..200,
        ),
    ) {
        let mut ledger = Ledger::new();
        let mut summary = CostSummary::new();
        let mut alloc_sizes = std::collections::HashSet::new();
        let mut moved_sizes = std::collections::HashSet::new();
        for (kind, size, moves, checkpoints) in &stream {
            let mut ops: Vec<StorageOp> = moves
                .iter()
                .map(|&w| StorageOp::Move {
                    id: ObjectId(w),
                    from: Extent::new(1_000, w),
                    to: Extent::new(0, w),
                })
                .collect();
            ops.extend((0..*checkpoints).map(|_| StorageOp::CheckpointBarrier));
            let outcome = Outcome {
                ops,
                flushed: !moves.is_empty(),
                peak_structure_size: 0,
                checkpoints: *checkpoints,
            };
            moved_sizes.extend(moves.iter().copied());
            match kind {
                // A client insert allocates its size.
                0 => {
                    ledger.record(OpKind::Insert, *size, Some(*size), &outcome, 0, 0, 0);
                    summary.record(Some(*size), &outcome);
                    alloc_sizes.insert(*size);
                }
                // A delete (or drain) allocates nothing.
                1 => {
                    ledger.record(OpKind::Delete, *size, None, &outcome, 0, 0, 0);
                    summary.record(None, &outcome);
                }
                // A transfer arrival: the object itself is one more move.
                _ => {
                    let mut record_moves = vec![*size];
                    record_moves.extend(moves.iter().copied());
                    ledger.push(storage_realloc::common::OpRecord {
                        kind: OpKind::MigrateIn,
                        request_size: *size,
                        allocated: None,
                        moved_sizes: record_moves,
                        checkpoints: *checkpoints,
                        structure_after: 0,
                        peak_during: 0,
                        volume_after: 0,
                        delta_after: 0,
                    });
                    summary.record_move(*size);
                    summary.record(None, &outcome);
                    moved_sizes.insert(*size);
                }
            }
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        for f in standard_suite() {
            let price = |w: u64| f.cost(w);
            let (la, sa) = (ledger.total_alloc_cost(&price), summary.total_alloc_cost(&price));
            prop_assert!(close(la, sa), "{}: alloc {la} vs {sa}", f.name());
            let (lr, sr) = (ledger.total_realloc_cost(&price), summary.total_realloc_cost(&price));
            prop_assert!(close(lr, sr), "{}: realloc {lr} vs {sr}", f.name());
        }
        prop_assert_eq!(ledger.total_checkpoints(), summary.total_checkpoints());
        prop_assert_eq!(ledger.total_moves() as u64, summary.total_moves());
        prop_assert_eq!(ledger.total_moved_volume(), summary.total_moved_volume());
        prop_assert!(summary.distinct_allocated_sizes() <= alloc_sizes.len());
        prop_assert!(summary.distinct_moved_sizes() <= moved_sizes.len());
    }

    /// Baselines also maintain exact liveness and disjoint placements.
    #[test]
    fn baselines_maintain_disjoint_placements(ops in op_sequence()) {
        let requests = materialize(&ops);
        for mut r in storage_realloc::baselines::baseline_roster() {
            let mut live = std::collections::HashSet::new();
            for req in &requests {
                match *req {
                    Request::Insert { id, size } => { r.insert(id, size).unwrap(); live.insert(id); }
                    Request::Delete { id } => { r.delete(id).unwrap(); live.remove(&id); }
                }
            }
            let mut extents: Vec<Extent> =
                live.iter().map(|&id| r.extent_of(id).unwrap()).collect();
            extents.sort_by_key(|e| e.offset);
            for pair in extents.windows(2) {
                prop_assert!(
                    !pair[0].overlaps(&pair[1]),
                    "{}: {} overlaps {}",
                    r.name(),
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}
