//! Intra-batch coalescing: fold a batch of raw requests into the smaller
//! *planned* request sequence with the same net effect.
//!
//! The paper's amortized bounds (Theorems 2.1 and 2.5) charge per
//! *surviving* allocation, so work a batch both creates and destroys is
//! freedom the bounds never make the structure pay for. The planner cashes
//! that in before the reallocator sees anything:
//!
//! * an **insert later deleted in the same batch is cancelled** — the
//!   object never touches the reallocator, the substrate, or the WAL;
//! * a **delete followed by a reinsert of the same id becomes a single
//!   resize** (one delete + one insert at the final size), and **repeated
//!   resizes collapse to the last size**;
//! * a delete + reinsert **at the unchanged size is elided entirely**: the
//!   object's observable bytes are `pattern_for(id, len)`, a pure function
//!   of `(id, len)`, so the surviving object is byte-identical to the
//!   reinserted one.
//!
//! What is preserved: per-id request order (each id nets to at most one
//!  delete-then-insert pair), ack semantics (every raw request is counted
//! in `requests`, and requests the reallocator would have rejected are
//! rejected identically — the planner simulates liveness and predicts
//! `ZeroSize` / `DuplicateId` / `UnknownId` at the exact raw stream
//! indices), cost faithfulness (the planned ops are priced like any
//! served request), and WAL group commits (the planned ops journal into
//! the batch's frame; recovery replays them to the same state).
//!
//! The liveness simulation assumes the reallocator's acceptance is purely
//! logical — insert rejects iff the id is live, delete rejects iff it is
//! not — which holds for every variant whose deletes complete eagerly.
//! A structure that defers deletes (the deamortized variant mid-flush) can
//! additionally reject a same-id reinsert the raw stream would also have
//! raced against; coalescing only ever *removes* such hazard windows.

use std::collections::HashMap;

use realloc_common::{ObjectId, ReallocError};
use workload_gen::Request;

/// One rejection the planner predicted, at its raw stream offset.
pub(crate) struct PlannedError {
    /// 0-based offset of the rejected request within the raw batch.
    pub offset: u64,
    /// The rejection the reallocator would have produced.
    pub error: ReallocError,
}

/// The folded batch: the planned request sequence plus the bookkeeping the
/// shard worker needs to keep its counters and error indices faithful to
/// the raw stream.
pub(crate) struct BatchPlan {
    /// Net requests to apply, each tagged with the raw offset of the
    /// request it stands for (the last one that produced the id's final
    /// state) — application errors attribute to that index. All deletes
    /// precede all inserts: cancelling space before claiming it keeps the
    /// transient footprint no worse than any raw interleaving the bounds
    /// already allow.
    pub planned: Vec<(u64, Request)>,
    /// Predicted rejections, in raw stream order.
    pub errors: Vec<PlannedError>,
    /// Valid raw requests elided by merging within a surviving chain
    /// (delete + reinsert pairs collapsed into one resize or into
    /// nothing).
    pub coalesced: u64,
    /// Valid raw requests cancelled outright (insert → delete chains whose
    /// object never existed before nor after the batch).
    pub cancelled: u64,
}

/// Per-id simulated state while walking the raw batch.
struct Track {
    /// Size before the batch (`None` = not live).
    before: Option<u64>,
    /// Simulated size now.
    now: Option<u64>,
    /// Raw requests accepted for this id so far.
    valid: u64,
    /// Offset of the last accepted insert / delete (error attribution).
    last_insert: u64,
    last_delete: u64,
}

impl BatchPlan {
    /// Folds `reqs` given the shard's pre-batch state: `live_size(id)`
    /// returns the live object's size, or `None` when the id is not live.
    pub(crate) fn build(
        reqs: &[Request],
        mut live_size: impl FnMut(ObjectId) -> Option<u64>,
    ) -> BatchPlan {
        let mut tracks: HashMap<ObjectId, Track> = HashMap::with_capacity(reqs.len());
        // First-touch order, so planned ops apply deterministically.
        let mut order: Vec<ObjectId> = Vec::new();
        let mut errors = Vec::new();
        for (offset, req) in reqs.iter().enumerate() {
            let offset = offset as u64;
            let id = req.id();
            let track = tracks.entry(id).or_insert_with(|| {
                order.push(id);
                let size = live_size(id);
                Track {
                    before: size,
                    now: size,
                    valid: 0,
                    last_insert: 0,
                    last_delete: 0,
                }
            });
            match *req {
                Request::Insert { size: 0, .. } => {
                    errors.push(PlannedError {
                        offset,
                        error: ReallocError::ZeroSize,
                    });
                }
                Request::Insert { size, .. } => {
                    if track.now.is_some() {
                        errors.push(PlannedError {
                            offset,
                            error: ReallocError::DuplicateId(id),
                        });
                    } else {
                        track.now = Some(size);
                        track.valid += 1;
                        track.last_insert = offset;
                    }
                }
                Request::Delete { .. } => {
                    if track.now.is_none() {
                        errors.push(PlannedError {
                            offset,
                            error: ReallocError::UnknownId(id),
                        });
                    } else {
                        track.now = None;
                        track.valid += 1;
                        track.last_delete = offset;
                    }
                }
            }
        }

        let mut deletes = Vec::new();
        let mut inserts = Vec::new();
        let mut coalesced = 0u64;
        let mut cancelled = 0u64;
        for id in order {
            let t = &tracks[&id];
            match (t.before, t.now) {
                // Never existed and does not exist: every accepted request
                // in the chain is cancelled outright.
                (None, None) => cancelled += t.valid,
                (None, Some(size)) => {
                    inserts.push((t.last_insert, Request::Insert { id, size }));
                    coalesced += t.valid - 1;
                }
                (Some(_), None) => {
                    deletes.push((t.last_delete, Request::Delete { id }));
                    coalesced += t.valid - 1;
                }
                // Survives at the unchanged size: bytes regenerate as
                // `pattern_for(id, len)`, so the chain is elided entirely.
                (Some(s0), Some(s1)) if s0 == s1 => coalesced += t.valid,
                // Survives resized: the whole chain becomes one resize.
                (Some(_), Some(size)) => {
                    deletes.push((t.last_delete, Request::Delete { id }));
                    inserts.push((t.last_insert, Request::Insert { id, size }));
                    coalesced += t.valid - 2;
                }
            }
        }
        deletes.append(&mut inserts);
        BatchPlan {
            planned: deletes,
            errors,
            coalesced,
            cancelled,
        }
    }

    /// Number of planned requests the worker will actually apply.
    pub(crate) fn applied(&self) -> u64 {
        self.planned.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjectId {
        ObjectId(n)
    }

    fn build(reqs: &[Request], live: &[(u64, u64)]) -> BatchPlan {
        BatchPlan::build(reqs, |oid| {
            live.iter().find(|&&(i, _)| ObjectId(i) == oid).map(|t| t.1)
        })
    }

    #[test]
    fn insert_then_delete_is_cancelled() {
        let plan = build(
            &[
                Request::Insert { id: id(1), size: 8 },
                Request::Delete { id: id(1) },
            ],
            &[],
        );
        assert!(plan.planned.is_empty());
        assert!(plan.errors.is_empty());
        assert_eq!(plan.cancelled, 2);
        assert_eq!(plan.coalesced, 0);
    }

    #[test]
    fn delete_then_reinsert_becomes_one_resize() {
        let plan = build(
            &[
                Request::Delete { id: id(1) },
                Request::Insert { id: id(1), size: 9 },
            ],
            &[(1, 4)],
        );
        assert_eq!(
            plan.planned,
            vec![
                (0, Request::Delete { id: id(1) }),
                (1, Request::Insert { id: id(1), size: 9 }),
            ]
        );
        assert_eq!(plan.coalesced, 0);
        assert_eq!(plan.cancelled, 0);
    }

    #[test]
    fn repeated_resizes_collapse_to_the_last_size() {
        let plan = build(
            &[
                Request::Delete { id: id(1) },
                Request::Insert { id: id(1), size: 9 },
                Request::Delete { id: id(1) },
                Request::Insert { id: id(1), size: 3 },
            ],
            &[(1, 4)],
        );
        assert_eq!(
            plan.planned,
            vec![
                (2, Request::Delete { id: id(1) }),
                (3, Request::Insert { id: id(1), size: 3 }),
            ]
        );
        // Four valid requests became two applied ones.
        assert_eq!(plan.coalesced, 2);
    }

    #[test]
    fn unchanged_size_reinsert_is_elided_entirely() {
        let plan = build(
            &[
                Request::Delete { id: id(1) },
                Request::Insert { id: id(1), size: 4 },
            ],
            &[(1, 4)],
        );
        assert!(plan.planned.is_empty());
        assert_eq!(plan.coalesced, 2);
        assert_eq!(plan.cancelled, 0);
    }

    #[test]
    fn errors_are_predicted_at_their_raw_offsets() {
        let plan = build(
            &[
                Request::Insert { id: id(1), size: 0 }, // ZeroSize
                Request::Insert { id: id(2), size: 5 }, // live → Duplicate
                Request::Delete { id: id(3) },          // dead → Unknown
                Request::Insert { id: id(4), size: 7 }, // fine
                Request::Insert { id: id(4), size: 7 }, // now live → Duplicate
            ],
            &[(2, 5)],
        );
        let offsets: Vec<u64> = plan.errors.iter().map(|e| e.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 4]);
        assert!(matches!(plan.errors[0].error, ReallocError::ZeroSize));
        assert!(matches!(
            plan.errors[1].error,
            ReallocError::DuplicateId(i) if i == id(2)
        ));
        assert!(matches!(
            plan.errors[2].error,
            ReallocError::UnknownId(i) if i == id(3)
        ));
        assert_eq!(
            plan.planned,
            vec![(3, Request::Insert { id: id(4), size: 7 })]
        );
    }

    #[test]
    fn deletes_apply_before_inserts() {
        let plan = build(
            &[
                Request::Insert { id: id(9), size: 2 },
                Request::Delete { id: id(1) },
            ],
            &[(1, 4)],
        );
        assert_eq!(
            plan.planned,
            vec![
                (1, Request::Delete { id: id(1) }),
                (0, Request::Insert { id: id(9), size: 2 }),
            ]
        );
    }

    #[test]
    fn interleaved_chains_net_independently() {
        // a: live(4) → deleted; b: fresh insert survives; c: insert+delete
        // cancelled; d: live(6) resized to 2 through two rounds.
        let plan = build(
            &[
                Request::Delete { id: id(4) },
                Request::Insert { id: id(4), size: 5 },
                Request::Insert { id: id(2), size: 3 },
                Request::Delete { id: id(1) },
                Request::Insert { id: id(3), size: 1 },
                Request::Delete { id: id(4) },
                Request::Insert { id: id(4), size: 2 },
                Request::Delete { id: id(3) },
            ],
            &[(1, 4), (4, 6)],
        );
        assert_eq!(
            plan.planned,
            vec![
                (5, Request::Delete { id: id(4) }),
                (3, Request::Delete { id: id(1) }),
                (6, Request::Insert { id: id(4), size: 2 }),
                (2, Request::Insert { id: id(2), size: 3 }),
            ]
        );
        assert_eq!(plan.cancelled, 2); // c's pair
        assert_eq!(plan.coalesced, 2); // d's intermediate resize
        assert_eq!(plan.applied(), 4);
    }
}
