//! Conformance of the reallocators' liveness queries
//! ([`Reallocator::for_each_live`] and [`Reallocator::is_live`]) — the
//! index the serving layer builds its checkpoints and extent listings
//! from, instead of mirroring the live set itself.
//!
//! For every entry of the paper-variant registry ([`VARIANTS`]) and every
//! baseline, on random insert/delete streams, checked after *every*
//! request and again after `quiesce`:
//! - `for_each_live` visits each history-live id exactly once, at its
//!   `extent_of` placement, and nothing else;
//! - `is_live` agrees with that set (deleted and never-seen ids are not
//!   live).
//!
//! Checking after every request catches the deamortized structure
//! mid-flush, where a delete is logged but not yet drained: the object
//! still occupies space (`extent_of` answers for it) but must be neither
//! visited nor live.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use storage_realloc::prelude::*;

fn roster() -> Vec<Box<dyn Reallocator>> {
    let mut roster: Vec<Box<dyn Reallocator>> = VARIANTS
        .iter()
        .map(|name| -> Box<dyn Reallocator> {
            build_variant(name, 0.25).expect("registry names build")
        })
        .collect();
    roster.extend(storage_realloc::baselines::baseline_roster());
    roster
}

/// A request stream from `(size, pick)` pairs: size 0 deletes the live id
/// at position `pick % live` (if any), any other size inserts a fresh id.
fn materialize(steps: &[(u64, u64)]) -> Vec<Request> {
    let mut requests = Vec::new();
    let mut live: Vec<ObjectId> = Vec::new();
    let mut next = 0u64;
    for &(size, pick) in steps {
        if size == 0 {
            if !live.is_empty() {
                let id = live.swap_remove((pick % live.len() as u64) as usize);
                requests.push(Request::Delete { id });
            }
        } else {
            let id = ObjectId(next);
            next += 1;
            live.push(id);
            requests.push(Request::Insert { id, size });
        }
    }
    requests
}

/// Checks both queries against the history-live set `live` and the
/// deleted ids `dead`. Returns how many deleted ids `extent_of` still
/// answers for (logged-but-undrained deletes).
fn conform(
    r: &dyn Reallocator,
    live: &BTreeSet<ObjectId>,
    dead: &BTreeSet<ObjectId>,
    never: ObjectId,
) -> Result<usize, String> {
    let name = r.name();
    let mut visited: BTreeMap<ObjectId, Extent> = BTreeMap::new();
    let mut twice = None;
    r.for_each_live(&mut |id, e| {
        if visited.insert(id, e).is_some() {
            twice = Some(id);
        }
    });
    if let Some(id) = twice {
        return Err(format!("{name}: {id} visited twice"));
    }
    if !visited.keys().eq(live.iter()) {
        return Err(format!(
            "{name}: visited {} ids, history has {} live",
            visited.len(),
            live.len()
        ));
    }
    for (&id, &e) in &visited {
        if r.extent_of(id) != Some(e) {
            return Err(format!(
                "{name}: {id} visited at {e:?}, extent_of disagrees"
            ));
        }
        if !r.is_live(id) {
            return Err(format!("{name}: {id} visited but not is_live"));
        }
    }
    let mut pending = 0;
    for &id in dead {
        if r.is_live(id) {
            return Err(format!("{name}: deleted {id} still is_live"));
        }
        if r.extent_of(id).is_some() {
            pending += 1;
        }
    }
    if r.is_live(never) {
        return Err(format!("{name}: never-inserted {never} is_live"));
    }
    Ok(pending)
}

/// Serves `requests` on `r`, checking conformance after every request and
/// after the closing `quiesce`. Returns how many deleted-but-undrained
/// objects were observed mid-stream (summed over all checks).
fn drive(r: &mut dyn Reallocator, requests: &[Request]) -> Result<usize, String> {
    let mut live = BTreeSet::new();
    let mut dead = BTreeSet::new();
    let never = ObjectId(u64::MAX);
    let mut pending_seen = 0;
    for req in requests {
        match *req {
            Request::Insert { id, size } => {
                r.insert(id, size)
                    .map_err(|e| format!("{}: {e}", r.name()))?;
                live.insert(id);
            }
            Request::Delete { id } => {
                r.delete(id).map_err(|e| format!("{}: {e}", r.name()))?;
                live.remove(&id);
                dead.insert(id);
            }
        }
        pending_seen += conform(r, &live, &dead, never)?;
    }
    r.quiesce();
    let after = conform(r, &live, &dead, never)?;
    if after != 0 {
        return Err(format!(
            "{}: {after} deleted ids still placed after quiesce",
            r.name()
        ));
    }
    Ok(pending_seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every reallocator in the workspace, after every request of a random
    /// stream and after quiesce.
    #[test]
    fn every_reallocator_enumerates_exactly_its_live_set(
        steps in prop::collection::vec(
            (prop_oneof![3 => 1u64..=300, 2 => Just(0u64)], 0u64..=1_000),
            1..160,
        )
    ) {
        let requests = materialize(&steps);
        for mut r in roster() {
            drive(r.as_mut(), &requests).map_err(TestCaseError::fail)?;
        }
    }
}

/// The deamortized structure, on a stream long enough to delete during
/// flushes: logged-but-undrained deletes do occur (so the mid-flush case
/// is exercised, not assumed), and the queries exclude every one of them.
#[test]
fn deamortized_pending_deletes_are_not_live_mid_flush() {
    let steps: Vec<(u64, u64)> = (0..3_000u64)
        .map(|i| {
            let mix = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let size = if i % 5 < 2 && i > 200 {
                0
            } else {
                1 + mix % 200
            };
            (size, mix)
        })
        .collect();
    let requests = materialize(&steps);
    let mut r = DeamortizedReallocator::new(0.25);
    let pending_seen = drive(&mut r, &requests).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        pending_seen > 0,
        "the stream never caught a delete mid-flush; lengthen it"
    );
}
