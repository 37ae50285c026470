//! Cross-shard rebalancing: planning object migrations that equalize
//! per-shard live volumes.
//!
//! Theorem 2.1 keeps every shard within `(1+ε)·V_i`, but nothing bounds the
//! *spread* of the `V_i` themselves — a skewed delete pattern under hash
//! routing leaves one shard holding most of the volume while the rest idle.
//! The planner here computes a migration set (executed by
//! [`Engine::rebalance`](crate::Engine::rebalance) as
//! delete-on-source/insert-on-target transfers at a quiesce barrier) that
//! brings every donor shard down to the mean: greedy largest-first, so the
//! object count moved is small and each transfer's `f(w)` cost is paid by
//! as few objects as possible.
//!
//! The residual imbalance after a plan is bounded by object granularity:
//! every donor ends within its largest unmovable object of the mean, so
//! `max V_i / mean V_i ≤ 1 + ∆/mean` — far below the rebalance targets
//! anyone sets in practice (∆ ≪ per-shard volume).

use realloc_common::ObjectId;

/// Knobs for [`Engine::rebalance`](crate::Engine::rebalance) and
/// [`Engine::rebalance_online`](crate::Engine::rebalance_online).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceOptions {
    /// Run the per-shard Theorem 2.7 defragmenter after migrating, with
    /// this footprint slack `ε` (`0 < ε ≤ 1/2`): each shard computes the
    /// cost-oblivious compaction schedule over its post-migration layout
    /// (objects sorted by id), records the schedule's moves in its cost summary,
    /// and reports the space bound. `None` skips the pass.
    pub defrag_eps: Option<f64>,
    /// Online mode only: the most objects one
    /// [`rebalance_step`](crate::Engine::rebalance_step) migrates. This is
    /// the knob that trades convergence speed for per-step serving stall —
    /// a step's latency is bounded by re-homing this many objects (plus
    /// draining whatever the involved shards had queued). Barrier mode
    /// ignores it and executes the whole plan at once. Default 64.
    pub batch_objects: usize,
}

impl Default for RebalanceOptions {
    fn default() -> Self {
        RebalanceOptions {
            defrag_eps: None,
            batch_objects: 64,
        }
    }
}

impl RebalanceOptions {
    /// Options with the defrag pass enabled at slack `eps`.
    pub fn with_defrag(eps: f64) -> Self {
        RebalanceOptions {
            defrag_eps: Some(eps),
            ..RebalanceOptions::default()
        }
    }

    /// These options with the online per-step migration bound set to
    /// `objects` (clamped to at least 1).
    pub fn batched(mut self, objects: usize) -> Self {
        self.batch_objects = objects.max(1);
        self
    }
}

/// How a rebalance was executed (reported in
/// [`RebalanceReport::mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceMode {
    /// [`Engine::rebalance`](crate::Engine::rebalance): the whole fleet
    /// quiesced, the full migration plan executed inside one barrier.
    Barrier,
    /// [`Engine::rebalance_online`](crate::Engine::rebalance_online): the
    /// plan executed in bounded batches interleaved with serving.
    Online,
}

impl std::fmt::Display for RebalanceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RebalanceMode::Barrier => "barrier",
            RebalanceMode::Online => "online",
        })
    }
}

/// What [`Engine::rebalance_online`](crate::Engine::rebalance_online)
/// planned — the migration set the now-active session will execute
/// incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlinePlan {
    /// Objects the plan re-homes.
    pub objects: u64,
    /// Total volume of those objects, in cells.
    pub volume: u64,
    /// Bounded batches the session will execute
    /// (`⌈objects / batch_objects⌉`).
    pub batches: u64,
}

/// A driver-side auto-rebalance trigger: fire when the observed
/// [`imbalance_ratio`](crate::EngineStats::imbalance_ratio) has exceeded
/// `tau` for `k` consecutive observations, then back off for `hysteresis`
/// observations after a rebalance completes (so the freshly balanced fleet
/// is not immediately re-measured mid-settling and thrashed).
///
/// The policy is a pure observation state machine — it never touches an
/// engine itself. Feed it imbalance ratios with [`observe`](Self::observe);
/// when that returns `true`, trigger a rebalance and report it back with
/// [`note_rebalanced`](Self::note_rebalanced). Wire it into an
/// [`Engine`](crate::Engine) with
/// [`set_auto_rebalance`](crate::Engine::set_auto_rebalance) and the engine
/// does both at its own barriers.
///
/// ```
/// use realloc_engine::RebalancePolicy;
///
/// // Fire after 2 consecutive observations above 1.5; then back off for
/// // 1 observation.
/// let mut policy = RebalancePolicy::new(1.5, 2, 1);
/// assert!(!policy.observe(2.0)); // 1st breach: not yet
/// assert!(!policy.observe(1.2)); // back under τ: streak resets
/// assert!(!policy.observe(1.8)); // 1st of a new streak
/// assert!(policy.observe(1.9)); // 2nd consecutive breach: fire
///
/// policy.note_rebalanced(); // rebalance ran: hysteresis kicks in
/// assert!(!policy.observe(9.0)); // ignored (cooling down)
/// assert!(!policy.observe(9.0)); // 1st counted breach again
/// assert!(policy.observe(9.0)); // 2nd: fire again
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancePolicy {
    /// Imbalance threshold `τ` (`max V_i / mean V_i`; 1.0 is perfectly
    /// balanced, so `τ > 1`).
    pub tau: f64,
    /// Consecutive observations above `τ` required to fire. Values above 1
    /// keep a single noisy barrier snapshot from triggering migrations.
    pub k: usize,
    /// Observations ignored after a rebalance completes.
    pub hysteresis: usize,
    /// Breaches in the current consecutive streak.
    streak: usize,
    /// Remaining post-rebalance observations to ignore.
    cooldown: usize,
}

impl Default for RebalancePolicy {
    /// `τ = 1.5`, `k = 3`, `hysteresis = 2`.
    fn default() -> Self {
        RebalancePolicy::new(1.5, 3, 2)
    }
}

impl RebalancePolicy {
    /// A policy firing after `k` consecutive observations above `tau`,
    /// ignoring `hysteresis` observations after each rebalance.
    ///
    /// # Panics
    /// Panics if `tau <= 1.0` (every fleet would always be "imbalanced") or
    /// `k == 0` (the policy could fire without ever observing).
    pub fn new(tau: f64, k: usize, hysteresis: usize) -> Self {
        assert!(tau > 1.0, "τ must exceed 1.0 (perfect balance), got {tau}");
        assert!(k > 0, "k must be positive");
        RebalancePolicy {
            tau,
            k,
            hysteresis,
            streak: 0,
            cooldown: 0,
        }
    }

    /// Feeds one imbalance observation; returns whether a rebalance should
    /// fire now. Observations during the post-rebalance cooldown are
    /// ignored (and do not extend a streak).
    pub fn observe(&mut self, imbalance: f64) -> bool {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            self.streak = 0;
            return false;
        }
        if imbalance > self.tau {
            self.streak += 1;
            if self.streak >= self.k {
                self.streak = 0;
                return true;
            }
        } else {
            self.streak = 0;
        }
        false
    }

    /// Tells the policy a rebalance ran: the next `hysteresis` observations
    /// are ignored and the streak restarts.
    pub fn note_rebalanced(&mut self) {
        self.cooldown = self.hysteresis;
        self.streak = 0;
    }

    /// Breaches in the current consecutive streak (diagnostics).
    pub fn streak(&self) -> usize {
        self.streak
    }

    /// Observations still to be ignored post-rebalance (diagnostics).
    pub fn cooldown(&self) -> usize {
        self.cooldown
    }
}

/// One planned cross-shard transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Migration {
    pub id: ObjectId,
    pub size: u64,
    pub from: usize,
    pub to: usize,
}

/// What one shard's Theorem 2.7 defrag pass reported.
#[derive(Debug, Clone, PartialEq)]
pub struct DefragSummary {
    /// The shard that ran the pass.
    pub shard: usize,
    /// Live objects sorted.
    pub objects: usize,
    /// Total moves in the schedule.
    pub total_moves: u64,
    /// Largest address (exclusive) the schedule writes.
    pub peak_space: u64,
    /// The `(1+ε)V` array budget.
    pub budget: u64,
    /// Whether the theorem's `(1+ε)V + ∆` space bound held.
    pub within_budget: bool,
    /// Whether the schedule's copies, *performed* on the shard's real
    /// substrate bytes (in a sandbox), landed every object byte-intact at
    /// its promised placement. `None` when the shard has no substrate —
    /// the schedule was only computed, not executed.
    pub substrate_ok: Option<bool>,
    /// Planning error, if the pass could not run (a healthy quiesced shard
    /// never produces one).
    pub error: Option<String>,
}

/// Everything [`Engine::rebalance`](crate::Engine::rebalance) or a
/// completed [`Engine::rebalance_online`](crate::Engine::rebalance_online)
/// session did.
#[derive(Debug, Clone)]
pub struct RebalanceReport {
    /// Aggregate stats at the opening barrier (pre-migration). For an
    /// online session: at planning time.
    pub before: crate::EngineStats,
    /// Aggregate stats after migrations (and the optional defrag pass).
    /// For an online session: at the completing step, so serving traffic
    /// that ran alongside the migration is included.
    pub after: crate::EngineStats,
    /// Objects migrated across shards.
    pub migrated_objects: u64,
    /// Total volume of those objects, in cells.
    pub migrated_volume: u64,
    /// Per-shard defrag summaries (empty unless requested).
    pub defrag: Vec<DefragSummary>,
    /// Whether this rebalance ran as one quiesce barrier or as an online
    /// session of bounded batches.
    pub mode: RebalanceMode,
    /// Migration batches executed (always 1 in barrier mode; online mode
    /// counts one per [`rebalance_step`](crate::Engine::rebalance_step)
    /// that migrated something).
    pub batches: u64,
}

/// Everything [`Engine::resize_shards`](crate::Engine::resize_shards) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeReport {
    /// Shard count before.
    pub from: usize,
    /// Shard count after.
    pub to: usize,
    /// Objects migrated to their new owners.
    pub migrated_objects: u64,
    /// Total volume of those objects, in cells.
    pub migrated_volume: u64,
}

/// Plans migrations equalizing per-shard volumes: donors (above the mean)
/// hand their largest movable objects to the currently emptiest shard until
/// they reach the mean. Deterministic: donors are visited in (surplus,
/// shard) order, objects in (size desc, id) order, and receiver ties break
/// toward the lowest shard.
pub(crate) fn plan_rebalance(shards: &[Vec<(ObjectId, u64)>]) -> Vec<Migration> {
    let n = shards.len();
    if n <= 1 {
        return Vec::new();
    }
    let mut vols: Vec<f64> = shards
        .iter()
        .map(|objs| objs.iter().map(|&(_, size)| size as f64).sum())
        .collect();
    let mean = vols.iter().sum::<f64>() / n as f64;
    if mean == 0.0 {
        return Vec::new();
    }

    let mut donors: Vec<usize> = (0..n).filter(|&s| vols[s] > mean).collect();
    donors.sort_by(|&a, &b| vols[b].total_cmp(&vols[a]).then(a.cmp(&b)));

    let mut plan = Vec::new();
    for donor in donors {
        let mut objs = shards[donor].clone();
        objs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (id, size) in objs {
            let surplus = vols[donor] - mean;
            if surplus <= 0.0 {
                break;
            }
            // Largest-first: objects bigger than the remaining surplus are
            // skipped (moving one would push the donor below the mean and
            // the receiver above it — a swap, not an improvement).
            if size as f64 > surplus {
                continue;
            }
            let recv = (0..n)
                .min_by(|&a, &b| vols[a].total_cmp(&vols[b]).then(a.cmp(&b)))
                .expect("non-empty shard set");
            if recv == donor || vols[recv] + size as f64 >= vols[donor] {
                break; // nothing left to improve
            }
            vols[donor] -= size as f64;
            vols[recv] += size as f64;
            plan.push(Migration {
                id,
                size,
                from: donor,
                to: recv,
            });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(sizes: &[u64], first_id: u64) -> Vec<(ObjectId, u64)> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (ObjectId(first_id + i as u64), s))
            .collect()
    }

    fn imbalance(shards: &[Vec<(ObjectId, u64)>], plan: &[Migration]) -> f64 {
        let mut vols: Vec<f64> = shards
            .iter()
            .map(|objs| objs.iter().map(|&(_, s)| s as f64).sum())
            .collect();
        for m in plan {
            vols[m.from] -= m.size as f64;
            vols[m.to] += m.size as f64;
        }
        let mean = vols.iter().sum::<f64>() / vols.len() as f64;
        vols.iter().cloned().fold(0.0, f64::max) / mean
    }

    #[test]
    fn balanced_input_plans_nothing() {
        let shards = vec![shard(&[10, 10], 0), shard(&[10, 10], 10)];
        assert!(plan_rebalance(&shards).is_empty());
    }

    #[test]
    fn single_shard_and_empty_inputs_plan_nothing() {
        assert!(plan_rebalance(&[]).is_empty());
        assert!(plan_rebalance(&[shard(&[5, 5], 0)]).is_empty());
        assert!(plan_rebalance(&[Vec::new(), Vec::new()]).is_empty());
    }

    #[test]
    fn skewed_volumes_equalize_within_granularity() {
        // One hot shard holding 4× the others' volume in small objects.
        let shards = vec![
            shard(&[8; 100], 0),  // 800
            shard(&[8; 25], 100), // 200
            shard(&[8; 25], 200), // 200
            shard(&[8; 25], 300), // 200
        ];
        let plan = plan_rebalance(&shards);
        assert!(!plan.is_empty());
        let after = imbalance(&shards, &plan);
        assert!(after < 1.05, "imbalance after plan: {after}");
        // Every migration leaves the hot shard.
        assert!(plan.iter().all(|m| m.from == 0));
    }

    #[test]
    fn largest_movable_objects_move_first() {
        // Donor volume 120, mean 64 ⇒ surplus 56: the 64 would overshoot
        // (it exceeds the surplus), so the 32 is the first mover.
        let shards = vec![shard(&[64, 32, 8, 8, 8], 0), shard(&[8], 10)];
        let plan = plan_rebalance(&shards);
        assert_eq!(plan[0].size, 32, "largest movable object goes first");
        let after = imbalance(&shards, &plan);
        assert!(after <= 1.0 + 1e-9, "imbalance after plan: {after}");
    }

    #[test]
    fn oversized_objects_are_skipped_not_swapped() {
        // Moving the 100 would just trade places; only the 10s can help.
        let shards = vec![shard(&[100, 10, 10], 0), shard(&[20], 10)];
        let plan = plan_rebalance(&shards);
        assert!(plan.iter().all(|m| m.size != 100));
        let after = imbalance(&shards, &plan);
        let before = imbalance(&shards, &[]);
        assert!(after <= before);
    }

    #[test]
    fn policy_requires_k_consecutive_breaches() {
        let mut p = RebalancePolicy::new(1.5, 3, 0);
        assert!(!p.observe(2.0));
        assert!(!p.observe(2.0));
        assert!(!p.observe(1.4), "dip below τ must reset the streak");
        assert!(!p.observe(2.0));
        assert!(!p.observe(2.0));
        assert!(p.observe(2.0), "3rd consecutive breach fires");
        // Firing resets the streak: the next breach starts over.
        assert!(!p.observe(2.0));
        assert_eq!(p.streak(), 1);
    }

    #[test]
    fn policy_hysteresis_swallows_observations() {
        let mut p = RebalancePolicy::new(1.2, 1, 3);
        assert!(p.observe(2.0), "k = 1 fires immediately");
        p.note_rebalanced();
        assert_eq!(p.cooldown(), 3);
        for _ in 0..3 {
            assert!(!p.observe(10.0), "cooldown observation must not fire");
        }
        assert!(p.observe(10.0), "cooldown over");
    }

    #[test]
    fn policy_boundary_is_strict() {
        // imbalance == τ does not breach: a fleet sitting exactly at the
        // threshold is left alone.
        let mut p = RebalancePolicy::new(1.5, 1, 0);
        assert!(!p.observe(1.5));
        assert!(p.observe(1.5 + 1e-9));
    }

    #[test]
    fn policy_default_is_sane() {
        let p = RebalancePolicy::default();
        assert!(p.tau > 1.0 && p.k > 0);
        assert_eq!((p.streak(), p.cooldown()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "τ must exceed 1.0")]
    fn policy_rejects_unreachable_tau() {
        RebalancePolicy::new(1.0, 3, 2);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn policy_rejects_zero_k() {
        RebalancePolicy::new(2.0, 0, 2);
    }

    #[test]
    fn options_builders_compose() {
        let opts = RebalanceOptions::with_defrag(0.25).batched(7);
        assert_eq!(opts.defrag_eps, Some(0.25));
        assert_eq!(opts.batch_objects, 7);
        assert_eq!(RebalanceOptions::default().batched(0).batch_objects, 1);
    }

    #[test]
    fn mode_displays() {
        assert_eq!(RebalanceMode::Barrier.to_string(), "barrier");
        assert_eq!(RebalanceMode::Online.to_string(), "online");
    }

    #[test]
    fn plans_are_deterministic() {
        let shards = vec![
            shard(&[13, 7, 5, 3, 2], 0),
            shard(&[1], 10),
            shard(&[2, 2], 20),
        ];
        assert_eq!(plan_rebalance(&shards), plan_rebalance(&shards));
    }
}
