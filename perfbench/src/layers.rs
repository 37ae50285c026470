//! The per-layer metrics a traced run reports, named after the
//! repository's modules. A workload that bypasses a layer reports it as 0.

use realloc_engine::{EngineStats, HistogramSnapshot, MetricsSnapshot};

use crate::replay::Replay;
use crate::stats::{median, ratio};
use crate::Report;

/// Engine-side figures from the public `metrics()` scrapes (one per
/// engine or tenant): intake stalls, per-batch service time, and the
/// coalescing planner's counts.
pub fn scrape(report: &mut Report, scrapes: &[MetricsSnapshot]) {
    let mut stalls = HistogramSnapshot::empty();
    let mut service = HistogramSnapshot::empty();
    let (mut raw, mut planned, mut coalesced, mut cancelled) = (0u64, 0u64, 0u64, 0u64);
    for m in scrapes {
        stalls.merge(&m.intake_stall_ns());
        for shard in &m.per_shard {
            service.merge(&shard.batch_service_ns);
            raw += shard.batch_raw_requests.sum;
            planned += shard.batch_planned_requests.sum;
        }
        coalesced += m.stats.requests_coalesced();
        cancelled += m.stats.requests_cancelled();
    }
    report.metric("engine.intake_stalls", stalls.count as f64, "count");
    report.timing(
        "engine.intake_stall_ns_p99",
        stalls.p99(),
        "ns",
        stalls.count as usize,
    );
    let n = service.count as usize;
    report.timing("engine.batch_service_ns_p50", service.p50(), "ns", n);
    report.timing("engine.batch_service_ns_p99", service.p99(), "ns", n);
    report.metric("plan.coalesced", coalesced as f64, "count");
    report.metric("plan.cancelled", cancelled as f64, "count");
    report.metric(
        "plan.planned_per_raw",
        ratio(planned as f64, raw as f64),
        "ratio",
    );
}

/// Every metric a traced run reports, in output order, with its unit:
/// the per-layer metrics, then `trace.overhead_pct`, then the end-to-end
/// figures that are reported but not gated: wall-clock throughput and the
/// figures only one workload has.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("router.hash_ns_per_req", "ns"),
    ("router.table_ns_per_req", "ns"),
    ("engine.enqueue_ns_p50", "ns"),
    ("engine.enqueue_ns_p99", "ns"),
    ("engine.quiesce_ms_p50", "ms"),
    ("engine.intake_stalls", "count"),
    ("engine.intake_stall_ns_p99", "ns"),
    ("engine.batch_service_ns_p50", "ns"),
    ("engine.batch_service_ns_p99", "ns"),
    ("plan.coalesced", "count"),
    ("plan.cancelled", "count"),
    ("plan.planned_per_raw", "ratio"),
    ("fleet.enqueue_ns_p50", "ns"),
    ("fleet.enqueue_ns_p99", "ns"),
    ("fleet.flush_ns_p50", "ns"),
    ("fleet.flush_to_ack_us_p50", "us"),
    ("fleet.flush_to_ack_us_p99", "us"),
    ("fleet.batches_stolen", "count"),
    ("fleet.steal_conflicts", "count"),
    ("fleet.steal_wait_us_p99", "us"),
    ("reallocator.insert_ns_p50", "ns"),
    ("reallocator.insert_ns_p99", "ns"),
    ("reallocator.delete_ns_p50", "ns"),
    ("reallocator.delete_ns_p99", "ns"),
    ("reallocator.max_req_us", "us"),
    ("reallocator.ns_per_req", "ns"),
    ("reallocator.moves_per_req", "count"),
    ("reallocator.moved_cells_per_req", "cells"),
    ("reallocator.storage_ops_per_req", "count"),
    ("reallocator.flushes", "count"),
    ("substrate.apply_ns_per_op", "ns"),
    ("substrate.bytes_written_per_req", "B"),
    ("substrate.digest_ns_per_byte", "ns"),
    ("substrate.verify_ms", "ms"),
    ("wal.append_ns_per_record", "ns"),
    ("wal.commit_us_p50", "us"),
    ("wal.commit_us_p99", "us"),
    ("wal.records_per_commit", "count"),
    ("wal.bytes_per_commit", "B"),
    ("wal.checkpoint_write_ms", "ms"),
    ("wal.checkpoint_bytes", "B"),
    ("wal.read_ms", "ms"),
    ("ledger.record_ns_per_req", "ns"),
    ("ledger.bytes_per_req", "B"),
    ("recover.fold_ms", "ms"),
    ("recover.reconcile_ms", "ms"),
    ("recover.reseed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("ops_per_s", "req/s"),
    ("commit_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("checkpoint_p50_ms", "ms"),
    ("checkpoint_p90_ms", "ms"),
    ("recover_s", "s"),
    ("write_amp", "ratio"),
    ("wal_bytes_per_req", "B"),
];

/// Puts a traced run's metrics in [`PER_LAYER`] order, reporting every
/// layer the workload bypasses as 0.
pub fn complete(report: &mut Report) {
    let mut measured = std::mem::take(&mut report.metrics);
    for &(name, unit) in PER_LAYER {
        match measured.iter().position(|m| m.name == name) {
            Some(i) => report.metrics.push(measured.swap_remove(i)),
            None => report.metric(name, 0.0, unit),
        }
    }
    let unlisted: Vec<_> = measured.iter().map(|m| m.name).collect();
    assert!(
        unlisted.is_empty(),
        "metrics missing from PER_LAYER: {unlisted:?}"
    );
}

/// Group-commit figures from the engine's own counters: where commits
/// fall is the engine's batching policy, which the replay only models.
pub fn engine_wal(report: &mut Report, stats: &EngineStats) {
    let commits = stats.group_commits() as f64;
    let records = stats.wal_records() as f64;
    report.metric("wal.records_per_commit", ratio(records, commits), "count");
    report.metric(
        "wal.bytes_per_commit",
        ratio(stats.wal_bytes() as f64, commits),
        "B",
    );
}

/// Reallocator, substrate, WAL and ledger figures from the layer replay.
pub fn replayed(report: &mut Report, replay: &Replay) {
    let l = &replay.layers;
    let c = &replay.counts;
    let t = &replay.tallies;
    let applied = t.applied as f64;
    let raw = c.requests as f64;

    let (mut insert, mut delete) = (l.insert.clone(), l.delete.clone());
    report.timing(
        "reallocator.insert_ns_p50",
        insert.quantile_ns(0.5),
        "ns",
        insert.len(),
    );
    report.timing(
        "reallocator.insert_ns_p99",
        insert.quantile_ns(0.99),
        "ns",
        insert.len(),
    );
    report.timing(
        "reallocator.delete_ns_p50",
        delete.quantile_ns(0.5),
        "ns",
        delete.len(),
    );
    report.timing(
        "reallocator.delete_ns_p99",
        delete.quantile_ns(0.99),
        "ns",
        delete.len(),
    );
    let max_ns = insert.max_ns().max(delete.max_ns());
    report.metric("reallocator.max_req_us", max_ns as f64 / 1e3, "us");
    let busy = (insert.total_ns() + delete.total_ns()) as f64;
    report.metric("reallocator.ns_per_req", ratio(busy, applied), "ns");
    report.metric(
        "reallocator.moves_per_req",
        ratio(c.moves as f64, applied),
        "count",
    );
    report.metric(
        "reallocator.moved_cells_per_req",
        ratio(c.moved_cells as f64, applied),
        "cells",
    );
    report.metric(
        "reallocator.storage_ops_per_req",
        ratio(t.storage_ops as f64, applied),
        "count",
    );
    report.metric("reallocator.flushes", t.flushes as f64, "count");

    let ops = if l.apply.len() > 0 {
        t.storage_ops as f64
    } else {
        0.0
    };
    report.metric(
        "substrate.apply_ns_per_op",
        ratio(l.apply.total_ns() as f64, ops),
        "ns",
    );
    report.metric(
        "substrate.bytes_written_per_req",
        ratio(c.bytes_written as f64, raw),
        "B",
    );
    report.metric(
        "substrate.digest_ns_per_byte",
        ratio(l.digest.total_ns() as f64, t.digest_bytes as f64),
        "ns",
    );
    let mut verify = l.verify.clone();
    report.timing(
        "substrate.verify_ms",
        verify.quantile_ns(0.5) / 1e6,
        "ms",
        verify.len(),
    );

    let records = c.wal_records as f64;
    report.metric(
        "wal.append_ns_per_record",
        ratio(l.append.total_ns() as f64, records),
        "ns",
    );
    let mut commit = l.commit.clone();
    report.timing(
        "wal.commit_us_p50",
        commit.quantile_ns(0.5) / 1e3,
        "us",
        commit.len(),
    );
    report.timing(
        "wal.commit_us_p99",
        commit.quantile_ns(0.99) / 1e3,
        "us",
        commit.len(),
    );
    let mut checkpoint = l.checkpoint.clone();
    let n = checkpoint.len();
    report.timing(
        "wal.checkpoint_write_ms",
        checkpoint.quantile_ns(0.5) / 1e6,
        "ms",
        n,
    );
    let sizes: Vec<f64> = t.checkpoint_bytes.iter().map(|&b| b as f64).collect();
    report.timing("wal.checkpoint_bytes", median(&sizes), "B", sizes.len());
    report.metric("wal.read_ms", l.read.total_ns() as f64 / 1e6, "ms");

    report.metric(
        "ledger.record_ns_per_req",
        ratio(l.ledger.total_ns() as f64, t.ledger_records as f64),
        "ns",
    );
    report.metric(
        "ledger.bytes_per_req",
        ratio(t.ledger_bytes as f64, t.ledger_records as f64),
        "B",
    );
}
