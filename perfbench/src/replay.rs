//! The layer replay: the same request stream an engine served, pushed
//! single-threaded through the public APIs of the layers a shard worker
//! calls — reallocator, substrate, WAL, ledger — in the order the worker
//! calls them, with a span around each call.
//!
//! Two pieces of engine behaviour are crate-private and therefore
//! modelled here: the client-side batching law (full batches ship; past a
//! watermark of half the fleet's batch capacity the fullest buffer ships,
//! never below half a batch) and the coalescing planner's fold. Without
//! coalescing, batch boundaries only decide where WAL group commits fall,
//! so the work [`Replay::cross_check`] compares does not depend on either
//! model. With coalescing (`tenants`) the fold decides what the
//! reallocator sees, so there the check also proves both models exact.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use realloc_common::{BoxedReallocator, Ledger, ObjectId, OpKind, OpRecord, Outcome, StorageOp};
use realloc_engine::{AddressWindow, EngineConfig, EngineStats, SubstrateConfig};
use storage_sim::wal::{checkpoint_path, read_checkpoint, read_wal, wal_path, write_checkpoint};
use storage_sim::{
    checksum, pattern_for, Checkpoint, CheckpointEntry, DataStore, WalRecord, WalWriter,
};
use workload_gen::Request;

use crate::stats::Spans;

/// The ledger is priced for its memory and dropped every this many records,
/// so the replay does not hold a second copy of the engine's history.
const LEDGER_CHUNK: usize = 1 << 16;

/// One shard's layers, as a shard worker owns them.
struct Core {
    realloc: BoxedReallocator,
    live: HashSet<ObjectId>,
    store: Option<DataStore>,
    wal: Option<(WalWriter, PathBuf)>,
    ledger: Ledger,
}

/// One engine's shards plus its client-side batch buffers.
struct EngineModel {
    cores: Vec<Core>,
    pending: Vec<Vec<Request>>,
}

/// Spans per layer.
#[derive(Default)]
pub struct Layers {
    pub insert: Spans,
    pub delete: Spans,
    /// Substrate replay of one request's ops.
    pub apply: Spans,
    /// `checksum(&pattern_for(..))` of one journaled allocation.
    pub digest: Spans,
    /// Appending one request's WAL records (self time: digests excluded).
    pub append: Spans,
    pub commit: Spans,
    pub checkpoint: Spans,
    pub verify: Spans,
    pub ledger: Spans,
    /// Reading every shard's checkpoint and log back.
    pub read: Spans,
}

/// What the replay did, in the engine's own units.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub requests: u64,
    pub moves: u64,
    pub moved_cells: u64,
    pub bytes_written: u64,
    pub wal_records: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, other: Counts) {
        self.requests += other.requests;
        self.moves += other.moves;
        self.moved_cells += other.moved_cells;
        self.bytes_written += other.bytes_written;
        self.wal_records += other.wal_records;
    }
}

/// Replay-only tallies with no engine counterpart.
#[derive(Default)]
pub struct Tallies {
    pub applied: u64,
    pub storage_ops: u64,
    pub flushes: u64,
    pub digest_bytes: u64,
    pub ledger_records: u64,
    pub ledger_bytes: u64,
    pub checkpoint_bytes: Vec<u64>,
    pub substrate_errors: Vec<String>,
}

/// What a replay models: `engines` engines of `shards` shards each.
pub struct ReplaySpec {
    pub variant: &'static str,
    pub engines: usize,
    pub shards: usize,
    pub substrate: bool,
    /// Log directory per engine, when the engines journal.
    pub wal_dirs: Vec<PathBuf>,
    pub coalesce: bool,
}

pub struct Replay {
    engines: Vec<EngineModel>,
    batch: usize,
    coalesce: bool,
    wal_dirs: Vec<PathBuf>,
    pub layers: Layers,
    pub counts: Counts,
    pub tallies: Tallies,
}

impl Replay {
    pub fn new(spec: &ReplaySpec) -> Result<Replay, String> {
        let window = SubstrateConfig::strict().window_span;
        let mut engines = Vec::with_capacity(spec.engines);
        for e in 0..spec.engines {
            let mut cores = Vec::with_capacity(spec.shards);
            for shard in 0..spec.shards {
                let wal = match spec.wal_dirs.get(e) {
                    Some(dir) => {
                        std::fs::create_dir_all(dir).map_err(|err| err.to_string())?;
                        let writer = WalWriter::open(&wal_path(dir, shard), 0)
                            .map_err(|err| format!("replay wal: {err}"))?;
                        Some((writer, checkpoint_path(dir, shard)))
                    }
                    None => None,
                };
                cores.push(Core {
                    realloc: crate::build_variant(spec.variant),
                    live: HashSet::new(),
                    store: spec.substrate.then(|| {
                        DataStore::windowed(
                            storage_sim::Mode::Strict,
                            AddressWindow::for_shard(shard, window),
                        )
                    }),
                    wal,
                    ledger: Ledger::new(),
                });
            }
            engines.push(EngineModel {
                pending: vec![Vec::new(); spec.shards],
                cores,
            });
        }
        Ok(Replay {
            engines,
            batch: EngineConfig::default().batch,
            coalesce: spec.coalesce,
            wal_dirs: spec.wal_dirs.clone(),
            layers: Layers::default(),
            counts: Counts::default(),
            tallies: Tallies::default(),
        })
    }

    /// One enqueue into engine `e`, already routed to `shard`: the
    /// engine's batching law decides which buffered batch ships.
    pub fn send(&mut self, e: usize, shard: usize, req: Request) {
        let pending = &mut self.engines[e].pending;
        pending[shard].push(req);
        if pending[shard].len() >= self.batch {
            let batch = std::mem::take(&mut pending[shard]);
            self.serve_batch(e, shard, batch);
            return;
        }
        let watermark = (pending.len() * self.batch / 2).max(1);
        if pending.iter().map(Vec::len).sum::<usize>() < watermark {
            return;
        }
        let Some(fullest) = (0..pending.len()).max_by_key(|&s| pending[s].len()) else {
            return;
        };
        let n = pending[fullest].len();
        if n < self.batch / 2 {
            return;
        }
        let batch: Vec<Request> = pending[fullest].drain(..n.min(self.batch)).collect();
        self.serve_batch(e, fullest, batch);
    }

    /// Ships every partial batch of engine `e`, in shard order.
    pub fn flush(&mut self, e: usize) {
        for shard in 0..self.engines[e].pending.len() {
            let batch = std::mem::take(&mut self.engines[e].pending[shard]);
            if !batch.is_empty() {
                self.serve_batch(e, shard, batch);
            }
        }
    }

    /// The quiesce barrier: flush, then every shard drains its
    /// reallocator, verifies its substrate and checkpoints its log.
    pub fn quiesce(&mut self, e: usize) {
        self.flush(e);
        for shard in 0..self.engines[e].cores.len() {
            let outcome = self.engines[e].cores[shard].realloc.quiesce();
            self.absorb(e, shard, &outcome);
            self.verify(e, shard);
            self.checkpoint(e, shard);
        }
    }

    fn serve_batch(&mut self, e: usize, shard: usize, raw: Vec<Request>) {
        self.counts.requests += raw.len() as u64;
        let planned = if self.coalesce {
            self.fold(e, shard, &raw)
        } else {
            raw
        };
        for req in planned {
            self.serve(e, shard, req);
        }
        self.commit(e, shard);
    }

    /// The coalescing planner's net effect on one batch: per id, in
    /// first-touch order, an insert later deleted is cancelled, a delete
    /// plus reinsert becomes one resize (nothing at an unchanged size), and
    /// all deletes apply before all inserts. Requests the reallocator would
    /// reject cannot occur in the generated streams and are not modelled.
    fn fold(&mut self, e: usize, shard: usize, raw: &[Request]) -> Vec<Request> {
        let core = &self.engines[e].cores[shard];
        // id → (size before the batch, size now)
        let mut tracks: HashMap<ObjectId, (Option<u64>, Option<u64>)> = HashMap::new();
        let mut order = Vec::new();
        for req in raw {
            let id = req.id();
            let track = tracks.entry(id).or_insert_with(|| {
                order.push(id);
                let before = core
                    .live
                    .contains(&id)
                    .then(|| core.realloc.extent_of(id).map_or(0, |x| x.len));
                (before, before)
            });
            track.1 = match *req {
                Request::Insert { size, .. } => Some(size),
                Request::Delete { .. } => None,
            };
        }
        let (mut deletes, mut inserts) = (Vec::new(), Vec::new());
        for id in order {
            match tracks[&id] {
                (None, None) => {}
                (None, Some(size)) => inserts.push(Request::Insert { id, size }),
                (Some(_), None) => deletes.push(Request::Delete { id }),
                (Some(s0), Some(s1)) if s0 == s1 => {}
                (Some(_), Some(size)) => {
                    deletes.push(Request::Delete { id });
                    inserts.push(Request::Insert { id, size });
                }
            }
        }
        deletes.append(&mut inserts);
        deletes
    }

    /// One request through the reallocator, then its ops through the WAL
    /// and the substrate, then the ledger — the shard worker's order.
    fn serve(&mut self, e: usize, shard: usize, req: Request) {
        self.tallies.applied += 1;
        let core = &mut self.engines[e].cores[shard];
        let (kind, request_size, allocated, result) = match req {
            Request::Insert { id, size } => (
                OpKind::Insert,
                size,
                Some(size),
                self.layers.insert.time(|| core.realloc.insert(id, size)),
            ),
            Request::Delete { id } => {
                let size = core.realloc.extent_of(id).map_or(0, |x| x.len);
                (
                    OpKind::Delete,
                    size,
                    None,
                    self.layers.delete.time(|| core.realloc.delete(id)),
                )
            }
        };
        let outcome = match result {
            Ok(outcome) => outcome,
            // The engine counts the same rejection as a failure.
            Err(_) => return,
        };
        match req {
            Request::Insert { id, .. } => core.live.insert(id),
            Request::Delete { id } => core.live.remove(&id),
        };
        self.absorb(e, shard, &outcome);
        let core = &mut self.engines[e].cores[shard];
        let (structure, volume, delta) = (
            core.realloc.structure_size(),
            core.realloc.live_volume(),
            core.realloc.max_object_size(),
        );
        let ledger = &mut core.ledger;
        self.layers.ledger.time(|| {
            ledger.record(
                kind,
                request_size,
                allocated,
                &outcome,
                structure,
                volume,
                delta,
            )
        });
        if ledger.len() >= LEDGER_CHUNK {
            self.tallies.price_ledger(std::mem::take(ledger));
        }
    }

    /// An outcome's moves are counted, its ops journaled, then replayed
    /// into the substrate.
    fn absorb(&mut self, e: usize, shard: usize, outcome: &Outcome) {
        self.counts.moves += outcome.move_count() as u64;
        self.counts.moved_cells += outcome.moved_volume();
        self.tallies.storage_ops += outcome.ops.len() as u64;
        self.tallies.flushes += u64::from(outcome.flushed);
        let core = &mut self.engines[e].cores[shard];
        if let Some((writer, _)) = core.wal.as_mut() {
            let started = Instant::now();
            let mut digest_ns = 0;
            for op in &outcome.ops {
                let record = match *op {
                    StorageOp::Allocate { id, to } => {
                        let t = Instant::now();
                        let digest = checksum(&pattern_for(id, to.len));
                        let d = t.elapsed();
                        digest_ns += d.as_nanos();
                        self.layers.digest.push(d);
                        self.tallies.digest_bytes += to.len;
                        WalRecord::Allocate {
                            id,
                            offset: to.offset,
                            len: to.len,
                            digest,
                        }
                    }
                    StorageOp::Move { id, from, to } => WalRecord::Move {
                        id,
                        from: from.offset,
                        to: to.offset,
                        len: to.len,
                    },
                    StorageOp::Free { id, at } => WalRecord::Free {
                        id,
                        offset: at.offset,
                        len: at.len,
                    },
                    StorageOp::CheckpointBarrier => continue,
                };
                writer.append(record);
            }
            let total = started.elapsed();
            self.layers
                .append
                .push(total.saturating_sub(std::time::Duration::from_nanos(digest_ns as u64)));
        }
        if let Some(store) = core.store.as_mut() {
            let started = Instant::now();
            for op in &outcome.ops {
                match store.apply(op) {
                    Ok(()) => self.counts.bytes_written += op.written_extent().map_or(0, |x| x.len),
                    Err(v) => self.tallies.substrate_errors.push(v.to_string()),
                }
            }
            self.layers.apply.push(started.elapsed());
        }
    }

    /// The group commit closing a served batch.
    fn commit(&mut self, e: usize, shard: usize) {
        let Some((writer, _)) = self.engines[e].cores[shard].wal.as_mut() else {
            return;
        };
        if writer.pending_records() == 0 {
            return;
        }
        if let Err(err) = self.layers.commit.time(|| writer.commit()) {
            self.tallies
                .substrate_errors
                .push(format!("wal commit: {err}"));
        }
    }

    /// The barrier's full substrate scan: placements against the
    /// reallocator, live counts, then every object's bytes.
    fn verify(&mut self, e: usize, shard: usize) {
        let core = &self.engines[e].cores[shard];
        let Some(store) = core.store.as_ref() else {
            return;
        };
        let realloc = &core.realloc;
        let result = self.layers.verify.time(|| {
            store.rules().verify_matches(|id| realloc.extent_of(id))?;
            if store.rules().live_count() != realloc.live_count() {
                return Err("live counts differ".to_string());
            }
            store.verify_all()
        });
        if let Err(err) = result {
            self.tallies.substrate_errors.push(err);
        }
    }

    /// Checkpoint-then-truncate: the live layout with digests at the next
    /// epoch, then the log prefix it subsumes is dropped.
    fn checkpoint(&mut self, e: usize, shard: usize) {
        self.commit(e, shard);
        let core = &mut self.engines[e].cores[shard];
        let Some((writer, ckpt)) = core.wal.as_mut() else {
            return;
        };
        let realloc = &core.realloc;
        let live = &core.live;
        let result = self.layers.checkpoint.time(|| {
            let mut ids: Vec<ObjectId> = live.iter().copied().collect();
            ids.sort_unstable();
            let entries = ids
                .into_iter()
                .filter_map(|id| {
                    realloc.extent_of(id).map(|x| CheckpointEntry {
                        id,
                        offset: x.offset,
                        len: x.len,
                        digest: checksum(&pattern_for(id, x.len)),
                        assigned: false,
                    })
                })
                .collect();
            let epoch = writer.epoch() + 1;
            write_checkpoint(ckpt, &Checkpoint { epoch, entries })
                .and_then(|()| writer.truncate_to_epoch(epoch))
        });
        match result.and_then(|()| std::fs::metadata(&*ckpt)) {
            Ok(meta) => self.tallies.checkpoint_bytes.push(meta.len()),
            Err(err) => self
                .tallies
                .substrate_errors
                .push(format!("checkpoint: {err}")),
        }
    }

    /// Finishes the run: prices the remaining ledgers, totals the logs, and
    /// reads every shard's checkpoint and log back the way recovery does.
    pub fn finish(&mut self) {
        for e in 0..self.engines.len() {
            for shard in 0..self.engines[e].cores.len() {
                let ledger = std::mem::take(&mut self.engines[e].cores[shard].ledger);
                self.tallies.price_ledger(ledger);
                if let Some((writer, _)) = &self.engines[e].cores[shard].wal {
                    self.counts.wal_records += writer.records();
                }
            }
        }
        for dir in self.wal_dirs.clone() {
            let shards = self.engines[0].cores.len();
            self.layers.read.time(|| read_back(&dir, shards));
        }
    }

    /// The raw requests and the work both sides do must agree exactly:
    /// moves, moved cells, substrate bytes written and WAL records. Group
    /// commits, WAL bytes and the planner's counts follow the engine's
    /// batching policy, which may change, so they are reported from the
    /// engine and not compared.
    pub fn cross_check(&self, engine: &Counts) -> Result<(), String> {
        if let Some(first) = self.tallies.substrate_errors.first() {
            return Err(format!("replay substrate: {first}"));
        }
        if self.counts == *engine {
            Ok(())
        } else {
            Err(format!("replay {:?} != engine {engine:?}", self.counts))
        }
    }
}

impl Tallies {
    fn price_ledger(&mut self, ledger: Ledger) {
        self.ledger_records += ledger.len() as u64;
        self.ledger_bytes += ledger
            .records()
            .iter()
            .map(|r| (std::mem::size_of::<OpRecord>() + r.moved_sizes.capacity() * 8) as u64)
            .sum::<u64>();
    }
}

/// What recovery reads: each shard's checkpoint and its log suffix.
fn read_back(dir: &Path, shards: usize) {
    for shard in 0..shards {
        let _ = std::hint::black_box(read_checkpoint(&checkpoint_path(dir, shard)));
        let _ = std::hint::black_box(read_wal(&wal_path(dir, shard)));
    }
}

/// The engine's side of [`Replay::cross_check`], from its stats.
pub fn engine_counts(stats: &EngineStats) -> Counts {
    Counts {
        requests: stats.requests(),
        moves: stats.total_moves(),
        moved_cells: stats.total_moved_volume(),
        bytes_written: stats.bytes_written(),
        wal_records: stats.wal_records(),
    }
}
