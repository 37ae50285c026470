//! A panicking reallocator fails loudly on both facades and never hangs
//! anyone.
//!
//! Both facades serve on fleet worker threads, so a panic inside one
//! shard's state machine must retire that shard without killing the
//! thread it ran on. The broken shard's barriers then report
//! `EngineError::ShardDown`, its acks still resolve, and every other core
//! on the same worker — here a healthy tenant's — keeps serving. Each
//! wait below runs on a helper thread under a deadline, so a regression
//! fails the test instead of hanging the suite.

use std::sync::mpsc;
use std::time::Duration;

use storage_realloc::prelude::*;

const DEADLINE: Duration = Duration::from_secs(10);

/// Runs `wait` on a helper thread and returns its result, failing the
/// test if it has not finished within [`DEADLINE`].
fn within<T: Send + 'static>(what: &str, wait: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(wait());
    });
    rx.recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{what} did not return within {DEADLINE:?}"))
}

/// A working reallocator that panics on its 5th insert.
struct PanicsOnFifthInsert {
    inner: CostObliviousReallocator,
    inserts: u64,
}

impl Reallocator for PanicsOnFifthInsert {
    fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
        self.inserts += 1;
        assert_ne!(self.inserts, 5, "injected reallocator panic");
        self.inner.insert(id, size)
    }
    fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
        self.inner.delete(id)
    }
    fn extent_of(&self, id: ObjectId) -> Option<Extent> {
        self.inner.extent_of(id)
    }
    fn is_live(&self, id: ObjectId) -> bool {
        self.inner.is_live(id)
    }
    fn for_each_live(&self, f: &mut dyn FnMut(ObjectId, Extent)) {
        self.inner.for_each_live(f)
    }
    fn live_volume(&self) -> u64 {
        self.inner.live_volume()
    }
    fn structure_size(&self) -> u64 {
        self.inner.structure_size()
    }
    fn footprint(&self) -> u64 {
        self.inner.footprint()
    }
    fn max_object_size(&self) -> u64 {
        self.inner.max_object_size()
    }
    fn name(&self) -> &'static str {
        "panics-on-fifth-insert"
    }
    fn live_count(&self) -> usize {
        self.inner.live_count()
    }
}

fn panicky(_shard: usize) -> BoxedReallocator {
    Box::new(PanicsOnFifthInsert {
        inner: CostObliviousReallocator::new(0.25),
        inserts: 0,
    })
}

fn healthy(_shard: usize) -> BoxedReallocator {
    Box::new(CostObliviousReallocator::new(0.25))
}

#[test]
fn shard_panic_is_loud_on_both_facades_and_spares_neighbours() {
    let down = Err(EngineError::ShardDown { shard: 0 });

    // Sync facade: the batch carrying the 5th insert panics inside the
    // shard; the next barrier, and every one after it, reports the shard
    // as down.
    let (first, later) = within("sync barriers", || {
        let mut engine = Engine::new(EngineConfig::with_shards(1), panicky);
        for i in 0..10 {
            engine.insert(ObjectId(i), 8).expect("enqueue");
        }
        let first = engine.quiesce().map(|_| ());
        let later = engine.snapshot().map(|_| ());
        (first, later)
    });
    assert_eq!(first, down);
    assert_eq!(later, down);

    // Async facade: a broken tenant and a healthy one share the fleet's
    // only worker thread.
    let fleet = Fleet::new(FleetConfig::with_workers(1));
    let mut broken = fleet.register(
        EngineConfig::with_shards(1),
        Box::new(HashRouter::new(1)),
        panicky,
    );
    let mut neighbour = fleet.register(
        EngineConfig::with_shards(1),
        Box::new(HashRouter::new(1)),
        healthy,
    );
    for i in 0..10 {
        drop(broken.insert(ObjectId(i), 8));
        drop(neighbour.insert(ObjectId(i), 8));
    }
    let quiesce = broken.quiesce();
    assert_eq!(
        within("async barrier on the broken tenant", move || quiesce
            .wait()
            .map(|_| ())),
        down
    );
    // Later work for the dead core still resolves, and still reports it.
    let ack = broken.insert(ObjectId(100), 8);
    let flushed = broken.flush();
    within("acks on the broken tenant", move || {
        ack.wait();
        flushed.wait();
    });
    let quiesce = broken.quiesce();
    assert_eq!(
        within("second async barrier", move || quiesce.wait().map(|_| ())),
        down
    );

    // The neighbour on the same worker thread is untouched.
    let quiesce = neighbour.quiesce();
    let stats = within("async barrier on the healthy tenant", move || {
        quiesce.wait()
    })
    .expect("healthy tenant quiesces");
    assert_eq!(stats.live_count(), 10);
    assert_eq!(stats.errors(), 0);
    neighbour.shutdown().expect("healthy tenant shuts down");
    assert_eq!(broken.shutdown().map(|_| ()), down);
}
