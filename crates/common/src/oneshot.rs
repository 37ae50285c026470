//! A hand-rolled one-shot completion slot and a matching `block_on` —
//! the entire async runtime the workspace needs, with zero dependencies.
//!
//! The async front-end ([`realloc-engine`]'s `AsyncEngine`) hands every
//! enqueued request a [`Receiver<T>`]: a [`std::future::Future`] that
//! resolves once a shard worker fulfils the paired [`Sender<T>`] at ack
//! time. No executor is assumed: a receiver can be awaited inside any
//! runtime (it stores whatever [`Waker`] polls it), driven to completion
//! on the current thread with [`block_on`] (a `std::task::Wake`
//! park/unpark loop), or simply dropped — a slot whose receiver is gone
//! turns the send into a no-op instead of an error, which is exactly the
//! fire-and-forget semantics a dropped completion future should have.
//!
//! [`realloc-engine`]: ../../realloc_engine/index.html

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// One slot's lifecycle. `Empty → Filled → (taken)` on the happy path;
/// either side dropping early moves it to a terminal state the other side
/// observes instead of blocking forever.
enum State<T> {
    /// Nothing sent yet; holds the waker of the last poll, if any.
    Empty(Option<Waker>),
    /// Value delivered, receiver has not consumed it yet.
    Filled(T),
    /// The sender was dropped without sending.
    SenderGone,
    /// The receiver was dropped (or already consumed the value).
    Closed,
}

struct Slot<T> {
    state: Mutex<State<T>>,
}

/// The fulfilment half of a one-shot slot, created by [`channel`].
pub struct Sender<T> {
    /// Taken by [`send`](Sender::send), so `Drop` only acts on a sender
    /// that never sent.
    slot: Option<Arc<Slot<T>>>,
}

/// The completion future half of a one-shot slot, created by [`channel`].
///
/// Resolves to `Ok(value)` once the sender delivers, or to
/// `Err(`[`Dropped`]`)` if the sender is dropped unfulfilled. Dropping
/// the receiver before resolution is always safe.
pub struct Receiver<T> {
    slot: Arc<Slot<T>>,
}

/// The sender was dropped without ever sending — the operation it stood
/// for will never complete (e.g. its shard worker is gone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dropped;

impl std::fmt::Display for Dropped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "one-shot sender dropped without sending")
    }
}

impl std::error::Error for Dropped {}

/// Creates a connected one-shot pair.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(State::Empty(None)),
    });
    (
        Sender {
            slot: Some(slot.clone()),
        },
        Receiver { slot },
    )
}

impl<T> Sender<T> {
    /// Delivers `value`, waking the receiver if it is parked in a poll.
    /// A receiver that was already dropped makes this a silent no-op —
    /// completion slots outlive dropped futures by design.
    pub fn send(mut self, value: T) {
        let slot = self.slot.take().expect("an unsent sender holds its slot");
        let waker = {
            let mut state = slot.state.lock().expect("one-shot slot poisoned");
            match std::mem::replace(&mut *state, State::Filled(value)) {
                State::Empty(waker) => waker,
                State::Closed => {
                    // Dropped-before-resolved future: discard the value
                    // (restore Closed so a late poll cannot see it).
                    *state = State::Closed;
                    None
                }
                State::Filled(_) | State::SenderGone => {
                    unreachable!("one-shot sender consumed twice")
                }
            }
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let Some(slot) = self.slot.take() else {
            return; // sent
        };
        let waker = {
            let mut state = slot.state.lock().expect("one-shot slot poisoned");
            match std::mem::replace(&mut *state, State::SenderGone) {
                State::Empty(waker) => waker,
                // The receiver is already gone.
                other => {
                    *state = other;
                    None
                }
            }
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl<T> Future for Receiver<T> {
    type Output = Result<T, Dropped>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = self.slot.state.lock().expect("one-shot slot poisoned");
        match std::mem::replace(&mut *state, State::Closed) {
            State::Filled(value) => Poll::Ready(Ok(value)),
            State::SenderGone => Poll::Ready(Err(Dropped)),
            State::Empty(_) => {
                *state = State::Empty(Some(cx.waker().clone()));
                Poll::Pending
            }
            State::Closed => unreachable!("one-shot receiver polled after completion"),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.slot.state.lock().expect("one-shot slot poisoned");
        *state = State::Closed;
    }
}

/// The thread-parking waker behind [`block_on`]: `wake` unparks the
/// polling thread (and flags the wake first, closing the race where the
/// unpark lands before the park).
struct ThreadWaker {
    ready: Mutex<bool>,
    cv: Condvar,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        *self.ready.lock().expect("waker flag poisoned") = true;
        self.cv.notify_one();
    }
}

/// Drives `future` to completion on the current thread: poll, park until
/// woken, poll again. This is the whole executor — enough to await any
/// combination of one-shot receivers without an async runtime in the
/// dependency tree.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let waker_state = Arc::new(ThreadWaker {
        ready: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(waker_state.clone());
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        if let Poll::Ready(out) = future.as_mut().poll(&mut cx) {
            return out;
        }
        let mut ready = waker_state.ready.lock().expect("waker flag poisoned");
        while !*ready {
            ready = waker_state.cv.wait(ready).expect("waker flag poisoned");
        }
        *ready = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_block_on_resolves() {
        let (tx, rx) = channel();
        tx.send(7u64);
        assert_eq!(block_on(rx), Ok(7));
    }

    #[test]
    fn block_on_wakes_across_threads() {
        let (tx, rx) = channel();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send("late");
        });
        assert_eq!(block_on(rx), Ok("late"));
        sender.join().unwrap();
    }

    #[test]
    fn dropped_sender_surfaces_as_error() {
        let (tx, rx) = channel::<u32>();
        drop(tx);
        assert_eq!(block_on(rx), Err(Dropped));
    }

    #[test]
    fn a_delivered_slot_is_freed() {
        let (tx, rx) = channel();
        let slot = Arc::downgrade(&rx.slot);
        tx.send(3u8);
        assert_eq!(block_on(rx), Ok(3));
        assert!(slot.upgrade().is_none(), "send leaked its slot");
    }

    #[test]
    fn dropped_receiver_makes_send_a_noop() {
        let (tx, rx) = channel();
        drop(rx);
        tx.send(1u8); // must not panic or leak a waker
    }

    #[test]
    fn out_of_order_await_order_is_fine() {
        let (tx_a, rx_a) = channel();
        let (tx_b, rx_b) = channel();
        tx_a.send(1u32);
        tx_b.send(2u32);
        // Await the later-created slot first.
        assert_eq!(block_on(rx_b), Ok(2));
        assert_eq!(block_on(rx_a), Ok(1));
    }

    #[test]
    fn block_on_joins_many_receivers() {
        let pairs: Vec<_> = (0..64u64).map(|_| channel()).collect();
        let mut receivers = Vec::new();
        let mut senders = Vec::new();
        for (tx, rx) in pairs {
            senders.push(tx);
            receivers.push(rx);
        }
        let filler = std::thread::spawn(move || {
            for (i, tx) in senders.into_iter().enumerate() {
                tx.send(i as u64);
            }
        });
        let got = block_on(async {
            let mut out = Vec::new();
            for rx in receivers {
                out.push(rx.await.unwrap());
            }
            out
        });
        assert_eq!(got, (0..64).collect::<Vec<_>>());
        filler.join().unwrap();
    }
}
