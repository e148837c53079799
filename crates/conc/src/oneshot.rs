//! A one-shot reply slot: one value from one sender to one receiver.
//!
//! The serve engine hands each queued request a [`Sender`] and blocks on
//! the matching [`Receiver`] until a worker answers. The slot is a
//! [`Mutex`] over the value and one [`Condvar`], both from the
//! [`crate::sync`] facade, so the model checker explores its
//! send/drop/recv interleavings (`tests/serve_model.rs`).
//!
//! * [`Receiver::recv`] returns `Err(RecvError)` once the sender is
//!   dropped without sending, so a lost worker still gets an answer.
//! * [`Sender::send`] to a dropped receiver discards the value; it never
//!   fails and never panics.
//!
//! ```
//! let (tx, rx) = profirt_conc::oneshot::channel();
//! std::thread::spawn(move || tx.send(7));
//! assert_eq!(rx.recv(), Ok(7));
//! ```

use crate::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The slot's state; the sender moves it out of `Waiting` exactly once.
enum Slot<T> {
    /// Nothing sent yet and the sender is alive.
    Waiting,
    /// The value, until the receiver takes it.
    Sent(T),
    /// The sender dropped without sending, or the value was taken.
    Closed,
}

struct Shared<T> {
    slot: Mutex<Slot<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    /// Locks the slot. A panic while holding this lock cannot leave the
    /// slot half-written (every write is one assignment), so a poisoned
    /// lock is used as is.
    fn lock(&self) -> MutexGuard<'_, Slot<T>> {
        self.slot
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Error of [`Receiver::recv`]: the sender was dropped without sending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

/// The sending half; [`Sender::send`] consumes it.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; [`Receiver::recv`] consumes it.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a connected sender/receiver pair over one empty slot.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        slot: Mutex::new(Slot::Waiting),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Stores `value` for the receiver. If the receiver is gone the value
    /// is dropped with the slot. The wakeup is sent when `self` drops, on
    /// return.
    pub fn send(self, value: T) {
        *self.shared.lock() = Slot::Sent(value);
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut slot = self.shared.lock();
        if matches!(*slot, Slot::Waiting) {
            *slot = Slot::Closed;
        }
        drop(slot);
        self.shared.ready.notify_one();
    }
}

impl<T> Receiver<T> {
    /// Blocks until the value arrives, or returns `Err(RecvError)` once
    /// the sender is dropped without sending.
    pub fn recv(self) -> Result<T, RecvError> {
        let mut slot = self.shared.lock();
        while matches!(*slot, Slot::Waiting) {
            slot = self
                .shared
                .ready
                .wait(slot)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        match std::mem::replace(&mut *slot, Slot::Closed) {
            Slot::Sent(value) => Ok(value),
            _ => Err(RecvError),
        }
    }
}

// Real-thread tests: under `model` the facade primitives demand an
// explorer context, so these only run on the std path.
#[cfg(all(test, not(feature = "model")))]
mod tests {
    use super::*;

    #[test]
    fn send_then_recv_delivers_the_value() {
        let (tx, rx) = channel();
        tx.send(String::from("answer"));
        assert_eq!(rx.recv(), Ok(String::from("answer")));
    }

    #[test]
    fn sender_dropped_unsent_fails_recv() {
        let (tx, rx) = channel::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_to_dropped_receiver_discards_the_value() {
        let (tx, rx) = channel();
        drop(rx);
        let value = Arc::new(5u8);
        tx.send(Arc::clone(&value));
        assert_eq!(Arc::strong_count(&value), 1, "the sent value was dropped");
    }
}
