//! Instrumented `std::sync` shims (model mode).
//!
//! API-compatible stand-ins for `Mutex`, `Condvar`, and the atomics the
//! workspace uses. Every operation reports to the per-run `Scheduler`
//! and is a scheduling point; the data itself lives behind an internal
//! (uncontended-by-construction) `std::sync::Mutex` or std atomic, so
//! no `unsafe` is needed anywhere.
//!
//! These types must only be created and used inside a [`super::check`]
//! run; construction outside a model context panics with a pointer to
//! the facade docs.

use std::sync::Arc;

use super::sched::Scheduler;
use super::{ctx, ctx_id};

/// Error half of [`LockResult`]. Model locks never poison (a user panic
/// is itself a model failure that tears the run down), so this type is
/// never constructed — it exists so `.lock().expect(..)` and friends
/// compile identically in both facade modes.
pub struct PoisonError<T> {
    _never: std::convert::Infallible,
    _marker: std::marker::PhantomData<T>,
}

impl<T> PoisonError<T> {
    /// `std::sync::PoisonError::into_inner` lookalike; unreachable, since
    /// this type is never constructed.
    pub fn into_inner(self) -> T {
        match self._never {}
    }
}

impl<T> std::fmt::Debug for PoisonError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoisonError")
    }
}

impl<T> std::fmt::Display for PoisonError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("poisoned lock (unreachable in model mode)")
    }
}

/// `std::sync::LockResult` lookalike.
pub type LockResult<T> = Result<T, PoisonError<T>>;

/// Model-checked mutex: every `lock`/unlock is a scheduling point and
/// contention is explored by the DFS driver.
pub struct Mutex<T> {
    sched: Arc<Scheduler>,
    id: usize,
    data: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]; releasing it (drop) is a scheduling point.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    modeled: bool,
}

impl<T> Mutex<T> {
    /// Creates a mutex registered with the current model run.
    pub fn new(value: T) -> Self {
        let sched = ctx();
        let id = sched.register_mutex();
        Self {
            sched,
            id,
            data: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the mutex (modelled: may block, may be preempted).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let modeled = self.sched.mutex_lock(ctx_id(), self.id);
        let inner = match self.data.lock() {
            Ok(g) => g,
            // The std lock is only ever poisoned when a model failure is
            // already unwinding another holder; the data is still valid.
            Err(poisoned) => poisoned.into_inner(),
        };
        Ok(MutexGuard {
            lock: self,
            inner: Some(inner),
            modeled,
        })
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        match self.data.into_inner() {
            Ok(v) => Ok(v),
            Err(poisoned) => Ok(poisoned.into_inner()),
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_deref()
            .expect("model MutexGuard used after wait() consumed it")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("model MutexGuard used after wait() consumed it")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the backing std lock *before* the model release: the
        // model release schedules other threads, which may immediately
        // std-lock the data.
        if let Some(inner) = self.inner.take() {
            drop(inner);
            if self.modeled {
                self.lock.sched.mutex_unlock(ctx_id(), self.lock.id);
            }
        }
    }
}

/// Model-checked condition variable with FIFO wakeups.
pub struct Condvar {
    sched: Arc<Scheduler>,
    id: usize,
}

impl Condvar {
    /// Creates a condvar registered with the current model run.
    pub fn new() -> Self {
        let sched = ctx();
        let id = sched.register_condvar();
        Self { sched, id }
    }

    /// Atomically releases the guard's mutex and parks until notified;
    /// re-acquires before returning (both are scheduling points).
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        // Hand the std guard back first; the model release happens
        // atomically with the park inside the scheduler.
        guard.inner = None;
        let was_modeled = guard.modeled;
        guard.modeled = false; // make the guard's Drop inert
        drop(guard);
        let modeled = if was_modeled {
            self.sched.condvar_wait(ctx_id(), self.id, lock.id)
        } else {
            false
        };
        let inner = match lock.data.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        Ok(MutexGuard {
            lock,
            inner: Some(inner),
            modeled,
        })
    }

    /// Wakes the longest-waiting thread, if any (a scheduling point).
    pub fn notify_one(&self) {
        self.sched.notify_one(ctx_id(), self.id);
    }

    /// Wakes every waiting thread (a scheduling point).
    pub fn notify_all(&self) {
        self.sched.notify_all(ctx_id(), self.id);
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

/// Instrumented atomics: every load/store/rmw is a scheduling point.
/// Orderings are accepted for API compatibility but the model explores
/// sequentially consistent interleavings only (see the module docs —
/// this is an interleaving explorer, not a weak-memory simulator).
pub mod atomic {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use super::super::sched::Scheduler;
    use super::super::{ctx, ctx_id};

    macro_rules! model_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ident, $prim:ty) => {
            $(#[$doc])*
            pub struct $name {
                sched: Arc<Scheduler>,
                id: usize,
                v: std::sync::atomic::$std,
            }

            impl $name {
                /// Creates an atomic registered with the current model run.
                pub fn new(v: $prim) -> Self {
                    let sched = ctx();
                    let id = sched.register_atomic();
                    Self {
                        sched,
                        id,
                        v: std::sync::atomic::$std::new(v),
                    }
                }

                /// Atomic load (scheduling point).
                pub fn load(&self, _o: Ordering) -> $prim {
                    let r = self.v.load(Ordering::SeqCst);
                    self.sched.atomic_point(ctx_id(), self.id, "load");
                    r
                }

                /// Atomic store (scheduling point).
                pub fn store(&self, v: $prim, _o: Ordering) {
                    self.v.store(v, Ordering::SeqCst);
                    self.sched.atomic_point(ctx_id(), self.id, "store");
                }

                /// Atomic swap (scheduling point).
                pub fn swap(&self, v: $prim, _o: Ordering) -> $prim {
                    let r = self.v.swap(v, Ordering::SeqCst);
                    self.sched.atomic_point(ctx_id(), self.id, "swap");
                    r
                }

                /// Atomic compare-exchange (scheduling point).
                pub fn compare_exchange(
                    &self,
                    cur: $prim,
                    new: $prim,
                    _s: Ordering,
                    _f: Ordering,
                ) -> Result<$prim, $prim> {
                    let r = self
                        .v
                        .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst);
                    self.sched.atomic_point(ctx_id(), self.id, "cas");
                    r
                }
            }
        };
    }

    model_atomic!(
        /// Model-checked `AtomicBool`.
        AtomicBool,
        AtomicBool,
        bool
    );
    model_atomic!(
        /// Model-checked `AtomicUsize`.
        AtomicUsize,
        AtomicUsize,
        usize
    );
    model_atomic!(
        /// Model-checked `AtomicU64`.
        AtomicU64,
        AtomicU64,
        u64
    );

    macro_rules! model_atomic_arith {
        ($name:ident, $prim:ty) => {
            impl $name {
                /// Atomic fetch-add (scheduling point).
                pub fn fetch_add(&self, v: $prim, _o: Ordering) -> $prim {
                    let r = self.v.fetch_add(v, Ordering::SeqCst);
                    self.sched.atomic_point(ctx_id(), self.id, "fetch_add");
                    r
                }

                /// Atomic fetch-sub (scheduling point).
                pub fn fetch_sub(&self, v: $prim, _o: Ordering) -> $prim {
                    let r = self.v.fetch_sub(v, Ordering::SeqCst);
                    self.sched.atomic_point(ctx_id(), self.id, "fetch_sub");
                    r
                }
            }
        };
    }

    model_atomic_arith!(AtomicUsize, usize);
    model_atomic_arith!(AtomicU64, u64);
}
