//! The sync facade every instrumented crate imports instead of
//! `std::sync`.
//!
//! In a normal build this module is nothing but re-exports — zero cost,
//! zero behaviour change. Under `--cfg selc_model` (set via `RUSTFLAGS`,
//! never by a cargo feature, so it can reach every crate in the graph at
//! once) the same names resolve to scheduler-instrumented facades that
//! call `crate::model` at every operation. The facades fall through to
//! plain `std` behaviour when the calling thread is not part of a live
//! model execution, so a `selc_model` build still runs the ordinary test
//! suite correctly.
//!
//! Instrumented ops ignore the `Ordering` the caller passes and execute
//! `SeqCst`: the checker explores sequentially consistent interleavings
//! only (see the soundness note on `crate::model`).

pub use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

#[cfg(not(selc_model))]
pub mod atomic {
    //! Re-exports of the real atomics (normal builds).
    pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(selc_model))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(selc_model)]
pub mod atomic {
    //! Scheduler-instrumented atomics (`--cfg selc_model` builds).
    pub use std::sync::atomic::Ordering;

    use crate::model;
    use std::sync::atomic as std_atomic;

    // ordering: every instrumented op runs SeqCst under the scheduler's
    // run token — the model checker explores sequentially consistent
    // schedules only, and the caller's ordering argument is recorded by
    // the `// ordering:` comment lint instead.
    const SC: Ordering = Ordering::SeqCst;

    macro_rules! model_atomic_common {
        ($name:ident, $std:ident, $raw:ty) => {
            /// Instrumented counterpart of the `std::sync::atomic` type
            /// of the same name: one scheduler decision point per op.
            pub struct $name {
                inner: std_atomic::$std,
            }

            impl $name {
                #[must_use]
                pub const fn new(v: $raw) -> Self {
                    Self { inner: std_atomic::$std::new(v) }
                }

                pub fn load(&self, _order: Ordering) -> $raw {
                    model::op_point();
                    self.inner.load(SC)
                }

                pub fn store(&self, val: $raw, _order: Ordering) {
                    model::op_point();
                    self.inner.store(val, SC);
                }

                pub fn swap(&self, val: $raw, _order: Ordering) -> $raw {
                    model::op_point();
                    self.inner.swap(val, SC)
                }

                pub fn compare_exchange(
                    &self,
                    current: $raw,
                    new: $raw,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$raw, $raw> {
                    model::op_point();
                    self.inner.compare_exchange(current, new, SC, SC)
                }

                pub fn fetch_or(&self, val: $raw, _order: Ordering) -> $raw {
                    model::op_point();
                    self.inner.fetch_or(val, SC)
                }

                pub fn fetch_and(&self, val: $raw, _order: Ordering) -> $raw {
                    model::op_point();
                    self.inner.fetch_and(val, SC)
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }

            impl ::std::fmt::Debug for $name {
                fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                    // No decision point: Debug is diagnostic, not a
                    // modelled access.
                    ::std::fmt::Debug::fmt(&self.inner.load(SC), f)
                }
            }
        };
    }

    macro_rules! model_atomic_int {
        ($name:ident, $std:ident, $raw:ty) => {
            model_atomic_common!($name, $std, $raw);

            impl $name {
                pub fn fetch_add(&self, val: $raw, _order: Ordering) -> $raw {
                    model::op_point();
                    self.inner.fetch_add(val, SC)
                }

                pub fn fetch_sub(&self, val: $raw, _order: Ordering) -> $raw {
                    model::op_point();
                    self.inner.fetch_sub(val, SC)
                }

                pub fn fetch_min(&self, val: $raw, _order: Ordering) -> $raw {
                    model::op_point();
                    self.inner.fetch_min(val, SC)
                }

                pub fn fetch_max(&self, val: $raw, _order: Ordering) -> $raw {
                    model::op_point();
                    self.inner.fetch_max(val, SC)
                }

                /// One decision point for the whole read-modify-write:
                /// under the run token the loop cannot race, so modelling
                /// `fetch_update` as a single atomic step is exact.
                pub fn fetch_update<F>(
                    &self,
                    _set: Ordering,
                    _fetch: Ordering,
                    f: F,
                ) -> Result<$raw, $raw>
                where
                    F: FnMut($raw) -> Option<$raw>,
                {
                    model::op_point();
                    self.inner.fetch_update(SC, SC, f)
                }
            }
        };
    }

    model_atomic_common!(AtomicBool, AtomicBool, bool);
    model_atomic_int!(AtomicUsize, AtomicUsize, usize);
    model_atomic_int!(AtomicU64, AtomicU64, u64);
    model_atomic_int!(AtomicI64, AtomicI64, i64);
}

#[cfg(selc_model)]
pub use self::model_sync::{Condvar, Mutex, MutexGuard};

#[cfg(selc_model)]
mod model_sync {
    //! Scheduler-instrumented `Mutex`/`Condvar` (`--cfg selc_model`).
    //!
    //! Both wrap their `std` counterparts for storage and identify
    //! themselves to the scheduler by address. A model `lock` spins
    //! through `try_lock` + scheduler parking instead of blocking the OS
    //! thread, so the scheduler always knows who waits on what (that is
    //! what makes deadlocks detectable rather than hangs).

    use crate::model;
    use std::ops::{Deref, DerefMut};
    use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

    pub struct Mutex<T: ?Sized> {
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        #[must_use]
        pub const fn new(t: T) -> Mutex<T> {
            Mutex { inner: std::sync::Mutex::new(t) }
        }

        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> Mutex<T> {
        fn addr(&self) -> usize {
            std::ptr::from_ref(self).cast::<()>() as usize
        }

        fn guard<'a>(&'a self, g: std::sync::MutexGuard<'a, T>, model: bool) -> MutexGuard<'a, T> {
            MutexGuard { inner: Some(g), lock: self, model }
        }

        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            if !model::in_model() {
                return match self.inner.lock() {
                    Ok(g) => Ok(self.guard(g, false)),
                    Err(p) => Err(PoisonError::new(self.guard(p.into_inner(), false))),
                };
            }
            loop {
                model::op_point();
                match self.inner.try_lock() {
                    Ok(g) => return Ok(self.guard(g, true)),
                    Err(TryLockError::Poisoned(p)) => {
                        return Err(PoisonError::new(self.guard(p.into_inner(), true)))
                    }
                    Err(TryLockError::WouldBlock) => model::blocked_on_lock(self.addr()),
                }
            }
        }

        pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
            let in_model = model::in_model();
            if in_model {
                model::op_point();
            }
            match self.inner.try_lock() {
                Ok(g) => Ok(self.guard(g, in_model)),
                Err(TryLockError::Poisoned(p)) => Err(TryLockError::Poisoned(PoisonError::new(
                    self.guard(p.into_inner(), in_model),
                ))),
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            }
        }

        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Mutex<T> {
            Mutex::new(T::default())
        }
    }

    pub struct MutexGuard<'a, T: ?Sized + 'a> {
        inner: Option<std::sync::MutexGuard<'a, T>>,
        lock: &'a Mutex<T>,
        /// Whether the guard was acquired inside a model execution (and
        /// must therefore tell the scheduler when it releases).
        model: bool,
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("model mutex guard already released")
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("model mutex guard already released")
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            drop(self.inner.take());
            if self.model {
                model::lock_released(self.lock.addr());
            }
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            (**self).fmt(f)
        }
    }

    pub struct Condvar {
        inner: std::sync::Condvar,
    }

    impl Condvar {
        #[must_use]
        pub const fn new() -> Condvar {
            Condvar { inner: std::sync::Condvar::new() }
        }

        fn addr(&self) -> usize {
            std::ptr::from_ref(self).cast::<()>() as usize
        }

        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            if !guard.model || !model::in_model() {
                let lock = guard.lock;
                let std_guard = guard.inner.take().expect("model mutex guard already released");
                // The shim guard is now inert (inner taken, and we must
                // not report a model release that never happened).
                std::mem::forget(guard);
                return match self.inner.wait(std_guard) {
                    Ok(g) => Ok(lock.guard(g, false)),
                    Err(p) => Err(PoisonError::new(lock.guard(p.into_inner(), false))),
                };
            }
            let lock = guard.lock;
            model::op_point();
            // Dropping the guard releases the mutex and wakes its
            // waiters; the run token is still ours, so no notification
            // can slip in before we park — release + wait are atomic
            // under the scheduler, exactly like the real condvar.
            drop(guard);
            model::blocked_on_condvar(self.addr());
            lock.lock()
        }

        pub fn notify_one(&self) {
            if model::in_model() {
                model::op_point();
                model::condvar_notify(self.addr(), false);
            } else {
                self.inner.notify_one();
            }
        }

        pub fn notify_all(&self) {
            if model::in_model() {
                model::op_point();
                model::condvar_notify(self.addr(), true);
            } else {
                self.inner.notify_all();
            }
        }
    }

    impl Default for Condvar {
        fn default() -> Condvar {
            Condvar::new()
        }
    }

    impl std::fmt::Debug for Condvar {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.pad("Condvar { .. }")
        }
    }
}

#[cfg(test)]
mod tests {
    //! These run under *both* cfgs: in a `selc_model` build they
    //! exercise the facades' fall-through path (no model execution is
    //! live, so every op must behave exactly like `std`).
    use super::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use super::{Condvar, Mutex, PoisonError};

    #[test]
    fn atomics_behave_like_std_outside_a_model_run() {
        let n = AtomicUsize::new(3);
        assert_eq!(n.fetch_add(4, Ordering::Relaxed), 3); // ordering: plain test traffic, no cross-thread protocol
        assert_eq!(n.load(Ordering::Relaxed), 7); // ordering: plain test traffic
        assert_eq!(n.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v + 1)), Ok(7)); // ordering: plain test traffic
        let b = AtomicBool::new(false);
        b.store(true, Ordering::Release); // ordering: plain test traffic
        assert!(b.load(Ordering::Acquire)); // ordering: plain test traffic
        let w = AtomicU64::new(9);
        assert_eq!(w.fetch_min(5, Ordering::Relaxed), 9); // ordering: plain test traffic
        assert_eq!(w.load(Ordering::Relaxed), 5); // ordering: plain test traffic
    }

    #[test]
    fn mutex_and_condvar_fall_through_to_std() {
        let m = Mutex::new(1usize);
        *m.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        assert_eq!(*m.lock().unwrap_or_else(PoisonError::into_inner), 2);
        assert!(m.try_lock().is_ok());
        let cv = Condvar::new();
        cv.notify_all(); // no waiters: a no-op either way
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let (m, cv) = (&m, &cv);
            s.spawn(move || {
                let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);
                tx.send(()).expect("receiver alive");
                while *g != 3 {
                    g = cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
            });
            rx.recv().expect("waiter started");
            *m.lock().unwrap_or_else(PoisonError::into_inner) = 3;
            cv.notify_one();
        });
    }
}
