//! Synchronization shim: `std::sync` in production, a controlled scheduler
//! under the `wbsim-sched` model checker.
//!
//! Concurrent kernels in the workspace (the `wbsim serve` daemon, the
//! content-addressed job [`Store`](../cachekey/index.html), the
//! `run_indexed_earliest` worker pool) import their primitives from this
//! module instead of `std::sync`:
//!
//! * [`Mutex`] / [`MutexGuard`] — poison-free mutual exclusion;
//! * [`Condvar`] — condition variables with [`Condvar::wait`],
//!   [`Condvar::notify_one`], [`Condvar::notify_all`];
//! * [`atomic`] — `AtomicBool` / `AtomicU64` / `AtomicUsize` wrappers;
//! * [`scope`] / [`Scope`] — structured thread spawning;
//! * [`yield_point`] — an explicit scheduling point (a no-op in production).
//!
//! Without the `sched-model` cargo feature every call delegates directly to
//! `std::sync` (locks additionally ignore poisoning, so a panicking worker
//! cannot wedge its siblings). With the feature enabled, each operation first
//! checks a thread-local: if the current thread is registered with a
//! [`model::Session`], the operation becomes a *decision point* — the thread
//! announces what it is about to do and only proceeds once the session's
//! scheduler grants it the single run token. The scheduler thereby observes
//! and sequences every lock acquire/release, atomic access, condvar
//! wait/notify, spawn, and join, which is what lets the DFS explorer in
//! `wbsim-check` enumerate interleavings deterministically.
//!
//! Threads that are *not* registered with a session (i.e. all production
//! traffic, even in a feature-enabled build) take the fast path: one
//! thread-local read, then straight to `std::sync`.

/// Memory-ordering re-export so ported code keeps its `Ordering::SeqCst`
/// spellings. Under the model every access is globally sequenced by the
/// scheduler, so the ordering argument is accepted and ignored there.
pub use std::sync::atomic::Ordering;

#[cfg(feature = "sched-model")]
pub mod model;

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock. Ignores poisoning: if a holder panicked, the next
/// [`Mutex::lock`] call receives the data as-is instead of panicking too.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    #[cfg(feature = "sched-model")]
    obj: std::sync::atomic::AtomicU64,
}

impl<T> Mutex<T> {
    /// Creates a new lock around `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
            #[cfg(feature = "sched-model")]
            obj: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "sched-model")]
        if let Some(ctx) = model::current() {
            return model::mutex_lock(self, &ctx);
        }
        MutexGuard {
            lock: self,
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    #[cfg(feature = "sched-model")]
    fn raw_lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Session-scoped object id, assigned on first model-visible use so that
    /// id assignment replays deterministically with the schedule.
    #[cfg(feature = "sched-model")]
    fn obj_id(&self, ctx: &model::Ctx) -> u64 {
        model::obj_id(&self.obj, ctx)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").field("inner", &self.inner).finish()
    }
}

/// RAII guard returned by [`Mutex::lock`]; releases the lock on drop. Under
/// the model, the release itself is a decision point.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    /// `None` only transiently inside [`Condvar::wait`] (the guard is defused
    /// so its `Drop` does not double-release) and during drop itself.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already released")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard already released")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "sched-model")]
        if self.inner.is_some() && !std::thread::panicking() {
            if let Some(ctx) = model::current() {
                model::mutex_unlock(self.lock, &ctx);
                // Fall through: the take()/drop below performs the release.
            }
        }
        drop(self.inner.take());
        let _ = &self.lock;
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable. Semantics match `std::sync::Condvar`, minus spurious
/// wakeups under the model (callers must still use the standard
/// check-in-a-loop idiom; the model's coverage of notify interleavings is what
/// detects lost-wakeup bugs).
pub struct Condvar {
    inner: std::sync::Condvar,
    #[cfg(feature = "sched-model")]
    obj: std::sync::atomic::AtomicU64,
}

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            #[cfg(feature = "sched-model")]
            obj: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Atomically releases `guard`'s mutex and parks until notified, then
    /// re-acquires the mutex and returns a fresh guard.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(feature = "sched-model")]
        if let Some(ctx) = model::current() {
            return model::condvar_wait(self, guard, &ctx);
        }
        let lock = guard.lock;
        let mut guard = guard;
        let std_guard = guard.inner.take().expect("guard already released");
        let std_guard = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(|e| e.into_inner());
        MutexGuard {
            lock,
            inner: Some(std_guard),
        }
    }

    /// Wakes one waiter, if any.
    pub fn notify_one(&self) {
        #[cfg(feature = "sched-model")]
        if let Some(ctx) = model::current() {
            model::condvar_notify(self, &ctx, false);
            return;
        }
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        #[cfg(feature = "sched-model")]
        if let Some(ctx) = model::current() {
            model::condvar_notify(self, &ctx, true);
            return;
        }
        self.inner.notify_all();
    }

    #[cfg(feature = "sched-model")]
    fn obj_id(&self, ctx: &model::Ctx) -> u64 {
        model::obj_id(&self.obj, ctx)
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar")
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Atomic integer/bool wrappers. Each access is a decision point under the
/// model; orderings are accepted for source compatibility and ignored there
/// (the scheduler serializes every access, i.e. `SeqCst` semantics).
pub mod atomic {
    use super::Ordering;

    macro_rules! shim_atomic {
        ($name:ident, $std:ty, $prim:ty, [$($rmw:ident),*]) => {
            /// Shimmed atomic; see [module docs](self).
            pub struct $name {
                inner: $std,
                #[cfg(feature = "sched-model")]
                obj: std::sync::atomic::AtomicU64,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub const fn new(v: $prim) -> Self {
                    $name {
                        inner: <$std>::new(v),
                        #[cfg(feature = "sched-model")]
                        obj: std::sync::atomic::AtomicU64::new(0),
                    }
                }

                /// Loads the current value.
                pub fn load(&self, order: Ordering) -> $prim {
                    #[cfg(feature = "sched-model")]
                    if let Some(ctx) = super::model::current() {
                        super::model::atomic_point(&self.obj, &ctx, super::model::OpKind::AtomicLoad);
                    }
                    self.inner.load(order)
                }

                /// Stores a new value.
                pub fn store(&self, v: $prim, order: Ordering) {
                    #[cfg(feature = "sched-model")]
                    if let Some(ctx) = super::model::current() {
                        super::model::atomic_point(&self.obj, &ctx, super::model::OpKind::AtomicStore);
                    }
                    self.inner.store(v, order)
                }

                $(
                    /// Read-modify-write; returns the previous value.
                    pub fn $rmw(&self, v: $prim, order: Ordering) -> $prim {
                        #[cfg(feature = "sched-model")]
                        if let Some(ctx) = super::model::current() {
                            super::model::atomic_point(&self.obj, &ctx, super::model::OpKind::AtomicRmw);
                        }
                        self.inner.$rmw(v, order)
                    }
                )*
            }

            impl Default for $name {
                fn default() -> Self {
                    $name::new(Default::default())
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    std::fmt::Debug::fmt(&self.inner, f)
                }
            }
        };
    }

    shim_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool, []);
    shim_atomic!(
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64,
        [fetch_add, fetch_min]
    );
    shim_atomic!(
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize,
        [fetch_add, fetch_min]
    );
}

// ---------------------------------------------------------------------------
// yield_point
// ---------------------------------------------------------------------------

/// An explicit scheduling point. A no-op in production; under the model it
/// gives the scheduler a chance to preempt the current thread between two
/// otherwise-invisible operations.
pub fn yield_point() {
    #[cfg(feature = "sched-model")]
    if let Some(ctx) = model::current() {
        model::yield_now(&ctx);
    }
}

// ---------------------------------------------------------------------------
// Scoped threads
// ---------------------------------------------------------------------------

/// A scope handle for spawning borrowing threads; see [`scope`].
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    #[cfg(feature = "sched-model")]
    children: std::sync::Mutex<Vec<usize>>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a thread scoped to this scope. The join handle is intentionally
    /// not returned: scope exit joins every child, which is the only join
    /// point the workspace's kernels use.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        #[cfg(feature = "sched-model")]
        if let Some(ctx) = model::current() {
            let tid = model::spawn_point(&ctx);
            self.children
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(tid);
            let session = ctx.session.clone();
            self.inner.spawn(move || model::run_child(session, tid, f));
            return;
        }
        self.inner.spawn(f);
    }
}

/// Structured concurrency: like `std::thread::scope`, all threads spawned via
/// the provided [`Scope`] are joined before `scope` returns. Under the model
/// the implicit join is itself a decision point (enabled once every child has
/// finished), so the scheduler never deadlocks against a hidden OS-level join.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|s| {
        let wrapper = Scope {
            inner: s,
            #[cfg(feature = "sched-model")]
            children: std::sync::Mutex::new(Vec::new()),
        };
        #[cfg(feature = "sched-model")]
        if let Some(ctx) = model::current() {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&wrapper)));
            let children = wrapper
                .children
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            match out {
                Ok(v) => {
                    model::join_children(&ctx, children);
                    return v;
                }
                Err(payload) => {
                    // Unwinding: skip the join decision point. A real
                    // panic ends the execution here, before the unwind
                    // reaches the OS-level join: a child parked at a
                    // decision point would otherwise wait for a grant no
                    // thread is left to make. On a scheduler abort the
                    // session is already tearing the execution down.
                    model::abort_on_panic(&ctx, payload.as_ref());
                    std::panic::resume_unwind(payload);
                }
            }
        }
        f(&wrapper)
    })
}

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    use super::{scope, yield_point, Condvar, Mutex, Ordering};

    #[test]
    fn mutex_guards_deref_and_release() {
        let m = Mutex::new(vec![1, 2]);
        {
            let mut g = m.lock();
            g.push(3);
        }
        assert_eq!(m.lock().len(), 3);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn atomics_cover_the_ported_op_set() {
        let b = AtomicBool::new(false);
        b.store(true, Ordering::SeqCst);
        assert!(b.load(Ordering::SeqCst));
        let u = AtomicU64::new(10);
        assert_eq!(u.fetch_add(5, Ordering::SeqCst), 10);
        assert_eq!(u.fetch_min(7, Ordering::SeqCst), 15);
        assert_eq!(u.load(Ordering::SeqCst), 7);
        let z = AtomicUsize::new(100);
        z.store(3, Ordering::SeqCst);
        assert_eq!(z.fetch_min(9, Ordering::SeqCst), 3);
    }

    #[test]
    fn scope_joins_spawned_threads_and_condvar_handshakes() {
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        let total = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|| {
                let mut g = m.lock();
                while *g == 0 {
                    g = cv.wait(g);
                }
                total.fetch_add(*g as usize, Ordering::SeqCst);
            });
            s.spawn(|| {
                yield_point();
                *m.lock() = 42;
                cv.notify_all();
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn poisoned_mutex_is_recovered_not_propagated() {
        let m = Mutex::new(1u8);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("worker died holding the lock");
        }));
        assert!(res.is_err());
        assert_eq!(*m.lock(), 1);
    }
}
