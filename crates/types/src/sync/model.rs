//! The controlled-scheduler runtime behind the `sched-model` feature.
//!
//! A model run executes a harness body on real OS threads but under a
//! single-token protocol: every operation the [`super`] shim routes here is a
//! *decision point* — the thread records what it is about to do in the
//! session's shared state, parks, and resumes only when the controller grants
//! it the token. The controller (the thread that called [`run_one`]) waits
//! until every unfinished thread is parked at a decision point, computes the
//! enabled set, asks the `decider` which thread to run, and grants exactly
//! one. The result is a deterministic, replayable serialization of the
//! execution — the raw material for the DFS explorer in `wbsim-check`.
//!
//! Modeling choices (documented here, pinned by `wbsim-check` tests):
//!
//! * Condvar waits are two-phase: `CvWait` releases the mutex and joins the
//!   waiter set; `CvResume` is enabled only once the thread has been notified
//!   *and* the mutex is free. Spurious wakeups are not modeled; `notify_one`
//!   deterministically wakes the lowest-id waiter.
//! * Atomics are sequentially consistent (the scheduler serializes every
//!   access); `Ordering` arguments are ignored.
//! * Object ids are assigned per session on first model-visible use, so they
//!   replay deterministically with the schedule.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// The kind of a shim operation, as observed by the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum OpKind {
    Start,
    Yield,
    MutexLock,
    MutexUnlock,
    CvWait,
    CvResume,
    CvNotifyOne,
    CvNotifyAll,
    AtomicLoad,
    AtomicStore,
    AtomicRmw,
    Spawn,
    JoinChildren,
}

// The tags of the JSONL schedule format.
crate::wire_names!(OpKind {
    Start => "start",
    Yield => "yield",
    MutexLock => "lock",
    MutexUnlock => "unlock",
    CvWait => "cv-wait",
    CvResume => "cv-resume",
    CvNotifyOne => "notify-one",
    CvNotifyAll => "notify-all",
    AtomicLoad => "atomic-load",
    AtomicStore => "atomic-store",
    AtomicRmw => "atomic-rmw",
    Spawn => "spawn",
    JoinChildren => "join",
});

/// A recorded operation: kind plus the session-scoped ids of the objects it
/// touches (`0` = none). `CvWait`/`CvResume` carry the condvar in `obj` and
/// the associated mutex in `obj2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpDesc {
    /// Operation kind.
    pub kind: OpKind,
    /// Primary object id (mutex, condvar, or atomic), or 0.
    pub obj: u64,
    /// Secondary object id (the mutex of a condvar op), or 0.
    pub obj2: u64,
}

impl OpDesc {
    fn simple(kind: OpKind, obj: u64, obj2: u64) -> OpDesc {
        OpDesc { kind, obj, obj2 }
    }
}

/// An invariant violation reported by a harness body.
#[derive(Clone, Debug)]
pub struct Violation {
    /// `true` for liveness-style invariants (a job never reached a terminal
    /// state), `false` for safety (duplicate execution, counter imbalance).
    pub liveness: bool,
    /// Human-readable description.
    pub message: String,
}

/// One granted decision point in an execution.
#[derive(Clone, Debug)]
pub struct ExecStep {
    /// Thread that was granted the token.
    pub thread: usize,
    /// The operation it performed.
    pub op: OpDesc,
    /// The full enabled set at this state (sorted by thread id), for
    /// backtracking in the explorer.
    pub enabled: Vec<(usize, OpDesc)>,
}

/// How an execution ended.
#[derive(Clone, Debug)]
pub enum ExecOutcome {
    /// Every thread finished; `violations` is what the harness body reported.
    Completed {
        /// Invariant violations found by the harness' end-state checks.
        violations: Vec<Violation>,
    },
    /// No unfinished thread had an enabled operation.
    Deadlock {
        /// The blocked threads and the operations they were parked on.
        blocked: Vec<(usize, OpDesc)>,
        /// `true` if any blocked thread was waiting for a condvar
        /// notification that can no longer arrive (a lost wakeup).
        any_condvar: bool,
    },
    /// A model thread panicked (not a scheduler abort).
    Panicked {
        /// Thread id of the panicking thread.
        thread: usize,
        /// The panic message, if it was a string payload.
        message: String,
    },
    /// The per-execution step budget was exhausted (runaway schedule).
    StepLimit,
}

/// A fully recorded execution of one schedule.
#[derive(Clone, Debug)]
pub struct Execution {
    /// The granted decision points, in order.
    pub steps: Vec<ExecStep>,
    /// Terminal classification.
    pub outcome: ExecOutcome,
    /// Total number of threads that participated.
    pub threads: usize,
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

struct Pending {
    desc: OpDesc,
    /// Child tids, only for `JoinChildren`.
    children: Vec<usize>,
}

struct ThreadState {
    pending: Option<Pending>,
    granted: bool,
    finished: bool,
    panic_msg: Option<String>,
}

impl ThreadState {
    fn new() -> ThreadState {
        ThreadState {
            pending: None,
            granted: false,
            finished: false,
            panic_msg: None,
        }
    }
}

struct SessState {
    threads: Vec<ThreadState>,
    mutex_held: HashMap<u64, usize>,
    cv_waiters: BTreeMap<u64, BTreeSet<usize>>,
    notified: BTreeSet<usize>,
    /// Spawns granted whose child thread has not yet checked in.
    expected_registrations: usize,
    aborting: bool,
    next_obj: u64,
    violations: Vec<Violation>,
}

/// A model-checking session: shared scheduler state for one execution.
pub struct Session {
    state: StdMutex<SessState>,
    cv: StdCondvar,
}

impl Session {
    fn new() -> Session {
        Session {
            state: StdMutex::new(SessState {
                threads: Vec::new(),
                mutex_held: HashMap::new(),
                cv_waiters: BTreeMap::new(),
                notified: BTreeSet::new(),
                expected_registrations: 0,
                aborting: false,
                next_obj: 0,
                violations: Vec::new(),
            }),
            cv: StdCondvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SessState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Per-thread registration with a session.
#[derive(Clone)]
pub struct Ctx {
    pub(super) session: Arc<Session>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The current thread's session registration, if it is a model thread.
pub(super) fn current() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Panic payload used to tear down parked model threads on abort.
struct SchedAbort;

fn install_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SchedAbort>().is_some() {
                return; // scheduler teardown, not an error
            }
            prev(info);
        }));
    });
}

// ---------------------------------------------------------------------------
// Decision points
// ---------------------------------------------------------------------------

fn is_enabled(st: &SessState, tid: usize, p: &Pending) -> bool {
    match p.desc.kind {
        OpKind::MutexLock => !st.mutex_held.contains_key(&p.desc.obj),
        OpKind::CvResume => st.notified.contains(&tid) && !st.mutex_held.contains_key(&p.desc.obj2),
        OpKind::JoinChildren => p.children.iter().all(|&c| st.threads[c].finished),
        _ => true,
    }
}

fn apply_effect(st: &mut SessState, tid: usize, p: &Pending) -> Option<usize> {
    match p.desc.kind {
        OpKind::MutexLock => {
            st.mutex_held.insert(p.desc.obj, tid);
        }
        OpKind::MutexUnlock => {
            st.mutex_held.remove(&p.desc.obj);
        }
        OpKind::CvWait => {
            st.mutex_held.remove(&p.desc.obj2);
            st.cv_waiters.entry(p.desc.obj).or_default().insert(tid);
        }
        OpKind::CvResume => {
            st.notified.remove(&tid);
            st.mutex_held.insert(p.desc.obj2, tid);
        }
        OpKind::CvNotifyOne => {
            if let Some(w) = st.cv_waiters.get_mut(&p.desc.obj) {
                if let Some(&t) = w.iter().next() {
                    w.remove(&t);
                    st.notified.insert(t);
                }
            }
        }
        OpKind::CvNotifyAll => {
            if let Some(w) = st.cv_waiters.get_mut(&p.desc.obj) {
                let woken: Vec<usize> = std::mem::take(w).into_iter().collect();
                st.notified.extend(woken);
            }
        }
        OpKind::Spawn => {
            let child = st.threads.len();
            st.threads.push(ThreadState::new());
            st.expected_registrations += 1;
            return Some(child);
        }
        _ => {}
    }
    None
}

/// Announce `p`, park until granted, apply its state effect, and return the
/// spawned child tid for `Spawn` ops.
fn decision_point(ctx: &Ctx, p: Pending) -> Option<usize> {
    let sess = &*ctx.session;
    let mut st = sess.lock();
    if st.aborting {
        drop(st);
        std::panic::panic_any(SchedAbort);
    }
    st.threads[ctx.tid].pending = Some(p);
    sess.cv.notify_all();
    loop {
        if st.aborting {
            drop(st);
            std::panic::panic_any(SchedAbort);
        }
        if st.threads[ctx.tid].granted {
            break;
        }
        st = sess.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    st.threads[ctx.tid].granted = false;
    let p = st.threads[ctx.tid]
        .pending
        .take()
        .expect("granted thread lost its pending op");
    apply_effect(&mut st, ctx.tid, &p)
}

fn simple(kind: OpKind, obj: u64, obj2: u64) -> Pending {
    Pending {
        desc: OpDesc::simple(kind, obj, obj2),
        children: Vec::new(),
    }
}

/// Session-scoped object-id assignment (see module docs).
pub(super) fn obj_id(slot: &AtomicU64, ctx: &Ctx) -> u64 {
    let id = slot.load(Ordering::Relaxed);
    if id != 0 {
        return id;
    }
    let mut st = ctx.session.lock();
    let id = slot.load(Ordering::Relaxed);
    if id != 0 {
        return id;
    }
    st.next_obj += 1;
    slot.store(st.next_obj, Ordering::Relaxed);
    st.next_obj
}

pub(super) fn mutex_lock<'a, T>(m: &'a super::Mutex<T>, ctx: &Ctx) -> super::MutexGuard<'a, T> {
    let obj = m.obj_id(ctx);
    decision_point(ctx, simple(OpKind::MutexLock, obj, 0));
    super::MutexGuard {
        lock: m,
        inner: Some(m.raw_lock()),
    }
}

pub(super) fn mutex_unlock<T>(m: &super::Mutex<T>, ctx: &Ctx) {
    let obj = m.obj_id(ctx);
    decision_point(ctx, simple(OpKind::MutexUnlock, obj, 0));
}

pub(super) fn condvar_wait<'a, T>(
    cv: &super::Condvar,
    mut guard: super::MutexGuard<'a, T>,
    ctx: &Ctx,
) -> super::MutexGuard<'a, T> {
    let lock = guard.lock;
    let cv_obj = cv.obj_id(ctx);
    let m_obj = lock.obj_id(ctx);
    // Phase 1: leave the mutex and join the waiter set...
    decision_point(ctx, simple(OpKind::CvWait, cv_obj, m_obj));
    drop(guard.inner.take()); // ...actually releasing it (guard is defused)
    drop(guard);
    // Phase 2: resume once notified and the mutex is free again.
    decision_point(ctx, simple(OpKind::CvResume, cv_obj, m_obj));
    super::MutexGuard {
        lock,
        inner: Some(lock.raw_lock()),
    }
}

pub(super) fn condvar_notify(cv: &super::Condvar, ctx: &Ctx, all: bool) {
    let obj = cv.obj_id(ctx);
    let kind = if all {
        OpKind::CvNotifyAll
    } else {
        OpKind::CvNotifyOne
    };
    decision_point(ctx, simple(kind, obj, 0));
}

pub(super) fn atomic_point(slot: &AtomicU64, ctx: &Ctx, kind: OpKind) {
    let obj = obj_id(slot, ctx);
    decision_point(ctx, simple(kind, obj, 0));
}

pub(super) fn yield_now(ctx: &Ctx) {
    decision_point(ctx, simple(OpKind::Yield, 0, 0));
}

pub(super) fn spawn_point(ctx: &Ctx) -> usize {
    decision_point(ctx, simple(OpKind::Spawn, 0, 0)).expect("spawn effect yields a tid")
}

pub(super) fn join_children(ctx: &Ctx, children: Vec<usize>) {
    if children.is_empty() {
        return;
    }
    decision_point(
        ctx,
        Pending {
            desc: OpDesc::simple(OpKind::JoinChildren, 0, 0),
            children,
        },
    );
}

fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn finish_thread(session: &Session, tid: usize, payload: Option<Box<dyn Any + Send>>) {
    let mut st = session.lock();
    let ts = &mut st.threads[tid];
    ts.finished = true;
    ts.pending = None;
    if let Some(p) = payload {
        if p.downcast_ref::<SchedAbort>().is_none() {
            ts.panic_msg = Some(panic_message(p.as_ref()));
        }
    }
    session.cv.notify_all();
}

/// Entry point for spawned model threads: check in, announce `Start`, run.
pub(super) fn run_child<F: FnOnce()>(session: Arc<Session>, tid: usize, f: F) {
    {
        let mut st = session.lock();
        st.expected_registrations -= 1;
        session.cv.notify_all();
    }
    let ctx = Ctx {
        session: session.clone(),
        tid,
    };
    CTX.with(|c| *c.borrow_mut() = Some(ctx.clone()));
    let result = catch_unwind(AssertUnwindSafe(|| {
        decision_point(&ctx, simple(OpKind::Start, 0, 0));
        f();
    }));
    CTX.with(|c| *c.borrow_mut() = None);
    finish_thread(&session, tid, result.err());
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

/// Scheduling policy: given the step index and the enabled `(thread, op)`
/// set (sorted by thread id), returns the thread id to grant next.
pub type Decider<'a> = dyn FnMut(usize, &[(usize, OpDesc)]) -> usize + 'a;

fn controller(
    session: &Session,
    decider: &mut Decider<'_>,
    max_steps: usize,
    steps: &mut Vec<ExecStep>,
) -> ExecOutcome {
    let mut st = session.lock();
    loop {
        // Wait for quiescence: every unfinished thread parked at a decision
        // point and every granted spawn checked in.
        loop {
            if let Some((tid, msg)) = st
                .threads
                .iter()
                .enumerate()
                .find_map(|(i, t)| t.panic_msg.clone().map(|m| (i, m)))
            {
                st.aborting = true;
                session.cv.notify_all();
                return ExecOutcome::Panicked {
                    thread: tid,
                    message: msg,
                };
            }
            if st.threads.iter().all(|t| t.finished) {
                return ExecOutcome::Completed {
                    violations: std::mem::take(&mut st.violations),
                };
            }
            // A granted thread still owns the token (its pending op lingers
            // until it wakes and consumes it), so it does not count as
            // parked.
            let quiescent = st.expected_registrations == 0
                && st
                    .threads
                    .iter()
                    .all(|t| t.finished || (t.pending.is_some() && !t.granted));
            if quiescent {
                break;
            }
            st = session.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }

        let mut enabled = Vec::new();
        for i in 0..st.threads.len() {
            if st.threads[i].finished {
                continue;
            }
            if let Some(p) = &st.threads[i].pending {
                if is_enabled(&st, i, p) {
                    enabled.push((i, p.desc));
                }
            }
        }
        if enabled.is_empty() {
            let mut blocked = Vec::new();
            for i in 0..st.threads.len() {
                if !st.threads[i].finished {
                    if let Some(p) = &st.threads[i].pending {
                        blocked.push((i, p.desc));
                    }
                }
            }
            let any_condvar = blocked
                .iter()
                .any(|(i, d)| d.kind == OpKind::CvResume && !st.notified.contains(i));
            st.aborting = true;
            session.cv.notify_all();
            return ExecOutcome::Deadlock {
                blocked,
                any_condvar,
            };
        }
        if steps.len() >= max_steps {
            st.aborting = true;
            session.cv.notify_all();
            return ExecOutcome::StepLimit;
        }

        let wanted = decider(steps.len(), &enabled);
        let choice = if enabled.iter().any(|(t, _)| *t == wanted) {
            wanted
        } else {
            enabled[0].0
        };
        let op = st.threads[choice]
            .pending
            .as_ref()
            .expect("enabled thread has a pending op")
            .desc;
        steps.push(ExecStep {
            thread: choice,
            op,
            enabled,
        });
        st.threads[choice].granted = true;
        session.cv.notify_all();
    }
}

/// Run `body` as thread 0 of a fresh session, letting `decider` pick the
/// granted thread at every decision point. Returns the recorded execution.
///
/// `decider` receives the step index and the enabled `(thread, op)` set
/// (sorted by thread id) and must return one of the enabled thread ids
/// (out-of-set answers fall back to the lowest enabled id). `max_steps`
/// bounds a single execution; exceeding it yields [`ExecOutcome::StepLimit`].
pub fn run_one<'a>(
    body: Box<dyn FnOnce() -> Vec<Violation> + Send + 'a>,
    decider: &mut Decider<'_>,
    max_steps: usize,
) -> Execution {
    install_hook();
    let session = Arc::new(Session::new());
    session.lock().threads.push(ThreadState::new());
    let mut steps = Vec::new();
    let outcome = std::thread::scope(|s| {
        let sess = session.clone();
        s.spawn(move || {
            let ctx = Ctx {
                session: sess.clone(),
                tid: 0,
            };
            CTX.with(|c| *c.borrow_mut() = Some(ctx.clone()));
            let result = catch_unwind(AssertUnwindSafe(|| {
                decision_point(&ctx, simple(OpKind::Start, 0, 0));
                body()
            }));
            CTX.with(|c| *c.borrow_mut() = None);
            match result {
                Ok(violations) => {
                    sess.lock().violations = violations;
                    finish_thread(&sess, 0, None);
                }
                Err(payload) => finish_thread(&sess, 0, Some(payload)),
            }
        });
        controller(&session, decider, max_steps, &mut steps)
    });
    let threads = session.lock().threads.len();
    Execution {
        steps,
        outcome,
        threads,
    }
}
