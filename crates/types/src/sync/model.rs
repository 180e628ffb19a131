//! The controlled-scheduler runtime behind the `sched-model` feature.
//!
//! A model run executes a harness body on real OS threads but under a
//! single-token protocol: every operation the [`super`] shim routes here is a
//! *decision point* — the thread records what it is about to do in the
//! session's shared state and proceeds only once it holds the token. There
//! is no controller thread. Whichever event makes the session *quiescent*
//! (every unfinished thread parked at a decision point) runs the decision
//! step on the spot: a thread parking, or a thread finishing. The step
//! computes the enabled set, picks one thread by the session's policy
//! (follow the prefix, then stay on the last granted thread, else the lowest
//! enabled id), and grants it. A thread that grants itself continues
//! without parking; any other grantee is woken alone (`unpark`), and only
//! an abort wakes every thread. The result is a deterministic, replayable
//! serialization of the execution — the raw material for the DFS explorer
//! in `wbsim-check`.
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
use std::sync::{Arc, Mutex as StdMutex, MutexGuard};
use std::thread::Thread;

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
    /// The OS thread to wake on a grant or an abort; set when it checks in.
    handle: Option<Thread>,
}

impl ThreadState {
    /// A thread about to run: its `Start` is announced from the moment it
    /// exists, so no decision waits for its OS thread to check in.
    fn starting() -> ThreadState {
        ThreadState {
            pending: Some(simple(OpKind::Start, 0, 0)),
            granted: false,
            finished: false,
            panic_msg: None,
            handle: None,
        }
    }
}

struct SessState {
    threads: Vec<ThreadState>,
    mutex_held: HashMap<u64, usize>,
    cv_waiters: BTreeMap<u64, BTreeSet<usize>>,
    notified: BTreeSet<usize>,
    next_obj: u64,
    violations: Vec<Violation>,
    /// The choices to follow before the default policy takes over.
    prefix: Vec<usize>,
    /// The thread granted at the previous step.
    last: Option<usize>,
    max_steps: usize,
    steps: Vec<ExecStep>,
    /// Set by the step that ends the execution. A thread that finds it set
    /// while parked unwinds: every thread has finished by the time a
    /// `Completed` outcome is set, so only an abort is ever seen.
    outcome: Option<ExecOutcome>,
}

/// A model-checking session: shared scheduler state for one execution.
pub struct Session {
    state: StdMutex<SessState>,
}

impl Session {
    fn new(prefix: &[usize], max_steps: usize) -> Session {
        Session {
            state: StdMutex::new(SessState {
                threads: vec![ThreadState::starting()],
                mutex_held: HashMap::new(),
                cv_waiters: BTreeMap::new(),
                notified: BTreeSet::new(),
                next_obj: 0,
                violations: Vec::new(),
                prefix: prefix.to_vec(),
                last: None,
                max_steps,
                steps: Vec::new(),
                outcome: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SessState> {
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
// The decision step
// ---------------------------------------------------------------------------

fn is_enabled(st: &SessState, tid: usize, p: &Pending) -> bool {
    match p.desc.kind {
        OpKind::MutexLock => !st.mutex_held.contains_key(&p.desc.obj),
        OpKind::CvResume => st.notified.contains(&tid) && !st.mutex_held.contains_key(&p.desc.obj2),
        OpKind::JoinChildren => p.children.iter().all(|&c| st.threads[c].finished),
        _ => true,
    }
}

/// Ends the execution with a verdict that tears it down: every thread
/// still parked wakes and unwinds with [`SchedAbort`].
fn abort(st: &mut SessState, outcome: ExecOutcome) {
    st.outcome = Some(outcome);
    for t in &st.threads {
        if let Some(h) = &t.handle {
            h.unpark();
        }
    }
}

/// The decision step, run by thread `me` after it parked or finished. It
/// does nothing unless the session is quiescent: every unfinished thread
/// parked at a decision point. (A granted thread still owns the token, its
/// pending op lingering until it wakes and consumes it, so it does not
/// count as parked.) Then it checks for a panic, for every thread
/// finished, for a deadlock and for the step budget, in that order, and
/// otherwise grants one enabled thread, waking it unless it is `me`.
fn settle(st: &mut SessState, me: usize) {
    if st.outcome.is_some()
        || !st
            .threads
            .iter()
            .all(|t| t.finished || (t.pending.is_some() && !t.granted))
    {
        return;
    }
    if let Some((thread, message)) = st
        .threads
        .iter()
        .enumerate()
        .find_map(|(i, t)| t.panic_msg.clone().map(|m| (i, m)))
    {
        return abort(st, ExecOutcome::Panicked { thread, message });
    }
    if st.threads.iter().all(|t| t.finished) {
        let violations = std::mem::take(&mut st.violations);
        st.outcome = Some(ExecOutcome::Completed { violations });
        return;
    }

    let mut enabled = Vec::new();
    for (i, t) in st.threads.iter().enumerate() {
        if let Some(p) = t.pending.as_ref().filter(|_| !t.finished) {
            if is_enabled(st, i, p) {
                enabled.push((i, p.desc));
            }
        }
    }
    if enabled.is_empty() {
        let blocked: Vec<(usize, OpDesc)> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.finished)
            .filter_map(|(i, t)| t.pending.as_ref().map(|p| (i, p.desc)))
            .collect();
        let any_condvar = blocked
            .iter()
            .any(|(i, d)| d.kind == OpKind::CvResume && !st.notified.contains(i));
        return abort(
            st,
            ExecOutcome::Deadlock {
                blocked,
                any_condvar,
            },
        );
    }
    if st.steps.len() >= st.max_steps {
        return abort(st, ExecOutcome::StepLimit);
    }

    // The policy: follow the prefix, then stay on the last granted thread,
    // else the lowest enabled id (a choice that never adds a preemption).
    let i = st.steps.len();
    let wanted = st.prefix.get(i).copied().or(st.last);
    let choice = match wanted {
        Some(w) if enabled.iter().any(|(t, _)| *t == w) => w,
        _ => enabled[0].0,
    };
    st.last = Some(choice);
    let op = st.threads[choice]
        .pending
        .as_ref()
        .expect("enabled thread has a pending op")
        .desc;
    st.steps.push(ExecStep {
        thread: choice,
        op,
        enabled,
    });
    let granted = &mut st.threads[choice];
    granted.granted = true;
    if choice != me {
        if let Some(h) = &granted.handle {
            h.unpark();
        }
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
            st.threads.push(ThreadState::starting());
            return Some(child);
        }
        _ => {}
    }
    None
}

// ---------------------------------------------------------------------------
// Decision points
// ---------------------------------------------------------------------------

/// Announce `p`, park until granted, apply its state effect, and return
/// the spawned child tid for `Spawn` ops.
fn decision_point(ctx: &Ctx, p: Pending) -> Option<usize> {
    let mut st = ctx.session.lock();
    st.threads[ctx.tid].pending = Some(p);
    park_until_granted(ctx, st)
}

/// A thread's first act: record the OS thread to wake, then park at the
/// `Start` announced when it was spawned.
fn check_in(ctx: &Ctx) {
    let mut st = ctx.session.lock();
    st.threads[ctx.tid].handle = Some(std::thread::current());
    park_until_granted(ctx, st);
}

/// Run the decision step (a no-op unless this thread made the session
/// quiescent), park until granted, then take the pending op and apply its
/// effect.
fn park_until_granted<'a>(ctx: &'a Ctx, mut st: MutexGuard<'a, SessState>) -> Option<usize> {
    settle(&mut st, ctx.tid);
    loop {
        if st.outcome.is_some() {
            drop(st);
            std::panic::panic_any(SchedAbort);
        }
        if st.threads[ctx.tid].granted {
            break;
        }
        drop(st);
        std::thread::park();
        st = ctx.session.lock();
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
    settle(&mut st, tid);
}

/// Runs `f` as model thread `tid` on the current OS thread: check in,
/// then run. Returns `f`'s value; if `f` unwinds (a real panic,
/// or [`SchedAbort`] on teardown), finishes the thread and returns `None`.
fn run_as<T>(session: &Arc<Session>, tid: usize, f: impl FnOnce() -> T) -> Option<T> {
    let ctx = Ctx {
        session: session.clone(),
        tid,
    };
    let outer = CTX.with(|c| c.replace(Some(ctx.clone())));
    let result = catch_unwind(AssertUnwindSafe(|| {
        check_in(&ctx);
        f()
    }));
    CTX.with(|c| *c.borrow_mut() = outer);
    match result {
        Ok(v) => Some(v),
        Err(payload) => {
            finish_thread(session, tid, Some(payload));
            None
        }
    }
}

/// Entry point for spawned model threads.
pub(super) fn run_child<F: FnOnce()>(session: Arc<Session>, tid: usize, f: F) {
    if run_as(&session, tid, f).is_some() {
        finish_thread(&session, tid, None);
    }
}

/// Run `body` as thread 0 of a fresh session, on the calling thread, and
/// return the recorded execution. The schedule follows `prefix` (one
/// thread id per decision point), then the default policy: stay on the
/// last granted thread while it is enabled, else the lowest enabled id.
/// A prefix entry that is not enabled falls back the same way.
/// `max_steps` bounds a single execution; exceeding it yields
/// [`ExecOutcome::StepLimit`].
pub fn run_one<'a>(
    body: Box<dyn FnOnce() -> Vec<Violation> + Send + 'a>,
    prefix: &[usize],
    max_steps: usize,
) -> Execution {
    install_hook();
    let session = Arc::new(Session::new(prefix, max_steps));
    if let Some(violations) = run_as(&session, 0, body) {
        session.lock().violations = violations;
        finish_thread(&session, 0, None);
    }
    // Thread 0 finishes last: every other thread was spawned in one of its
    // scopes, which joined it. So its finish, or the abort it unwound
    // from, has ended the execution.
    let mut st = session.lock();
    Execution {
        steps: std::mem::take(&mut st.steps),
        outcome: st.outcome.take().expect("thread 0 finished the execution"),
        threads: st.threads.len(),
    }
}
