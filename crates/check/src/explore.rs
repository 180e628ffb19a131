//! The breadth-first explorer behind [`crate::reach`],
//! [`crate::prop_product`] and [`crate::refine`].
//!
//! Each of those checkers explores a finite abstract state graph: a state
//! is keyed by its packed canonical abstraction
//! ([`crate::abstract_state`]), and every state is expanded by every op of
//! the checker's universe. The explorer owns what they share — the
//! visited set, the parent pointers a counterexample path is rebuilt
//! from, the abort poll and edge counting — and drops each state's
//! concrete payload (machines, shadow map, monitors) once it has been
//! expanded, so peak memory follows the BFS frontier, not the graph. A
//! checker supplies only the state key, the per-op expansion, and the
//! check a newly discovered state must pass.
//!
//! An edge is allocation-light. The explorer keeps at most one recycled
//! successor: every op forks the expanded state into it with
//! `clone_from`, which reuses its buffers; the successor's key is written
//! into reused buffers and looked up by slice. A duplicate (most edges)
//! leaves the successor for the next op, and only a new state moves it
//! into the queue and copies its key into the visited set. Once a state's
//! ops are done it refills the slot if the slot is empty.

use std::collections::{HashMap, HashSet, VecDeque};

use wbsim_types::op::Op;

use crate::abstract_state::StateKey;

/// What one configuration's exploration covered.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Explored {
    /// Op sequences checked (`exhaustive` only).
    pub(crate) runs: u64,
    /// Distinct states discovered, the initial one included.
    pub(crate) states: u64,
    /// Transitions counted (see [`Edge`]).
    pub(crate) edges: u64,
    /// Strongly connected components of the drain graph (`reach` only).
    pub(crate) sccs: u64,
}

/// What one op did to the forked state.
pub(crate) enum Edge {
    /// The op completed and the fork is its successor state: an edge.
    To,
    /// The op wedged without a finding: an edge with nothing to expand.
    Wedged,
    /// Not an edge at all: neither counted nor expanded.
    Pruned,
}

/// What a checker keeps across the drain walks of one exploration: the
/// memoized verdicts `V` keyed by packed state, the walk's recycled state
/// `W`, and its key buffers.
pub(crate) struct DrainMemo<V, W> {
    pub(crate) verdicts: HashMap<Box<[u8]>, V>,
    pub(crate) walker: Option<W>,
    pub(crate) key: StateKey,
}

impl<V, W> Default for DrainMemo<V, W> {
    fn default() -> Self {
        DrainMemo {
            verdicts: HashMap::new(),
            walker: None,
            key: StateKey::default(),
        }
    }
}

/// Forks `src` into `slot` — with `clone_from`, reusing the buffers of
/// whatever `slot` already holds — and returns the fork.
pub(crate) fn fork<'a, T: Clone>(slot: &'a mut Option<T>, src: &T) -> &'a mut T {
    match slot {
        Some(t) => {
            t.clone_from(src);
            t
        }
        None => slot.insert(src.clone()),
    }
}

/// Explores from `root` to closure. `check_new` runs on `root` and on
/// every newly discovered state before it is queued. Every op of
/// `universe` runs from every queued state, in BFS order: `expand` gets a
/// fork of the state to run it on, and `key` writes the successor's key
/// into a cleared [`StateKey`]. A finding of `expand` or `check_new` comes
/// back with the op path that reaches it. `Ok(None)` means `abort` fired
/// (it is polled once per expanded state).
pub(crate) fn explore<N: Clone, F>(
    root: N,
    universe: &[Op],
    abort: &dyn Fn() -> bool,
    mut key: impl FnMut(&N, &mut StateKey),
    mut expand: impl FnMut(&mut N, Op) -> Result<Edge, F>,
    mut check_new: impl FnMut(&N) -> Result<(), F>,
) -> Result<Option<Explored>, (Vec<Op>, F)> {
    check_new(&root).map_err(|f| (Vec::new(), f))?;
    let mut k = StateKey::default();
    key(&root, &mut k);
    let mut visited: HashSet<Box<[u8]>> = HashSet::from([k.canonical().into()]);
    // The state and op each discovered state was first reached from.
    let mut parents: Vec<Option<(usize, Op)>> = vec![None];
    let mut queue = VecDeque::from([(0, root)]);
    let mut spare: Option<N> = None;
    let mut edges = 0;
    while let Some((idx, state)) = queue.pop_front() {
        if abort() {
            return Ok(None);
        }
        for &op in universe {
            let found = |f| (path_to(&parents, idx, op), f);
            let next = fork(&mut spare, &state);
            match expand(next, op).map_err(found)? {
                Edge::To => {}
                Edge::Wedged => {
                    edges += 1;
                    continue;
                }
                Edge::Pruned => continue,
            }
            edges += 1;
            k.clear();
            key(next, &mut k);
            if visited.contains(k.canonical()) {
                continue;
            }
            visited.insert(k.canonical().into());
            check_new(next).map_err(found)?;
            parents.push(Some((idx, op)));
            let next = spare.take().expect("the fork is in the slot");
            queue.push_back((parents.len() - 1, next));
        }
        if spare.is_none() {
            spare = Some(state);
        }
    }
    Ok(Some(Explored {
        states: parents.len() as u64,
        edges,
        ..Explored::default()
    }))
}

/// The op path from the root to state `idx`, extended by `last`.
fn path_to(parents: &[Option<(usize, Op)>], mut idx: usize, last: Op) -> Vec<Op> {
    let mut ops = vec![last];
    while let Some((parent, op)) = parents[idx] {
        ops.push(op);
        idx = parent;
    }
    ops.reverse();
    ops
}
