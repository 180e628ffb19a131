//! The breadth-first explorer behind [`crate::reach`],
//! [`crate::prop_product`] and [`crate::refine`].
//!
//! Each of those checkers explores a finite abstract state graph: a state
//! is keyed by a canonical abstraction, and every state is expanded by
//! every op of the checker's universe. The explorer owns what they share —
//! the visited set, the parent pointers a counterexample path is rebuilt
//! from, the abort poll and edge counting — and drops each state's
//! concrete payload (machines, shadow map, monitors) once it has been
//! expanded, so peak memory follows the BFS frontier, not the graph. A
//! checker supplies only the state key, the per-op expansion, and the
//! check a newly discovered state must pass.

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

use wbsim_types::op::Op;

/// What one configuration's exploration covered.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Explored {
    /// Distinct states discovered, the initial one included.
    pub(crate) states: u64,
    /// Transitions counted (see [`Edge`]).
    pub(crate) edges: u64,
    /// Strongly connected components of the drain graph (`reach` only).
    pub(crate) sccs: u64,
}

/// What one op does from an expanded state.
pub(crate) enum Edge<N> {
    /// The op completed into a successor state: an edge.
    To(N),
    /// The op wedged without a finding: an edge with nothing to expand.
    Wedged,
    /// Not an edge at all: neither counted nor expanded.
    Pruned,
}

/// Explores from `root` to closure. `check_new` runs on `root` and on
/// every newly discovered state before it is queued; `expand` runs every
/// op of `universe` from every queued state, in BFS order. A finding of
/// either comes back with the op path that reaches it. `Ok(None)` means
/// `abort` fired (it is polled once per expanded state).
pub(crate) fn explore<N, K, F>(
    root: N,
    universe: &[Op],
    abort: &dyn Fn() -> bool,
    key: impl Fn(&N) -> K,
    mut expand: impl FnMut(&N, Op) -> Result<Edge<N>, F>,
    mut check_new: impl FnMut(&N) -> Result<(), F>,
) -> Result<Option<Explored>, (Vec<Op>, F)>
where
    K: Eq + Hash,
{
    check_new(&root).map_err(|f| (Vec::new(), f))?;
    let mut visited = HashSet::from([key(&root)]);
    // The state and op each discovered state was first reached from.
    let mut parents: Vec<Option<(usize, Op)>> = vec![None];
    let mut queue = VecDeque::from([(0, root)]);
    let mut edges = 0;
    while let Some((idx, state)) = queue.pop_front() {
        if abort() {
            return Ok(None);
        }
        for &op in universe {
            let found = |f| (path_to(&parents, idx, op), f);
            let next = match expand(&state, op).map_err(found)? {
                Edge::To(next) => next,
                Edge::Wedged => {
                    edges += 1;
                    continue;
                }
                Edge::Pruned => continue,
            };
            edges += 1;
            if !visited.insert(key(&next)) {
                continue;
            }
            check_new(&next).map_err(found)?;
            parents.push(Some((idx, op)));
            queue.push_back((parents.len() - 1, next));
        }
    }
    Ok(Some(Explored {
        states: parents.len() as u64,
        edges,
        sccs: 0,
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
