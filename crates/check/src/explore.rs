//! The breadth-first explorer behind [`crate::reach`],
//! [`crate::prop_product`] and [`crate::refine`].
//!
//! Each of those checkers explores a finite abstract state graph: a state
//! is keyed by its packed canonical abstraction
//! ([`crate::abstract_state`]), and every state is expanded by every op of
//! the checker's universe. The explorer owns what they share — the
//! visited set, the parent pointers a counterexample path is rebuilt
//! from, the abort poll and edge counting. A checker supplies only the
//! state key, the per-op expansion, and the check a newly discovered
//! state must pass.
//!
//! An explored edge allocates nothing, and neither does a new state once
//! the explorer's buffers have grown. Every op forks the expanded state
//! into a recycled state with `clone_from`, which reuses its buffers; the
//! successor's key is written into reused buffers and looked up by slice
//! in a [`KeyMap`], which keeps every key in one byte buffer. A duplicate
//! (most edges) leaves the fork for the next op; a new state moves into
//! the queue, appends its key to the map and takes the next recycled
//! state. Every expanded state is kept to fork into, and when the
//! exploration ends its states stay with the thread for the next one
//! ([`KEPT`]): a checker's worker explores grid point after grid point, so
//! a fresh `clone()` is made only while a point's frontier outgrows every
//! frontier the worker has held before. Memory therefore follows the
//! largest BFS frontier a worker meets, not the graph.
//!
//! The drain walks keep their keys in one reused [`DrainPath`] and their
//! memoized verdicts in a [`KeyMap`].

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use wbsim_types::op::Op;

use crate::abstract_state::StateKey;

/// The hasher of packed keys in a [`KeyMap`] (and of the hashes its table
/// is indexed by): eight bytes at a time, one rotate, xor and multiply
/// each (the `FxHash` step), then a rotate so the well-mixed high bits of
/// the last product pick the bucket. Keys are written by the checkers
/// from their own bounded universe, so the maps need no defence against
/// keys crafted to collide, and SipHash's cost per key would be most of a
/// duplicate edge's lookup.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("an 8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Packed keys mapped to values `V`. The keys lie back to back in one
/// buffer, found through a table of their [`KeyHasher`] hashes, so
/// inserting a key allocates nothing once the buffers have grown: no key
/// is a heap object of its own.
pub(crate) struct KeyMap<V> {
    /// The keys, back to back in insertion order.
    bytes: Vec<u8>,
    /// Per key, in insertion order: where it ends in `bytes`, the key
    /// inserted before it with the same hash, and its value.
    entries: Vec<(usize, Option<u32>, V)>,
    /// The last key inserted with each hash.
    heads: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
}

impl<V> Default for KeyMap<V> {
    fn default() -> Self {
        KeyMap {
            bytes: Vec::new(),
            entries: Vec::new(),
            heads: HashMap::default(),
        }
    }
}

impl<V> KeyMap<V> {
    /// The number of keys.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn hash(key: &[u8]) -> u64 {
        let mut h = KeyHasher::default();
        h.write_usize(key.len());
        h.write(key);
        h.finish()
    }

    /// The index of `key` under `hash`, if it is in the map.
    fn find(&self, hash: u64, key: &[u8]) -> Option<usize> {
        let mut at = self.heads.get(&hash).copied();
        while let Some(i) = at {
            let i = i as usize;
            let from = i.checked_sub(1).map_or(0, |p| self.entries[p].0);
            if &self.bytes[from..self.entries[i].0] == key {
                return Some(i);
            }
            at = self.entries[i].1;
        }
        None
    }

    /// The value of `key`.
    pub(crate) fn get(&self, key: &[u8]) -> Option<&V> {
        self.find(Self::hash(key), key).map(|i| &self.entries[i].2)
    }

    /// Maps `key` to `value` unless the map has `key` already; whether it
    /// was new.
    pub(crate) fn insert(&mut self, key: &[u8], value: V) -> bool {
        let hash = Self::hash(key);
        if self.find(hash, key).is_some() {
            return false;
        }
        let i = u32::try_from(self.entries.len()).expect("fewer than 2^32 keys");
        self.bytes.extend_from_slice(key);
        let prev = self.heads.insert(hash, i);
        self.entries.push((self.bytes.len(), prev, value));
        true
    }
}

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

/// The keys of one drain walk in walk order, back to back in one buffer
/// that is reused from walk to walk.
#[derive(Debug, Default)]
pub(crate) struct DrainPath {
    bytes: Vec<u8>,
    /// Where each key ends in `bytes`.
    ends: Vec<usize>,
}

impl DrainPath {
    /// Empties the path for the next walk.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// The number of keys on the path.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Appends `key`.
    pub(crate) fn push(&mut self, key: &[u8]) {
        self.bytes.extend_from_slice(key);
        self.ends.push(self.bytes.len());
    }

    /// The keys, in walk order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &[u8]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(from, &to)| &self.bytes[from..to])
    }

    /// Whether `key` is on the path: the walk closed a cycle.
    pub(crate) fn contains(&self, key: &[u8]) -> bool {
        self.keys().any(|k| k == key)
    }
}

/// What a checker keeps across the drain walks of one exploration: the
/// memoized verdicts `V` keyed by packed state, the walk's recycled state
/// `W`, its key buffers and its path.
pub(crate) struct DrainMemo<V, W> {
    pub(crate) verdicts: KeyMap<V>,
    pub(crate) walker: Option<W>,
    pub(crate) key: StateKey,
    pub(crate) path: DrainPath,
}

impl<V, W> Default for DrainMemo<V, W> {
    fn default() -> Self {
        DrainMemo {
            verdicts: KeyMap::default(),
            walker: None,
            key: StateKey::default(),
            path: DrainPath::default(),
        }
    }
}

impl<V: Clone, W> DrainMemo<V, W> {
    /// Memoizes `verdict` for every state on the walk's path (none of
    /// which has a verdict yet: the walk stops at the first that has).
    pub(crate) fn memoize(&mut self, verdict: &V) {
        for k in self.path.keys() {
            self.verdicts.insert(k, verdict.clone());
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

thread_local! {
    /// The states this thread's last exploration ended with, for the next
    /// one to fork into: a worker explores grid point after grid point,
    /// and a kept state's buffers already fit the next point's states.
    static KEPT: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
}

/// Explores from `root` to closure. `check_new` runs on `root` and on
/// every newly discovered state before it is queued. Every op of
/// `universe` runs from every queued state, in BFS order: `expand` gets a
/// fork of the state to run it on, and `key` writes the successor's key
/// into a cleared [`StateKey`]. A finding of `expand` or `check_new` comes
/// back with the op path that reaches it. `Ok(None)` means `abort` fired
/// (it is polled once per expanded state).
pub(crate) fn explore<N: Clone + 'static, F>(
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
    let mut visited = KeyMap::default();
    visited.insert(k.canonical(), ());
    // The state and op each discovered state was first reached from.
    let mut parents: Vec<Option<(usize, Op)>> = vec![None];
    let mut queue = VecDeque::from([(0, Box::new(root))]);
    // States to fork into, the next fork on top: those the thread's last
    // exploration kept, if they are of this checker's type, then every
    // state once it has been expanded.
    let mut pool: Vec<Box<N>> = KEPT
        .with(|kept| kept.borrow_mut().take())
        .and_then(|kept| kept.downcast().ok())
        .map_or_else(Vec::new, |kept| *kept);
    let mut edges = 0;
    while let Some((idx, state)) = queue.pop_front() {
        if abort() {
            return Ok(None);
        }
        for &op in universe {
            let found = |f| (path_to(&parents, idx, op), f);
            match pool.last_mut() {
                Some(top) => top.clone_from(&state),
                None => pool.push(state.clone()),
            }
            let next = pool.last_mut().expect("the fork is on top");
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
            if !visited.insert(k.canonical(), ()) {
                continue;
            }
            check_new(next).map_err(found)?;
            parents.push(Some((idx, op)));
            let next = pool.pop().expect("the fork is on top");
            queue.push_back((parents.len() - 1, next));
        }
        pool.push(state);
    }
    KEPT.with(|kept| *kept.borrow_mut() = Some(Box::new(pool)));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_map_finds_every_key_it_holds_and_no_other() {
        // Keys of every length up to 19 bytes, among them keys that are
        // prefixes of one another and keys differing only in zero bytes.
        let keys: Vec<Vec<u8>> = (0..400u32)
            .map(|i| {
                let len = (i % 20) as usize;
                (0..len)
                    .map(|j| if j % 3 == 0 { 0 } else { (i >> j) as u8 })
                    .collect()
            })
            .collect();
        let mut map = KeyMap::default();
        let mut distinct = std::collections::HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            let new = !distinct.contains_key(k);
            assert_eq!(map.insert(k, i), new, "{k:?}");
            distinct.entry(k.clone()).or_insert(i);
            assert_eq!(map.len(), distinct.len());
        }
        for (k, &first) in &distinct {
            assert_eq!(map.get(k), Some(&first), "{k:?} keeps its first value");
        }
        assert_eq!(map.get(&[7; 20]), None);
    }
}
