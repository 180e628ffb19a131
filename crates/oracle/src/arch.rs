//! The untimed architectural reference model.

use wbsim_types::addr::{Addr, Geometry};
use wbsim_types::op::Op;

/// A program-order interpreter for reference streams: flat word-addressed
/// memory, no caches, no buffers, no timing.
///
/// The model replicates exactly one machine convention — store-value
/// synthesis. The simulator gives the *k*-th store of a run the value *k*
/// (so every stored word is unique and nonzero), and loads of
/// never-written words observe 0. The model reproduces that from the op
/// stream alone; everything else is plain sequential semantics. Barriers
/// are ordering-only and do not change memory.
///
/// `clone_from` reuses the target's word list, so the bounded checker
/// forks a model per op-sequence prefix without allocating.
#[derive(Debug)]
pub struct ArchModel {
    g: Geometry,
    /// Freshest value of each written word, as (global word address,
    /// value) sorted by address: a lookup is a binary search, and
    /// [`ArchModel::written_words`] iterates in address order.
    mem: Vec<(u64, u64)>,
    store_seq: u64,
    loads: u64,
    stores: u64,
    barriers: u64,
}

wbsim_types::clone_fields!(ArchModel {
    g,
    mem,
    store_seq,
    loads,
    stores,
    barriers
});

impl ArchModel {
    /// An empty model over the given geometry.
    #[must_use]
    pub fn new(g: Geometry) -> Self {
        Self {
            g,
            mem: Vec::new(),
            store_seq: 0,
            loads: 0,
            stores: 0,
            barriers: 0,
        }
    }

    /// Executes one op. For a load, returns the value the architecture
    /// requires; for everything else, `None`.
    pub fn step(&mut self, op: Op) -> Option<u64> {
        match op {
            Op::Load(addr) => {
                self.loads += 1;
                Some(self.read_word(addr))
            }
            Op::Store(addr) => {
                self.stores += 1;
                self.store_seq += 1;
                let word = self.g.word_addr(addr);
                match self.mem.binary_search_by_key(&word, |&(w, _)| w) {
                    Ok(i) => self.mem[i].1 = self.store_seq,
                    Err(i) => self.mem.insert(i, (word, self.store_seq)),
                }
                None
            }
            Op::Barrier => {
                self.barriers += 1;
                None
            }
            Op::Compute(_) => None,
        }
    }

    /// Runs a whole stream, returning each load's required value in
    /// program order.
    pub fn run<'a, I>(&mut self, ops: I) -> Vec<u64>
    where
        I: IntoIterator<Item = &'a Op>,
    {
        ops.into_iter().filter_map(|&op| self.step(op)).collect()
    }

    /// The current value of the word at `addr` (0 if never written).
    #[must_use]
    pub fn read_word(&self, addr: Addr) -> u64 {
        let word = self.g.word_addr(addr);
        self.mem
            .binary_search_by_key(&word, |&(w, _)| w)
            .map_or(0, |i| self.mem[i].1)
    }

    /// Global word addresses written so far, ascending.
    pub fn written_words(&self) -> impl Iterator<Item = u64> + '_ {
        self.mem.iter().map(|&(w, _)| w)
    }

    /// Loads executed.
    #[must_use]
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Stores executed.
    #[must_use]
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Barriers executed.
    #[must_use]
    pub fn barriers(&self) -> u64 {
        self.barriers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use wbsim_sim::testutil::a;

    fn model() -> ArchModel {
        ArchModel::new(Geometry::alpha_baseline())
    }

    #[test]
    fn loads_of_untouched_words_read_zero() {
        let mut m = model();
        assert_eq!(m.step(Op::Load(a(3, 1))), Some(0));
    }

    #[test]
    fn stores_synthesize_sequence_numbers() {
        let mut m = model();
        m.step(Op::Store(a(1, 0))); // value 1
        m.step(Op::Store(a(1, 1))); // value 2
        m.step(Op::Store(a(1, 0))); // overwrites with 3
        assert_eq!(m.step(Op::Load(a(1, 0))), Some(3));
        assert_eq!(m.step(Op::Load(a(1, 1))), Some(2));
        assert_eq!(m.stores(), 3);
        assert_eq!(m.loads(), 2);
    }

    #[test]
    fn word_granularity_not_line_granularity() {
        let mut m = model();
        m.step(Op::Store(a(5, 2)));
        assert_eq!(m.step(Op::Load(a(5, 3))), Some(0), "same line, other word");
    }

    #[test]
    fn compute_and_barrier_leave_memory_alone() {
        let mut m = model();
        m.step(Op::Store(a(2, 0)));
        m.step(Op::Compute(100));
        m.step(Op::Barrier);
        assert_eq!(m.step(Op::Load(a(2, 0))), Some(1));
        assert_eq!(m.barriers(), 1);
    }

    #[test]
    fn run_collects_load_values_in_order() {
        let mut m = model();
        let ops = vec![
            Op::Store(a(1, 0)),
            Op::Load(a(1, 0)),
            Op::Store(a(1, 0)),
            Op::Load(a(1, 0)),
            Op::Load(a(9, 0)),
        ];
        assert_eq!(m.run(&ops), vec![1, 2, 0]);
        assert_eq!(m.written_words().count(), 1);
    }
}
