//! Differential property test of the paged main memory against the plain
//! word map it replaced: random sequences of word and masked-line writes
//! (zero values included, which must free nothing and allocate nothing
//! observable), word and line reads, and the resident-word count, checked
//! after every operation at every power-of-two line width from 1 to 64
//! words.

use std::collections::HashMap;

use proptest::collection;
use proptest::prelude::*;
use wbsim_mem::MainMemory;
use wbsim_types::addr::{Geometry, LineAddr, WordMask, MAX_LINE_WORDS};

#[derive(Debug, Clone)]
enum MemOp {
    WriteWord {
        word: u64,
        value: u64,
    },
    /// A masked write of the line holding `word`; bit `i` of `mask` selects
    /// word `i` of the line (bits past the line's width are ignored).
    WriteLine {
        word: u64,
        mask: u64,
        data: Vec<u64>,
    },
    ReadWord {
        word: u64,
    },
    ReadLine {
        word: u64,
    },
}

/// Word addresses in three clusters, so lines and pages collide often: the
/// bottom of memory, a region high enough to need a wide page number, and
/// the top of the word address space of 8-byte words.
fn word_strategy() -> impl Strategy<Value = u64> {
    const TOP: u64 = u64::MAX >> 3;
    prop_oneof![0u64..300, (1u64 << 36)..(1u64 << 36) + 300, TOP - 299..=TOP]
}

/// Values with zero common.
fn value_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![2 => Just(0u64), 3 => 1u64..1000, 1 => any::<u64>()]
}

fn op_strategy() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        3 => (word_strategy(), value_strategy())
            .prop_map(|(word, value)| MemOp::WriteWord { word, value }),
        2 => (
            word_strategy(),
            any::<u64>(),
            collection::vec(value_strategy(), MAX_LINE_WORDS),
        )
            .prop_map(|(word, mask, data)| MemOp::WriteLine { word, mask, data }),
        2 => word_strategy().prop_map(|word| MemOp::ReadWord { word }),
        2 => word_strategy().prop_map(|word| MemOp::ReadLine { word }),
    ]
}

/// The old store's semantics: a word map where writing zero removes the
/// word.
#[derive(Default)]
struct WordMap(HashMap<u64, u64>);

impl WordMap {
    fn write(&mut self, word: u64, value: u64) {
        if value == 0 {
            self.0.remove(&word);
        } else {
            self.0.insert(word, value);
        }
    }

    fn read(&self, word: u64) -> u64 {
        self.0.get(&word).copied().unwrap_or(0)
    }
}

fn check_width(words_per_line: usize, ops: &[MemOp]) -> Result<(), TestCaseError> {
    let g = Geometry::new(8 * words_per_line as u32, 8).expect("valid geometry");
    let wpl = words_per_line as u64;
    let mut mem = MainMemory::new();
    let mut model = WordMap::default();
    for op in ops {
        match op {
            MemOp::WriteWord { word, value } => {
                mem.write_word(*word, *value);
                model.write(*word, *value);
            }
            MemOp::WriteLine { word, mask, data } => {
                let line = LineAddr::new(word / wpl);
                let mut m = WordMask::empty();
                for i in (0..words_per_line).filter(|i| mask >> i & 1 == 1) {
                    m.set(i);
                }
                mem.write_line_masked(&g, line, m, &data[..words_per_line]);
                for i in m.iter() {
                    model.write(g.word_addr_in_line(line, i), data[i]);
                }
            }
            MemOp::ReadWord { word } => {
                prop_assert_eq!(mem.read_word(*word), model.read(*word), "word {}", word);
            }
            MemOp::ReadLine { word } => {
                let line = LineAddr::new(word / wpl);
                let got = mem.read_line(&g, line);
                prop_assert_eq!(got.len(), words_per_line);
                for (i, &v) in got.iter().enumerate() {
                    let w = g.word_addr_in_line(line, i);
                    prop_assert_eq!(v, model.read(w), "word {} of line {}", i, line.as_u64());
                }
            }
        }
        prop_assert_eq!(mem.resident_words(), model.0.len());
    }
    // A clone reads back the same image.
    let copy = mem.clone();
    for (&w, &v) in &model.0 {
        prop_assert_eq!(copy.read_word(w), v);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn paged_memory_matches_a_word_map(ops in collection::vec(op_strategy(), 1..80)) {
        for shift in 0..=MAX_LINE_WORDS.trailing_zeros() {
            check_width(1 << shift, &ops)?;
        }
    }
}
