//! Property fuzzing for the two trace codecs
//! ([`wbsim::trace::file`]), which read files a user hands to
//! `wbsim trace` and `wbsim run --trace`.
//!
//! * generated op vectors, with whole-domain compute runs and addresses,
//!   round-trip through both writers and both reader forms (the batch
//!   `read_*` and the streaming readers);
//! * a binary trace cut at any offset after its magic either ends on a
//!   record boundary and reads back as exactly that prefix, or is refused:
//!   a partial record is never a clean end;
//! * one byte replaced anywhere, and arbitrary bytes, never panic either
//!   reader: they read, or they are refused with a `TraceFileError`, and a
//!   text error names a line inside the document.

use std::io::Cursor;

use proptest::collection::vec;
use proptest::prelude::*;

use wbsim::trace::file::{
    read_binary, read_text, write_binary, write_text, BinaryReader, TextReader, TraceFileError,
    BINARY_MAGIC,
};
use wbsim::types::op::Op;
use wbsim::types::Addr;

/// Bytes of one binary record: a tag and a little-endian `u64`.
const RECORD: usize = 9;

/// Any op, over every value a trace can hold.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u32>().prop_map(Op::Compute),
        any::<u64>().prop_map(|a| Op::Load(Addr::new(a))),
        any::<u64>().prop_map(|a| Op::Store(Addr::new(a))),
        Just(Op::Barrier),
    ]
}

fn text_of(ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::new();
    write_text(&mut out, ops).expect("writing to a Vec");
    out
}

fn binary_of(ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::new();
    write_binary(&mut out, ops).expect("writing to a Vec");
    out
}

/// Reads `bytes` both ways under both codecs; neither may panic, and an
/// error is a parse or corruption report (never I/O on an in-memory
/// reader). A text error's line lies inside the document.
fn reads_cleanly(bytes: &[u8]) -> Result<(), TestCaseError> {
    let lines = bytes.split(|&b| b == b'\n').count();
    for text in [
        read_text(Cursor::new(bytes)),
        TextReader::new(Cursor::new(bytes)).collect(),
    ] {
        match text {
            Ok(_) => {}
            Err(TraceFileError::Parse { line, .. }) => {
                prop_assert!(line >= 1 && line <= lines, "line {} of {}", line, lines);
            }
            // Invalid UTF-8 reaches the text reader as an I/O error.
            Err(TraceFileError::Io(e)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            }
            Err(e) => return Err(TestCaseError::fail(format!("text reader: {e}"))),
        }
    }
    let streamed = BinaryReader::new(Cursor::new(bytes)).and_then(Iterator::collect);
    for binary in [read_binary(Cursor::new(bytes)), streamed] {
        match binary {
            Ok(_) | Err(TraceFileError::BadMagic | TraceFileError::Corrupt(_)) => {}
            Err(e) => return Err(TestCaseError::fail(format!("binary reader: {e}"))),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every generated stream reads back as itself through both codecs,
    /// batch and streaming.
    #[test]
    fn any_stream_round_trips(ops in vec(arb_op(), 0..64)) {
        let text = text_of(&ops);
        prop_assert_eq!(&read_text(Cursor::new(&text)).expect("text"), &ops);
        let streamed: Vec<Op> = TextReader::new(Cursor::new(&text))
            .collect::<Result<_, _>>()
            .expect("text stream");
        prop_assert_eq!(&streamed, &ops);
        let binary = binary_of(&ops);
        prop_assert_eq!(binary.len(), BINARY_MAGIC.len() + RECORD * ops.len());
        prop_assert_eq!(&read_binary(Cursor::new(&binary)).expect("binary"), &ops);
        let streamed: Vec<Op> = BinaryReader::new(Cursor::new(&binary))
            .expect("magic")
            .collect::<Result<_, _>>()
            .expect("binary stream");
        prop_assert_eq!(&streamed, &ops);
    }

    /// A binary trace cut after its magic reads back as exactly the
    /// records before the cut when the cut falls on a record boundary, and
    /// is refused as a truncated record everywhere else.
    #[test]
    fn any_binary_truncation_is_a_prefix_or_refused(
        ops in vec(arb_op(), 1..32),
        cut in any::<usize>(),
    ) {
        let binary = binary_of(&ops);
        let cut = BINARY_MAGIC.len() + cut % (binary.len() - BINARY_MAGIC.len() + 1);
        let records = (cut - BINARY_MAGIC.len()) / RECORD;
        let on_boundary = (cut - BINARY_MAGIC.len()).is_multiple_of(RECORD);
        let streamed = BinaryReader::new(Cursor::new(&binary[..cut])).and_then(Iterator::collect);
        for read in [read_binary(Cursor::new(&binary[..cut])), streamed] {
            match read {
                Ok(back) => {
                    prop_assert!(on_boundary, "cut at {} read as a clean end", cut);
                    prop_assert_eq!(&back[..], &ops[..records]);
                }
                Err(TraceFileError::Corrupt("truncated record")) => {
                    prop_assert!(!on_boundary, "cut at {} refused on a boundary", cut);
                }
                Err(e) => return Err(TestCaseError::fail(format!("cut at {cut}: {e}"))),
            }
        }
    }

    /// One byte replaced anywhere in either encoding never panics.
    #[test]
    fn any_mangled_byte_reads_cleanly(
        ops in vec(arb_op(), 1..32),
        binary in any::<bool>(),
        at in any::<usize>(),
        with in any::<u8>(),
    ) {
        let mut bytes = if binary { binary_of(&ops) } else { text_of(&ops) };
        let at = at % bytes.len();
        bytes[at] = with;
        reads_cleanly(&bytes)?;
    }

    /// Arbitrary bytes, bare or behind the binary magic, never panic.
    #[test]
    fn arbitrary_junk_reads_cleanly(bytes in vec(any::<u8>(), 0..160), magic in any::<bool>()) {
        let bytes = if magic { [&BINARY_MAGIC[..], &bytes].concat() } else { bytes };
        reads_cleanly(&bytes)?;
    }
}
