//! Trace serialization: a line-oriented text codec and a compact binary
//! codec.
//!
//! Traces are pure address streams (no data values — the simulator
//! synthesizes store values), so the formats are trivial and stable:
//!
//! **Text** (one event per line, `#` comments allowed):
//!
//! ```text
//! # wbsim trace v1
//! C 12
//! L 0x100080
//! S 0x100088
//! B 0
//! ```
//!
//! **Binary**: the magic `WBT1`, then one record per event — a tag byte
//! (`0` compute, `1` load, `2` store, `3` barrier) followed by a
//! little-endian `u64` (the run length or byte address; 0 for barriers).

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Read, Write};

use wbsim_types::addr::Addr;
use wbsim_types::op::Op;

/// Magic bytes opening a binary trace.
pub const BINARY_MAGIC: &[u8; 4] = b"WBT1";

/// A malformed trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A syntactically invalid line in a text trace.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Offending content.
        content: String,
    },
    /// Binary stream did not start with [`BINARY_MAGIC`].
    BadMagic,
    /// Binary stream ended mid-record or used an unknown tag.
    Corrupt(&'static str),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "trace I/O error: {e}"),
            Self::Parse { line, content } => {
                write!(f, "trace parse error at line {line}: {content:?}")
            }
            Self::BadMagic => f.write_str("not a wbsim binary trace (bad magic)"),
            Self::Corrupt(what) => write!(f, "corrupt binary trace: {what}"),
        }
    }
}

impl Error for TraceFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writes a text trace.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_text<W: Write>(mut w: W, ops: &[Op]) -> Result<(), TraceFileError> {
    writeln!(w, "# wbsim trace v1")?;
    for op in ops {
        match op {
            Op::Compute(n) => writeln!(w, "C {n}")?,
            Op::Load(a) => writeln!(w, "L {:#x}", a.as_u64())?,
            Op::Store(a) => writeln!(w, "S {:#x}", a.as_u64())?,
            Op::Barrier => writeln!(w, "B 0")?,
        }
    }
    Ok(())
}

/// Reads a text trace: [`TextReader`], collected.
///
/// # Errors
///
/// Returns [`TraceFileError::Parse`] on the first malformed line, or an
/// I/O error.
pub fn read_text<R: BufRead>(r: R) -> Result<Vec<Op>, TraceFileError> {
    TextReader::new(r).collect()
}

/// Writes a binary trace.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_binary<W: Write>(mut w: W, ops: &[Op]) -> Result<(), TraceFileError> {
    w.write_all(BINARY_MAGIC)?;
    let mut buf = [0u8; 9];
    for op in ops {
        let (tag, value) = match op {
            Op::Compute(n) => (0u8, u64::from(*n)),
            Op::Load(a) => (1, a.as_u64()),
            Op::Store(a) => (2, a.as_u64()),
            Op::Barrier => (3, 0),
        };
        buf[0] = tag;
        buf[1..].copy_from_slice(&value.to_le_bytes());
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Reads a binary trace: [`BinaryReader`], collected.
///
/// # Errors
///
/// Returns [`TraceFileError::BadMagic`] or [`TraceFileError::Corrupt`] on
/// malformed input (a partial trailing record included), or an I/O error.
pub fn read_binary<R: Read>(r: R) -> Result<Vec<Op>, TraceFileError> {
    BinaryReader::new(r)?.collect()
}

/// A streaming text-trace reader: yields one event at a time without
/// materializing the file, so arbitrarily large traces replay in O(1)
/// memory:
///
/// ```no_run
/// use std::fs::File;
/// use std::io::BufReader;
/// use wbsim_trace::file::TextReader;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let reader = TextReader::new(BufReader::new(File::open("huge.trace")?));
/// // Feed straight into `Machine::run`, which takes any IntoIterator<Op>:
/// let ops = reader.map(|r| r.expect("malformed trace"));
/// # let _ = ops.count();
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct TextReader<R: BufRead> {
    lines: std::io::Lines<R>,
    line_no: usize,
}

impl<R: BufRead> TextReader<R> {
    /// Wraps a buffered reader.
    pub fn new(r: R) -> Self {
        Self {
            lines: r.lines(),
            line_no: 0,
        }
    }
}

fn parse_text_line(line: &str, n: usize) -> Result<Option<Op>, TraceFileError> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') {
        return Ok(None);
    }
    let bad = || TraceFileError::Parse {
        line: n,
        content: line.to_string(),
    };
    let (tag, rest) = t.split_once(' ').ok_or_else(bad)?;
    let rest = rest.trim();
    let value = if let Some(hex) = rest.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|_| bad())?
    } else {
        rest.parse::<u64>().map_err(|_| bad())?
    };
    Ok(Some(match tag {
        "C" => Op::Compute(u32::try_from(value).map_err(|_| bad())?),
        "L" => Op::Load(Addr::new(value)),
        "S" => Op::Store(Addr::new(value)),
        "B" => Op::Barrier,
        _ => return Err(bad()),
    }))
}

impl<R: BufRead> Iterator for TextReader<R> {
    type Item = Result<Op, TraceFileError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.line_no += 1;
            match self.lines.next()? {
                Err(e) => return Some(Err(e.into())),
                Ok(line) => match parse_text_line(&line, self.line_no) {
                    Err(e) => return Some(Err(e)),
                    Ok(Some(op)) => return Some(Ok(op)),
                    Ok(None) => continue,
                },
            }
        }
    }
}

/// A streaming binary-trace reader (see [`TextReader`] for the pattern).
#[derive(Debug)]
pub struct BinaryReader<R: Read> {
    inner: R,
}

impl<R: Read> BinaryReader<R> {
    /// Validates the magic and wraps the reader.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::BadMagic`] when the stream is not a wbsim
    /// binary trace.
    pub fn new(mut r: R) -> Result<Self, TraceFileError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)
            .map_err(|_| TraceFileError::BadMagic)?;
        if &magic != BINARY_MAGIC {
            return Err(TraceFileError::BadMagic);
        }
        Ok(Self { inner: r })
    }
}

impl<R: Read> Iterator for BinaryReader<R> {
    type Item = Result<Op, TraceFileError>;

    /// The next record. The stream must end on a record boundary: a
    /// partial trailing record is [`TraceFileError::Corrupt`], not a clean
    /// end.
    fn next(&mut self) -> Option<Self::Item> {
        let mut buf = [0u8; 9];
        let mut got = 0;
        while got < buf.len() {
            match self.inner.read(&mut buf[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Some(Err(e.into())),
            }
        }
        match got {
            0 => return None,
            9 => {}
            _ => return Some(Err(TraceFileError::Corrupt("truncated record"))),
        }
        let value = u64::from_le_bytes(buf[1..].try_into().expect("slice is 8 bytes"));
        Some(match buf[0] {
            0 => u32::try_from(value)
                .map(Op::Compute)
                .map_err(|_| TraceFileError::Corrupt("compute run too long")),
            1 => Ok(Op::Load(Addr::new(value))),
            2 => Ok(Op::Store(Addr::new(value))),
            3 => Ok(Op::Barrier),
            _ => Err(TraceFileError::Corrupt("unknown tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Op> {
        vec![
            Op::Compute(12),
            Op::Load(Addr::new(0x10_0080)),
            Op::Store(Addr::new(0x10_0088)),
            Op::Compute(0),
            Op::Barrier,
            Op::Store(Addr::new(u64::MAX / 2)),
        ]
    }

    #[test]
    fn text_roundtrip() {
        let mut buf = Vec::new();
        write_text(&mut buf, &sample()).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn text_accepts_comments_blank_lines_and_decimal() {
        let src = "# header\n\nC 3\nL 256\n  S 0x20  \n";
        let ops = read_text(src.as_bytes()).unwrap();
        assert_eq!(
            ops,
            vec![
                Op::Compute(3),
                Op::Load(Addr::new(256)),
                Op::Store(Addr::new(0x20)),
            ]
        );
    }

    #[test]
    fn text_rejects_garbage_with_line_number() {
        let src = "C 3\nX 99\n";
        match read_text(src.as_bytes()) {
            Err(TraceFileError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(read_text("L notanumber\n".as_bytes()).is_err());
        assert!(read_text("C\n".as_bytes()).is_err(), "missing operand");
    }

    #[test]
    fn binary_roundtrip() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn binary_rejects_bad_magic_and_bad_tag() {
        assert!(matches!(
            read_binary(&b"NOPE"[..]),
            Err(TraceFileError::BadMagic)
        ));
        let mut buf = Vec::new();
        write_binary(&mut buf, &[Op::Compute(1)]).unwrap();
        buf[4] = 9; // corrupt the tag (valid tags are 0..=3)
        assert!(matches!(
            read_binary(&buf[..]),
            Err(TraceFileError::Corrupt(_))
        ));
    }

    #[test]
    fn binary_refuses_a_truncated_record() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        for cut in [buf.len() - 1, buf.len() - 7, BINARY_MAGIC.len() + 1] {
            assert!(
                matches!(
                    read_binary(&buf[..cut]),
                    Err(TraceFileError::Corrupt("truncated record"))
                ),
                "cut at {cut}"
            );
        }
        // A cut on a record boundary is a shorter trace.
        let back = read_binary(&buf[..buf.len() - 9]).unwrap();
        assert_eq!(back, sample()[..sample().len() - 1]);
    }

    #[test]
    fn binary_empty_trace() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &[]).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), Vec::<Op>::new());
    }

    #[test]
    fn streaming_readers_match_batch_readers() {
        let mut text = Vec::new();
        write_text(&mut text, &sample()).unwrap();
        let streamed: Result<Vec<Op>, _> = TextReader::new(&text[..]).collect();
        assert_eq!(streamed.unwrap(), sample());

        let mut bin = Vec::new();
        write_binary(&mut bin, &sample()).unwrap();
        let streamed: Result<Vec<Op>, _> = BinaryReader::new(&bin[..]).unwrap().collect();
        assert_eq!(streamed.unwrap(), sample());
    }

    #[test]
    fn streaming_text_reports_errors_with_line_numbers() {
        let src = "C 1
L zebra
S 0x10
";
        let results: Vec<_> = TextReader::new(src.as_bytes()).collect();
        assert!(results[0].is_ok());
        match &results[1] {
            Err(TraceFileError::Parse { line, .. }) => assert_eq!(*line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        // The reader keeps going after an error (caller's choice to stop).
        assert!(results[2].is_ok());
    }

    #[test]
    fn streaming_binary_rejects_magic_upfront() {
        assert!(matches!(
            BinaryReader::new(&b"XXXX"[..]),
            Err(TraceFileError::BadMagic)
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceFileError::Parse {
            line: 7,
            content: "Z 1".into(),
        };
        assert!(e.to_string().contains("line 7"));
        assert!(TraceFileError::BadMagic.to_string().contains("magic"));
    }
}
