//! Trace serialization: one line-oriented text format.
//!
//! It round-trips exactly and validates legality on read, so a
//! deserialized [`Trace`] carries the same guarantees as a built one.
//! Traces are generated in process; the text form is what `tracectl`
//! files and failure reports carry.
//!
//! # Text format
//!
//! ```text
//! lrc-trace v1
//! meta <name> procs=<n> locks=<n> barriers=<n> mem=<bytes>
//! r <proc> <addr> <len>
//! w <proc> <addr> <len>
//! a <proc> <lock>
//! l <proc> <lock>
//! b <proc> <barrier>
//! ```
//!
//! # Example
//!
//! ```
//! use lrc_trace::{codec, TraceBuilder, TraceMeta};
//! use lrc_vclock::ProcId;
//!
//! let mut b = TraceBuilder::new(TraceMeta::new("demo", 1, 0, 0, 1024));
//! b.write(ProcId::new(0), 0, 8)?;
//! let trace = b.finish()?;
//!
//! let text = codec::to_text(&trace);
//! let back = codec::from_text(&text)?;
//! assert_eq!(trace, back);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::error::Error;
use std::fmt;

use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;

use crate::{Event, Op, Trace, TraceError, TraceMeta};

const TEXT_HEADER: &str = "lrc-trace v1";

/// Errors produced while decoding a trace.
#[derive(Debug)]
pub enum CodecError {
    /// The input is not in the expected format.
    Malformed {
        /// Line number, best effort.
        at: usize,
        /// What went wrong.
        detail: String,
    },
    /// The decoded trace is illegal.
    Illegal(TraceError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Malformed { at, detail } => write!(f, "malformed trace at {at}: {detail}"),
            CodecError::Illegal(e) => write!(f, "decoded trace is illegal: {e}"),
        }
    }
}

impl Error for CodecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CodecError::Illegal(e) => Some(e),
            CodecError::Malformed { .. } => None,
        }
    }
}

impl From<TraceError> for CodecError {
    fn from(e: TraceError) -> Self {
        CodecError::Illegal(e)
    }
}

/// Renders a trace in the text format.
pub fn to_text(trace: &Trace) -> String {
    let meta = trace.meta();
    let mut out = String::with_capacity(trace.len() * 16 + 128);
    out.push_str(TEXT_HEADER);
    out.push('\n');
    out.push_str(&format!(
        "meta {} procs={} locks={} barriers={} mem={}\n",
        meta.name(),
        meta.n_procs(),
        meta.n_locks(),
        meta.n_barriers(),
        meta.mem_bytes()
    ));
    for event in trace.iter() {
        let p = event.proc.raw();
        match event.op {
            Op::Read { addr, len } => out.push_str(&format!("r {p} {addr} {len}\n")),
            Op::Write { addr, len } => out.push_str(&format!("w {p} {addr} {len}\n")),
            Op::Acquire(l) => out.push_str(&format!("a {p} {}\n", l.raw())),
            Op::Release(l) => out.push_str(&format!("l {p} {}\n", l.raw())),
            Op::Barrier(b) => out.push_str(&format!("b {p} {}\n", b.raw())),
        }
    }
    out
}

fn malformed(at: usize, detail: impl Into<String>) -> CodecError {
    CodecError::Malformed {
        at,
        detail: detail.into(),
    }
}

/// Parses the text format.
///
/// # Errors
///
/// [`CodecError::Malformed`] on syntax errors, [`CodecError::Illegal`] if
/// the events do not form a legal trace.
pub fn from_text(text: &str) -> Result<Trace, CodecError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| malformed(1, "empty input"))?;
    if header.trim() != TEXT_HEADER {
        return Err(malformed(1, format!("expected header '{TEXT_HEADER}'")));
    }
    let (_, meta_line) = lines
        .next()
        .ok_or_else(|| malformed(2, "missing meta line"))?;
    let meta = parse_meta_line(meta_line).map_err(|d| malformed(2, d))?;

    let mut events = Vec::new();
    for (i, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = i + 1;
        let mut parts = line.split_ascii_whitespace();
        let tag = parts.next().expect("non-empty line has a first token");
        let mut next_u64 = |what: &str| -> Result<u64, CodecError> {
            parts
                .next()
                .ok_or_else(|| malformed(lineno, format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|_| malformed(lineno, format!("bad {what}")))
        };
        let proc = ProcId::new(next_u64("proc")? as u16);
        let op = match tag {
            "r" => Op::Read {
                addr: next_u64("addr")?,
                len: next_u64("len")? as u32,
            },
            "w" => Op::Write {
                addr: next_u64("addr")?,
                len: next_u64("len")? as u32,
            },
            "a" => Op::Acquire(LockId::new(next_u64("lock")? as u32)),
            "l" => Op::Release(LockId::new(next_u64("lock")? as u32)),
            "b" => Op::Barrier(BarrierId::new(next_u64("barrier")? as u32)),
            other => return Err(malformed(lineno, format!("unknown tag '{other}'"))),
        };
        if parts.next().is_some() {
            return Err(malformed(lineno, "trailing tokens"));
        }
        events.push(Event::new(proc, op));
    }
    Trace::from_parts(meta, events).map_err(CodecError::from)
}

fn parse_meta_line(line: &str) -> Result<TraceMeta, String> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next() != Some("meta") {
        return Err("expected 'meta' line".to_string());
    }
    let name = parts.next().ok_or("missing name")?.to_string();
    let mut procs = None;
    let mut locks = None;
    let mut barriers = None;
    let mut mem = None;
    for kv in parts {
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad field '{kv}'"))?;
        let value: u64 = value.parse().map_err(|_| format!("bad value in '{kv}'"))?;
        match key {
            "procs" => procs = Some(value as usize),
            "locks" => locks = Some(value as usize),
            "barriers" => barriers = Some(value as usize),
            "mem" => mem = Some(value),
            other => return Err(format!("unknown field '{other}'")),
        }
    }
    match (procs, locks, barriers, mem) {
        (Some(p), Some(l), Some(b), Some(m)) if p > 0 && m > 0 => {
            Ok(TraceMeta::new(name, p, l, b, m))
        }
        _ => Err(
            "meta line needs procs=, locks=, barriers=, mem= (procs and mem non-zero)".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(TraceMeta::new("sample", 2, 1, 1, 65536));
        b.acquire(p(0), LockId::new(0)).unwrap();
        b.write(p(0), 4096, 8).unwrap();
        b.release(p(0), LockId::new(0)).unwrap();
        b.read(p(1), 512, 16).unwrap();
        b.barrier_all(BarrierId::new(0)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn text_round_trip() {
        let t = sample();
        let text = to_text(&t);
        assert!(text.starts_with("lrc-trace v1\nmeta sample procs=2"));
        let back = from_text(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn text_tolerates_comments_and_blank_lines() {
        let t = sample();
        let mut text = to_text(&t);
        text.push_str("\n# trailing comment\n\n");
        assert_eq!(from_text(&text).unwrap(), t);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(from_text("").is_err());
        assert!(from_text("wrong header\n").is_err());
        assert!(from_text("lrc-trace v1\nmeta t procs=1 locks=0 barriers=0\n").is_err());
        let bad_tag = "lrc-trace v1\nmeta t procs=1 locks=0 barriers=0 mem=64\nx 0 0 4\n";
        assert!(matches!(
            from_text(bad_tag),
            Err(CodecError::Malformed { .. })
        ));
        let trailing = "lrc-trace v1\nmeta t procs=1 locks=0 barriers=0 mem=64\nr 0 0 4 9\n";
        assert!(from_text(trailing).is_err());
    }

    #[test]
    fn text_rejects_illegal_trace() {
        let illegal = "lrc-trace v1\nmeta t procs=1 locks=1 barriers=0 mem=64\nl 0 0\n";
        assert!(matches!(from_text(illegal), Err(CodecError::Illegal(_))));
    }

    #[test]
    fn errors_display_and_chain() {
        let err = from_text("nope").unwrap_err();
        assert!(err.to_string().contains("malformed"));
        let illegal = from_text("lrc-trace v1\nmeta t procs=1 locks=1 barriers=0 mem=64\nl 0 0\n")
            .unwrap_err();
        assert!(illegal.source().is_some());
    }
}
