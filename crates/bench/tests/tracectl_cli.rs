//! The `tracectl check` command line: a properly labeled trace file exits
//! 0, and a racy one exits with status 2 and a report that names both
//! conflicting accesses.

use std::path::PathBuf;
use std::process::{Command, Output};

use lrc_sync::LockId;
use lrc_trace::{codec, Trace, TraceBuilder, TraceMeta};
use lrc_vclock::ProcId;

/// Writes `trace` to a file of its own and runs `tracectl check` on it.
fn check(name: &str, trace: &Trace) -> Output {
    let dir = std::env::temp_dir().join(format!("lrc-tracectl-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file: PathBuf = dir.join(name);
    std::fs::write(&file, codec::to_text(trace)).expect("trace file written");
    let out = Command::new(env!("CARGO_BIN_EXE_tracectl"))
        .arg("check")
        .arg(&file)
        .output()
        .expect("tracectl runs");
    let _ = std::fs::remove_file(&file);
    out
}

/// p0 writes word 0x40 and p1 reads it: under one lock in both critical
/// sections when `locked`, with no synchronization at all otherwise.
fn publish(locked: bool) -> Trace {
    let (p0, p1, l) = (ProcId::new(0), ProcId::new(1), LockId::new(0));
    let mut b = TraceBuilder::new(TraceMeta::new("publish", 2, 1, 0, 4096));
    for (p, write) in [(p0, true), (p1, false)] {
        if locked {
            b.acquire(p, l).unwrap();
        }
        if write {
            b.write(p, 0x40, 8).unwrap();
        } else {
            b.read(p, 0x40, 8).unwrap();
        }
        if locked {
            b.release(p, l).unwrap();
        }
    }
    b.finish().unwrap()
}

#[test]
fn a_labeled_trace_exits_0_as_properly_labeled() {
    let out = check("labeled.txt", &publish(true));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("properly labeled"), "{stdout}");
}

#[test]
fn a_racy_trace_exits_2_naming_both_accesses() {
    let out = check("racy.txt", &publish(false));
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("data race"), "{stderr}");
    assert!(stderr.contains("p0[0]: W @0x40/8"), "{stderr}");
    assert!(stderr.contains("p1[0]: R @0x40/8"), "{stderr}");
}
