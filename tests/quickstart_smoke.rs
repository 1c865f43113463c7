//! Smoke test for `examples/quickstart.rs`: the example must run to
//! completion for every protocol label it documents. This guards the
//! facade's public API — the example exercises `DsmBuilder`, handles,
//! locks, barriers, `parallel`, and `net_stats` exactly as the README
//! tells users to.

use std::process::{Command, Output};

fn quickstart_output(args: &[&str]) -> Output {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    Command::new(cargo)
        .args(["run", "--quiet", "--example", "quickstart", "--"])
        .args(args)
        .output()
        .expect("spawn cargo run --example quickstart")
}

fn run_quickstart(args: &[&str]) {
    let output = quickstart_output(args);
    assert!(
        output.status.success(),
        "quickstart {:?} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        args,
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The example prints "counter = N (expected M)"; require the line to
    // exist and be self-consistent without hardcoding the example's
    // PROCS * ROUNDS product here.
    let counter_line = stdout
        .lines()
        .find(|l| l.contains("counter = "))
        .unwrap_or_else(|| panic!("quickstart {args:?} did not reach the counter line:\n{stdout}"));
    let mut nums = counter_line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().expect("counter line numbers parse"));
    let (got, expected) = (nums.next(), nums.next());
    assert!(
        got.is_some() && got == expected,
        "quickstart {args:?} counter mismatch in {counter_line:?}"
    );
    assert!(
        stdout.contains("network traffic:"),
        "quickstart {args:?} did not print its traffic table:\n{stdout}"
    );
}

#[test]
fn quickstart_example_runs_to_completion() {
    run_quickstart(&[]);
}

#[test]
fn quickstart_example_accepts_every_protocol_label() {
    for label in ["LI", "LU", "EI", "EU"] {
        run_quickstart(&[label]);
    }
}

#[test]
fn quickstart_example_refuses_an_unknown_protocol_label() {
    let output = quickstart_output(&["XX"]);
    let (stdout, stderr) = (
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    assert_eq!(output.status.code(), Some(2), "stderr:\n{stderr}");
    for label in ["LI", "LU", "EI", "EU"] {
        assert!(stderr.contains(label), "usage names {label}:\n{stderr}");
    }
    assert!(!stdout.contains("counter ="), "ran anyway:\n{stdout}");
}
