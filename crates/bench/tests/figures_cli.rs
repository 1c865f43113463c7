//! The `figures` binary's command line: an unknown target is refused with
//! exit status 2 and a message that lists every target it accepts.

use std::process::Command;

#[test]
fn an_unknown_target_exits_2_naming_every_accepted_target() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("bogus")
        .output()
        .expect("figures runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let accepted = [
        "all",
        "table1",
        "migratory",
        "summary",
        "ablation-diff",
        "ablation-piggyback",
        "ablation-gc",
        "matrix",
        "scale",
        "locusroute",
        "cholesky",
        "mp3d",
        "water",
        "pthor",
    ];
    for target in accepted {
        assert!(stderr.contains(target), "`{target}` missing from: {stderr}");
    }
}
