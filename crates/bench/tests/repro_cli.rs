//! The `repro` command line: an experiment name outside the usage list is
//! rejected with the usage text and exit code 2 before anything runs, so
//! a misspelt name cannot pass for an instant, empty run.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn unknown_experiment_exits_2_with_usage() {
    let out = repro(&["--profile", "smoke", "fig55"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run or print first");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig55"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
}

#[test]
fn known_experiment_exits_0() {
    let out = repro(&["--profile", "smoke", "table2"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("# profile = smoke"));
}
