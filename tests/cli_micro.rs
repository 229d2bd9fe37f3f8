//! The `tle micro` command line: a malformed flag value is a usage error
//! (exit 2, the flag named on stderr), never a silently substituted
//! default configuration.

use std::process::{Command, Output};

fn tle(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tle"))
        .args(args)
        .output()
        .expect("spawn the tle binary")
}

fn assert_usage_error(out: &Output, flag: &str, value: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains(flag) && err.contains(value), "stderr: {err}");
    assert!(out.stdout.is_empty(), "a rejected run must not measure");
}

#[test]
fn unknown_policy_exits_2_and_names_the_flag() {
    let out = tle(&["micro", "--policy", "bogus", "--ops", "100"]);
    assert_usage_error(&out, "--policy", "bogus");
}

#[test]
fn non_numeric_threads_exit_2_and_name_the_flag() {
    let out = tle(&["micro", "--threads", "abc", "--ops", "100"]);
    assert_usage_error(&out, "--threads", "abc");
}

#[test]
fn valid_flags_run_the_half_lookup_mix() {
    let out = tle(&[
        "micro",
        "--set",
        "list",
        "--policy",
        "selectnoq",
        "--threads",
        "2",
        "--ops",
        "500",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("list set, SelectNoQ policy, 2 threads"),
        "{stdout}"
    );
    assert!(stdout.contains("tm-stats: stm commits="), "{stdout}");
}
