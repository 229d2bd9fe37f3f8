//! The command lines of `tle micro`, `tle-torture` and `tle-trace`: a
//! malformed flag value is a usage error (exit 2, the flag named on
//! stderr), never a silently substituted default configuration.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn tle(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_tle"), args)
}

fn assert_usage_error(bin: &str, args: &[&str], flag: &str, value: &str) {
    let out = run(bin, args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains(flag) && err.contains(value), "stderr: {err}");
    assert!(out.stdout.is_empty(), "a rejected run must not measure");
}

#[test]
fn unknown_policy_exits_2_and_names_the_flag() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_tle"),
        &["micro", "--policy", "bogus", "--ops", "100"],
        "--policy",
        "bogus",
    );
}

#[test]
fn non_numeric_threads_exit_2_and_name_the_flag() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_tle"),
        &["micro", "--threads", "abc", "--ops", "100"],
        "--threads",
        "abc",
    );
}

#[test]
fn torture_non_numeric_seed_exits_2_and_names_the_flag() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_tle-torture"),
        &["--seed", "notanumber", "--mode", "baseline"],
        "--seed",
        "notanumber",
    );
}

#[test]
fn trace_non_numeric_faults_exits_2_and_names_the_flag() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_tle-trace"),
        &["summary", "--faults", "abc", "--ops", "100"],
        "--faults",
        "abc",
    );
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
