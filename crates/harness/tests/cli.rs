//! `repro` argument validation: an out-of-range `--frame` or
//! `--trace-gbps`, an unknown flag or an unknown experiment must exit 1
//! with a message before any simulation starts, never panic inside the
//! packet builder or the bandwidth constructor, and never run the
//! experiments named before the bad argument.

use std::process::Command;

/// Runs `repro args` and asserts it exits 1 with `needle` on stderr and
/// nothing on stdout (no run started).
fn assert_rejected(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} started a run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn frame_outside_ethernet_limits_is_rejected() {
    for value in ["63", "1519", "9000", "abc"] {
        assert_rejected(&["--profile", "--frame", value], "--frame");
    }
}

#[test]
fn trace_rate_must_be_finite_and_positive() {
    for value in ["0", "-5", "nan", "inf", "abc"] {
        assert_rejected(&["--profile", "--trace-gbps", value], "--trace-gbps");
    }
}

/// A typo after a valid experiment must not run that experiment first,
/// a typo after `all` must not start the full sweep, and an experiment
/// beside a single-point flag must not be dropped for the point run.
#[test]
fn unknown_arguments_fail_before_any_experiment_runs() {
    assert_rejected(&["table1", "--qiuck"], "unknown flag \"--qiuck\"");
    assert_rejected(&["all", "--qiuck"], "unknown flag \"--qiuck\"");
    assert_rejected(&["--bogus"], "unknown flag \"--bogus\"");
    assert_rejected(&["table1", "fig99"], "unknown experiment \"fig99\"");
    assert_rejected(&["--profile", "table1"], "single-point mode");
    assert_rejected(&["--trace", "t.trace", "all"], "single-point mode");
}
