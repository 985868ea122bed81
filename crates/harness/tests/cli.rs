//! `repro` argument validation: an out-of-range `--frame` or
//! `--trace-gbps` must exit 1 with a message naming the flag before any
//! simulation starts, never panic inside the packet builder or the
//! bandwidth constructor.

use std::process::Command;

fn assert_rejected(flag: &str, value: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--profile", flag, value])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
    assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{flag} {value} started a run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn frame_outside_ethernet_limits_is_rejected() {
    for value in ["63", "1519", "9000", "abc"] {
        assert_rejected("--frame", value);
    }
}

#[test]
fn trace_rate_must_be_finite_and_positive() {
    for value in ["0", "-5", "nan", "inf", "abc"] {
        assert_rejected("--trace-gbps", value);
    }
}
