//! Command-line contract of the bench binaries: an unknown flag is a
//! usage error, never a silently skipped request.

use std::process::Command;

/// A flag the binary does not know must exit with status 2 and name the
/// flag, so a stale flag in a script fails instead of skipping what it
/// asked for. Parsing runs before any model is built, so each call
/// returns at once.
#[test]
fn unknown_flags_exit_with_status_2() {
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_fleet_bench"), "--expect-gray-eject"),
        (env!("CARGO_BIN_EXE_integrity_bench"), "--expect-scrub"),
        (env!("CARGO_BIN_EXE_serve_bench"), "--smoke"),
    ] {
        let out = Command::new(bin)
            .args(["--quick", flag])
            .output()
            .expect("bench binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin} {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag),
            "{bin}: stderr names {flag}: {stderr}"
        );
    }
}
