//! Command-line contract of the bench binaries: an unknown flag or a
//! value that does not parse is a usage error, never a silently skipped
//! request.

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

/// A flag value that does not parse must exit with status 2 and name
/// the flag and the value, instead of running with the default or with
/// the entries that did parse.
#[test]
fn bad_flag_values_exit_with_status_2() {
    let fleet = env!("CARGO_BIN_EXE_fleet_bench");
    let integrity = env!("CARGO_BIN_EXE_integrity_bench");
    let serve = env!("CARGO_BIN_EXE_serve_bench");
    for (bin, flag, value) in [
        (serve, "--rps", "abc"),
        (serve, "--burst", "50:120"),
        (serve, "--seed", "x7"),
        (serve, "--checkpoint-every", "ten"),
        (fleet, "--crash", "1:3OO:500"),
        (fleet, "--autoscale", "1"),
        (fleet, "--gray-slow-factor", "1:300:six"),
        (fleet, "--formats", "p8e1,p9e9"),
        (integrity, "--bers", "1e-6,abc"),
    ] {
        let out = Command::new(bin)
            .args(["--quick", flag, value])
            .output()
            .expect("bench binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin} {flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{bin}: stderr names {flag} and {value}: {stderr}"
        );
    }
}
