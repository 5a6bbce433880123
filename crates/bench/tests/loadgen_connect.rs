//! `loadgen --connect` drives a remote `revmatch-server`, which owns its
//! configuration. The flags that configure the in-process service are
//! usage errors there, rejected before any connection attempt, and no
//! in-process setting is echoed as if it described the server.

use std::process::{Command, Output};

/// Runs loadgen against a loopback port nothing listens on, so a
/// connection attempt fails at once.
fn loadgen_connect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--connect", "127.0.0.1:1"])
        .args(args)
        .output()
        .expect("run loadgen")
}

fn first_stderr_line(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    stderr.lines().next().unwrap_or_default().to_owned()
}

#[test]
fn in_process_flags_are_usage_errors_under_connect() {
    // Values the in-process mode accepts, so only --connect rejects them.
    for (flag, value) in [
        ("shards", "7"),
        ("queue-capacity", "8"),
        ("epsilon", "0.01"),
        ("sat-opts", "none"),
        ("quantum-backend", "dense"),
        ("trace", "trace.json"),
        ("trace-sample", "2"),
        ("admission", "1"),
        ("overload-us", "100"),
        ("expensive-us", "10"),
    ] {
        let out = loadgen_connect(&[&format!("--{flag}"), value]);
        assert_eq!(out.status.code(), Some(2), "--{flag}: {out:?}");
        let line = first_stderr_line(&out);
        assert!(line.contains(&format!("--{flag} ")), "--{flag}: {line}");
        assert!(
            out.stdout.is_empty(),
            "--{flag}: output before the rejection"
        );
    }
}

#[test]
fn traffic_flags_pass_and_no_in_process_setting_is_echoed() {
    let out = loadgen_connect(&[
        "--sat-verify",
        "1",
        "--seed",
        "3",
        "--widths",
        "5",
        "--mix",
        "NP-I",
        "--job-mix",
        "promise:sat",
        "--rate",
        "100",
        "--duration-ms",
        "100",
        "--connections",
        "1",
    ]);
    // Past flag validation the run fails only at the unreachable address.
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let line = first_stderr_line(&out);
    assert!(line.contains("--connect 127.0.0.1:1"), "{line}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("promise jobs SAT-verified"), "{stdout}");
    for echo in [
        "sat opts:",
        "oracle kernel:",
        "quantum backend:",
        "shards",
        "lane capacity",
    ] {
        assert!(
            !stdout.contains(echo),
            "{echo:?} echoed under --connect:\n{stdout}"
        );
    }
}
