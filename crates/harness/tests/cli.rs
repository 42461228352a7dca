//! The `mps-harness` command-line contract: which flags each subcommand
//! accepts, the exit codes of malformed command lines, `--batch 0`
//! meaning auto, and the ledger record `validate` leaves behind. Every
//! child runs with the `MPS_*` environment removed; only the ledger case
//! runs the (test-scale) simulators.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the binary with `args`, no `MPS_*` variables but `envs`.
fn harness(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mps-harness"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MPS_") {
            cmd.env_remove(key);
        }
    }
    cmd.args(args).envs(envs.iter().copied());
    cmd.output().expect("spawning mps-harness")
}

fn exit_code(args: &[&str]) -> i32 {
    let out = harness(args, &[]);
    out.status
        .code()
        .unwrap_or_else(|| panic!("{args:?} was killed by a signal"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mps-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating scratch dir");
    dir
}

/// Each shared run flag with a missing value, then with invalid ones.
const SHARED_FLAGS: &[(&str, &[&str])] = &[
    ("--scale", &["", "huge"]),
    ("--jobs", &["", "x", "-1"]),
    ("--batch", &["", "x", "-1"]),
    ("--store", &[""]),
    ("--out", &[""]),
    ("--workers", &["", "x"]),
    ("--dist-addr", &[""]),
    ("--lease-ttl", &["", "0", "x"]),
    ("--metrics-addr", &[""]),
];

#[test]
fn shared_flags_reject_missing_and_invalid_values_in_run_and_validate() {
    for sub in [["run", "table1"], ["validate", "--no-store"]] {
        for &(flag, bad) in SHARED_FLAGS {
            let missing = [&sub[..], &[flag]].concat();
            assert_eq!(exit_code(&missing), 2, "{missing:?}");
            for value in bad {
                let args = [&sub[..], &[flag, value]].concat();
                assert_eq!(exit_code(&args), 2, "{args:?}");
            }
        }
    }
}

#[test]
fn subcommands_accept_only_their_own_flags() {
    assert_eq!(exit_code(&["run", "--perturb", "1"]), 2);
    assert_eq!(exit_code(&["validate", "--retries", "1"]), 2);
    assert_eq!(exit_code(&["validate", "--trace", "t.jsonl"]), 2);
    assert_eq!(exit_code(&["run", "no-such-experiment"]), 2);
    assert_eq!(exit_code(&["no-such-experiment"]), 2);
}

#[test]
fn help_exits_zero() {
    for sub in [&[][..], &["run"], &["validate"], &["worker"]] {
        let args = [sub, &["--help"]].concat();
        assert_eq!(exit_code(&args), 0, "{args:?}");
    }
}

#[test]
fn batch_zero_is_auto() {
    let dir = scratch("batch");
    let trace = dir.join("trace.jsonl");
    let args = [
        "table1",
        "--scale",
        "test",
        "--no-store",
        "--batch",
        "0",
        "--trace",
        trace.to_str().expect("utf-8 temp path"),
    ];
    let out = harness(&args, &[("MPS_BATCH", "2")]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&trace).expect("reading the trace");
    let start = text
        .lines()
        .find(|l| l.contains("\"name\":\"harness.start\""))
        .unwrap_or_else(|| panic!("no harness.start event in\n{text}"));
    assert!(start.contains("\"batch\":\"2\""), "{start}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validate_ledger_record_carries_the_common_fields() {
    let dir = scratch("ledger");
    let store = dir.join("store");
    let store = store.to_str().expect("utf-8 temp path");
    let out = harness(&["validate", "--store", store], &[]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.lines().any(|l| l.starts_with("store: ")), "{stderr}");
    let shown = harness(&["runs", "show", "last", "--store", store], &[]);
    assert!(shown.status.success(), "{shown:?}");
    let record = String::from_utf8_lossy(&shown.stdout);
    for field in [
        "config_hash",
        "started_at_unix",
        "failures",
        "validate.mean_abs_err",
    ] {
        assert!(
            record
                .lines()
                .any(|l| l.starts_with(&format!("{field} = "))),
            "no {field} in\n{record}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
