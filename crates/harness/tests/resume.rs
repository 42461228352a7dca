//! End-to-end durability tests against the real `mps-harness` binary:
//! a run killed mid-grid (via the `MPS_ABORT_AFTER_CELLS` test hook,
//! which calls `abort()` right after a cell artifact is written) must,
//! after `--resume`, produce output byte-identical to an uninterrupted
//! run — at both `--jobs 1` and `--jobs 4`, and also when one stored cell
//! is torn — and a warm store must serve reruns from hits instead of
//! recomputing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory removed on drop (best-effort).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mps-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating scratch dir");
        TempDir(dir)
    }

    fn path(&self, sub: &str) -> PathBuf {
        self.0.join(sub)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn harness(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mps-harness"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    // Keep the child insulated from ambient configuration.
    cmd.env_remove("MPS_STORE").env_remove("MPS_JOBS");
    cmd.output().expect("spawning mps-harness")
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Parses the hit count out of the binary's trailing
/// `store: N hits, M misses, ...` stderr summary.
fn store_hits(output: &Output) -> u64 {
    let stderr = String::from_utf8_lossy(&output.stderr);
    let line = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with("store: "))
        .unwrap_or_else(|| panic!("no store summary in stderr:\n{stderr}"));
    line.strip_prefix("store: ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable store summary: {line}"))
}

/// Parses the `N <label>` count (e.g. `corrupt`) out of the binary's
/// trailing `store: N hits, M misses, ...` stderr summary.
fn store_count(output: &Output, label: &str) -> u64 {
    let stderr = String::from_utf8_lossy(&output.stderr);
    let line = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with("store: "))
        .unwrap_or_else(|| panic!("no store summary in stderr:\n{stderr}"));
    line.trim_start_matches("store: ")
        .split(", ")
        .find_map(|part| part.strip_suffix(&format!(" {label}")))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no '{label}' count in store summary: {line}"))
}

/// The per-cell result artifacts (`artifacts/cell-*.mps`) in a store.
fn cell_artifacts(store: &Path) -> Vec<PathBuf> {
    let mut cells: Vec<PathBuf> = std::fs::read_dir(store.join("artifacts"))
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    cells.retain(|p| {
        p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("cell-") && n.ends_with(".mps"))
    });
    cells.sort();
    cells
}

fn kill_and_resume_is_byte_identical(jobs: &str) {
    let tmp = TempDir::new(&format!("fig3-j{jobs}"));
    let store = tmp.path("store");
    let (reference, interrupted) = (tmp.path("ref"), tmp.path("int"));
    let common = ["fig3", "--scale", "test", "--jobs", jobs];

    // Uninterrupted reference, no store involved at all.
    let out = harness(
        &[&common[..], &["--out", reference.to_str().unwrap()]].concat(),
        &[],
    );
    assert!(out.status.success(), "reference run failed: {out:?}");

    // The same study, killed after a few grid cells...
    let args = [
        &common[..],
        &[
            "--store",
            store.to_str().unwrap(),
            "--out",
            interrupted.to_str().unwrap(),
        ],
    ]
    .concat();
    let out = harness(&args, &[("MPS_ABORT_AFTER_CELLS", "2")]);
    assert!(
        !out.status.success(),
        "abort hook should have killed the run: {out:?}"
    );
    assert!(
        !cell_artifacts(&store).is_empty(),
        "killed run left no cell artifact"
    );

    // ...then resumed: reuses the stored cells, finishes the rest.
    let out = harness(&[&args[..], &["--resume"]].concat(), &[]);
    assert!(out.status.success(), "resumed run failed: {out:?}");

    for file in ["fig3.txt", "fig3.csv"] {
        assert_eq!(
            read(&reference.join(file)),
            read(&interrupted.join(file)),
            "{file} differs between uninterrupted and killed-then-resumed runs at --jobs {jobs}"
        );
    }
}

#[test]
fn killed_run_resumes_byte_identically_jobs_1() {
    kill_and_resume_is_byte_identical("1");
}

#[test]
fn killed_run_resumes_byte_identically_jobs_4() {
    kill_and_resume_is_byte_identical("4");
}

#[test]
fn torn_cell_artifact_is_recomputed_on_resume() {
    let tmp = TempDir::new("torn");
    let store = tmp.path("store");
    let (reference, interrupted) = (tmp.path("ref"), tmp.path("int"));
    let common = ["fig3", "--scale", "test", "--jobs", "2"];
    let out = harness(
        &[&common[..], &["--out", reference.to_str().unwrap()]].concat(),
        &[],
    );
    assert!(out.status.success(), "reference run failed: {out:?}");

    let args = [
        &common[..],
        &[
            "--store",
            store.to_str().unwrap(),
            "--out",
            interrupted.to_str().unwrap(),
        ],
    ]
    .concat();
    let out = harness(&args, &[("MPS_ABORT_AFTER_CELLS", "2")]);
    assert!(
        !out.status.success(),
        "abort hook should have killed the run: {out:?}"
    );

    // Tear one stored cell the way a crash mid-write would: the record
    // loses its tail (footer included).
    let cells = cell_artifacts(&store);
    let torn = cells.first().expect("killed run left no cell artifact");
    let bytes = read(torn);
    std::fs::write(torn, &bytes[..bytes.len() / 2]).expect("tearing a cell artifact");

    let out = harness(&[&args[..], &["--resume"]].concat(), &[]);
    assert!(out.status.success(), "resumed run failed: {out:?}");
    assert!(
        store_count(&out, "corrupt") >= 1,
        "the torn cell must be detected as corrupt: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for file in ["fig3.txt", "fig3.csv"] {
        assert_eq!(
            read(&reference.join(file)),
            read(&interrupted.join(file)),
            "{file} differs between uninterrupted and torn-then-resumed runs"
        );
    }
}

#[test]
fn warm_store_serves_tables_from_hits() {
    let tmp = TempDir::new("warm");
    let store = tmp.path("store");
    let (cold_out, warm_out) = (tmp.path("cold"), tmp.path("warm"));
    let args = |out: &Path| {
        vec![
            "table1".to_owned(),
            "table2".to_owned(),
            "table4".to_owned(),
            "--scale".to_owned(),
            "test".to_owned(),
            "--jobs".to_owned(),
            "2".to_owned(),
            "--store".to_owned(),
            store.to_str().unwrap().to_owned(),
            "--out".to_owned(),
            out.to_str().unwrap().to_owned(),
        ]
    };

    let cold_args = args(&cold_out);
    let cold = harness(
        &cold_args.iter().map(String::as_str).collect::<Vec<_>>(),
        &[],
    );
    assert!(cold.status.success(), "cold run failed: {cold:?}");
    assert_eq!(store_hits(&cold), 0, "a fresh store cannot have hits");

    let warm_args = args(&warm_out);
    let warm = harness(
        &warm_args.iter().map(String::as_str).collect::<Vec<_>>(),
        &[],
    );
    assert!(warm.status.success(), "warm run failed: {warm:?}");
    assert!(
        store_hits(&warm) >= 1,
        "warm rerun should hit the store: {}",
        String::from_utf8_lossy(&warm.stderr)
    );

    // Serving from the store must not change the rendered outputs.
    for file in ["table1.txt", "table2.txt", "table4.txt", "table4.csv"] {
        assert_eq!(
            read(&cold_out.join(file)),
            read(&warm_out.join(file)),
            "{file} differs between cold and warm store runs"
        );
    }
}

#[test]
fn no_store_flag_disables_persistence() {
    let tmp = TempDir::new("nostore");
    let out_dir = tmp.path("out");
    // MPS_STORE is stripped by `harness()`, so pass the store via flag and
    // then override it with --no-store: nothing may be written.
    let store = tmp.path("store");
    let out = harness(
        &[
            "table1",
            "--scale",
            "test",
            "--store",
            store.to_str().unwrap(),
            "--no-store",
            "--out",
            out_dir.to_str().unwrap(),
        ],
        &[],
    );
    assert!(out.status.success(), "--no-store run failed: {out:?}");
    assert!(
        !store.exists(),
        "--no-store must win over --store, but the store dir was created"
    );
    assert!(out_dir.join("table1.txt").exists());
}
