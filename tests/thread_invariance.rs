//! Thread-invariance: the whole pipeline is bit-identical for every
//! `--jobs` value.
//!
//! This is the end-to-end proof behind the `mps-par` determinism contract
//! (see `crates/par`): experiment grids fan out over a work-stealing pool,
//! yet every derived artifact — report text, CSV export, even the cache
//! accounting — must not depend on the worker count or on how the steals
//! interleaved. A single run at `jobs = 1` is the reference; runs at 2 and
//! 8 workers (more workers than some grids have items) must reproduce it
//! byte for byte.

use mps::harness::experiments as exp;
use mps::harness::export::CsvExport;
use mps::harness::{Scale, StudyCacheStats, StudyContext};

/// Smaller even than `Scale::test()`: this suite runs every experiment
/// three times, so it trims every knob that does not change which parallel
/// code paths execute.
fn mini() -> Scale {
    Scale {
        trace_len: 1_000,
        pop_4core: 24,
        pop_8core: 12,
        confidence_samples: 60,
        detailed_sample: 4,
        accuracy_workloads: 2,
        sample_sizes: vec![4, 8],
        seed: 0xC0FFEE,
    }
}

/// The artifacts one `(fig3, table4)` grid produces under `--out`:
/// `(name, contents)` pairs plus the context's cache accounting.
fn run_grid(jobs: usize) -> (Vec<(&'static str, String)>, StudyCacheStats) {
    let ctx = StudyContext::builder()
        .scale(mini())
        .jobs(jobs)
        .build()
        .unwrap();
    assert_eq!(ctx.jobs(), jobs);
    let fig3 = exp::fig3(&ctx).unwrap();
    let table4 = exp::table4(&ctx).unwrap();
    let files = vec![
        ("fig3.txt", fig3.to_string()),
        ("fig3.csv", fig3.csv()),
        ("table4.txt", table4.to_string()),
        ("table4.csv", table4.csv()),
    ];
    (files, ctx.cache_stats())
}

#[test]
fn fig3_and_table4_artifacts_are_jobs_invariant() {
    let base = std::env::temp_dir().join(format!("mps-invariance-{}", std::process::id()));
    let (ref_files, ref_stats) = run_grid(1);
    // Write the reference artifacts the way `mps-harness --out DIR` does,
    // so the comparison below is over file bytes, not just strings.
    let ref_dir = base.join("jobs1");
    std::fs::create_dir_all(&ref_dir).unwrap();
    for (name, contents) in &ref_files {
        std::fs::write(ref_dir.join(name), contents).unwrap();
    }
    for jobs in [2usize, 8] {
        let (files, stats) = run_grid(jobs);
        assert_eq!(stats, ref_stats, "cache accounting differs at jobs={jobs}");
        let dir = base.join(format!("jobs{jobs}"));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, contents) in &files {
            std::fs::write(dir.join(name), contents).unwrap();
        }
        for (name, _) in &files {
            let got = std::fs::read(dir.join(name)).unwrap();
            let want = std::fs::read(ref_dir.join(name)).unwrap();
            assert_eq!(got, want, "{name} differs between jobs=1 and jobs={jobs}");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn validation_report_is_jobs_invariant() {
    // The validation sweep fans detailed+BADCO cells over the worker pool
    // and merges group statistics afterwards; its canonical renderings
    // (JSONL and CSV — the artifacts CI compares across MPS_JOBS values)
    // must come out byte-identical for every worker count.
    let opts = mps::harness::ValidateOptions {
        core_counts: vec![2, 4],
        policies: vec![mps::uncore::PolicyKind::Lru],
        workloads_per_group: 3,
        perturb: 1.0,
        scalar: false,
    };
    let reference = {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(1)
            .build()
            .unwrap();
        mps::harness::validate::run(&ctx, &opts).unwrap()
    };
    for jobs in [2usize, 8] {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(jobs)
            .build()
            .unwrap();
        let run = mps::harness::validate::run(&ctx, &opts).unwrap();
        assert_eq!(
            run.to_jsonl(),
            reference.to_jsonl(),
            "validation JSONL differs at jobs={jobs}"
        );
        assert_eq!(
            run.csv(),
            reference.csv(),
            "validation CSV differs at jobs={jobs}"
        );
    }
}

#[test]
fn batched_kernel_artifacts_are_batch_and_jobs_invariant() {
    // The lockstep batch kernel (PR 8) promises byte-identical study
    // artifacts at any `--batch` width: a lane inside a batched call runs
    // the same cycle-by-cycle schedule as a scalar `MulticoreSim::run`.
    // fig3/fig6/fig7 exercise the population + throughput-table + detailed
    // confidence loops, fig4/energy/fig2 the multi-policy and mixed
    // core-count detailed fan-outs, and the validation sweep covers the
    // remaining detailed path; all must reproduce the batch=1 rendering
    // exactly, whatever batch width and worker count schedule the cells.
    let opts = mps::harness::ValidateOptions {
        core_counts: vec![2],
        policies: vec![mps::uncore::PolicyKind::Lru],
        workloads_per_group: 3,
        perturb: 1.0,
        scalar: false,
    };
    let artifacts = |batch: usize, jobs: usize| -> Vec<(&'static str, String)> {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(jobs)
            .batch(batch)
            .build()
            .unwrap();
        assert_eq!(ctx.batch(), batch);
        let validate = mps::harness::validate::run(&ctx, &opts).unwrap();
        let fig4 = exp::fig4(&ctx).unwrap();
        let fig2 = exp::fig2(&ctx).unwrap();
        let energy = exp::energy(&ctx).unwrap();
        vec![
            ("fig3.csv", exp::fig3(&ctx).unwrap().csv()),
            ("fig6.csv", exp::fig6(&ctx).unwrap().csv()),
            ("fig7.csv", exp::fig7(&ctx).unwrap().csv()),
            ("fig4.txt", fig4.to_string()),
            ("fig4.csv", fig4.csv()),
            ("fig2.txt", fig2.to_string()),
            ("fig2.csv", fig2.csv()),
            ("energy.txt", energy.to_string()),
            // The energy report has no CSV export; its Debug rendering
            // carries every value at full precision instead.
            ("energy.debug", format!("{energy:?}")),
            ("validate.jsonl", validate.to_jsonl()),
            ("validate.csv", validate.csv()),
        ]
    };
    let reference = artifacts(1, 1);
    for batch in [4usize, 16] {
        for jobs in [1usize, 4] {
            let run = artifacts(batch, jobs);
            for ((name, want), (_, got)) in reference.iter().zip(&run) {
                assert_eq!(
                    got, want,
                    "{name} differs between batch=1/jobs=1 and batch={batch}/jobs={jobs}"
                );
            }
        }
    }
}

#[test]
fn artifacts_are_worker_process_invariant() {
    // The distributed coordinator (PR 9) shards the same grids across
    // worker *processes*, claiming cells through store leases and merging
    // results in index order. The contract is the same as for threads:
    // any worker count × any jobs split must reproduce the
    // single-process rendering byte for byte. The reference deliberately
    // runs without a store so the comparison also re-proves that a
    // store-backed distributed run equals a storeless in-memory one.
    let opts = mps::harness::ValidateOptions {
        core_counts: vec![2],
        policies: vec![mps::uncore::PolicyKind::Lru],
        workloads_per_group: 3,
        perturb: 1.0,
        scalar: false,
    };
    let artifacts = |ctx: &StudyContext| -> Vec<(&'static str, String)> {
        let validate = mps::harness::validate::run(ctx, &opts).unwrap();
        vec![
            ("fig3.csv", exp::fig3(ctx).unwrap().csv()),
            ("fig6.csv", exp::fig6(ctx).unwrap().csv()),
            ("fig7.csv", exp::fig7(ctx).unwrap().csv()),
            ("validate.jsonl", validate.to_jsonl()),
            ("validate.csv", validate.csv()),
        ]
    };
    let reference = {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(1)
            .build()
            .unwrap();
        artifacts(&ctx)
    };
    let base = std::env::temp_dir().join(format!("mps-dist-invariance-{}", std::process::id()));
    for workers in [1usize, 2, 4] {
        for jobs in [1usize, 4] {
            // Telemetry federation (PR 10) is fire-and-forget: whether it
            // is disabled outright or severed mid-flight must not change
            // a single artifact byte, so two combos run degraded. Safe to
            // toggle here: this is the only worker-spawning test in this
            // binary, and the vars only affect distributed runs.
            match (workers, jobs) {
                (2, 4) => std::env::set_var("MPS_DIST_TELEMETRY", "0"),
                (4, 1) => std::env::set_var("MPS_DIST_DROP_TELEMETRY", "1"),
                _ => {}
            }
            let dir = base.join(format!("w{workers}j{jobs}"));
            let _ = std::fs::remove_dir_all(&dir);
            let ctx = StudyContext::builder()
                .scale(mini())
                .jobs(jobs)
                .workers(workers)
                .store(&dir)
                .build()
                .unwrap();
            assert!(
                ctx.coordinator().is_some(),
                "workers={workers} should start a coordinator"
            );
            let run = artifacts(&ctx);
            for ((name, want), (_, got)) in reference.iter().zip(&run) {
                assert_eq!(
                    got, want,
                    "{name} differs between single-process and workers={workers}/jobs={jobs}"
                );
            }
            // Distributed runs must actually distribute: at least one cell
            // computed by a worker process, none re-issued in a clean run.
            let prov = ctx.coordinator().unwrap().provenance();
            assert!(
                prov.cells_remote > 0,
                "workers={workers}/jobs={jobs}: no cell was computed remotely"
            );
            drop(ctx); // shuts the coordinator and its workers down
            std::env::remove_var("MPS_DIST_TELEMETRY");
            std::env::remove_var("MPS_DIST_DROP_TELEMETRY");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn resampling_confidence_is_jobs_invariant() {
    // fig7 leans hardest on the parallel resampler (empirical_confidence
    // across methods × sample sizes), so its curves are the sharpest
    // single check that per-sample RNG streams derive from the sample
    // index and not from scheduling order.
    let reference = {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(1)
            .build()
            .unwrap();
        exp::fig7(&ctx).unwrap()
    };
    for jobs in [2usize, 8] {
        let ctx = StudyContext::builder()
            .scale(mini())
            .jobs(jobs)
            .build()
            .unwrap();
        let run = exp::fig7(&ctx).unwrap();
        assert_eq!(
            run.csv(),
            reference.csv(),
            "fig7 confidence curves differ at jobs={jobs}"
        );
    }
}
