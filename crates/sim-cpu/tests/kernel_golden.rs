//! Kernel-equivalence golden test: a fixed grid of detailed simulations
//! whose every result field (except wall time) is folded into one FNV-1a
//! digest, pinned below.
//!
//! The grid covers the kernel's observable surface at debug-test cost:
//! twelve 2-core pairs spread over LRU, DIP, DRRIP and RND (three pairs
//! per policy, mixing memory-bound and compute-bound benchmarks), plus
//! one set of 4-core lanes. Every cell runs twice — through a multi-lane
//! [`run_batch`] and through the scalar [`MulticoreSim::run`] — and the
//! two must agree field for field before either is digested.
//!
//! A change to the detailed core that is meant to be timing-identical
//! (a scheduler rewrite, a memo removed, a data-structure swap) must
//! leave [`KERNEL_DIGEST`] unchanged. A change meant to alter timing
//! re-pins it and says so in the changelog.
//!
//! The root package registers this file too, so the tier-1 command runs
//! it.

use mps_sim_cpu::{run_batch, CoreConfig, MulticoreSim, SimResult};
use mps_uncore::{PolicyKind, Uncore, UncoreConfig};
use mps_workloads::{benchmark_by_name, TraceBuffer, TraceSource};
use std::sync::Arc;

/// FNV-1a digest of the grid below.
const KERNEL_DIGEST: u64 = 0xf804_a16f_5e8e_907d;

/// Instructions per thread: long enough that every thread restarts or
/// misses in the LLC a few times, short enough for a debug build.
const N: u64 = 600;

/// Three 2-core pairs per policy, memory-bound and compute-bound mixed.
const PAIRS: [(PolicyKind, [&str; 2]); 12] = [
    (PolicyKind::Lru, ["mcf", "libquantum"]),
    (PolicyKind::Lru, ["povray", "soplex"]),
    (PolicyKind::Lru, ["gcc", "hmmer"]),
    (PolicyKind::Dip, ["omnetpp", "bzip2"]),
    (PolicyKind::Dip, ["milc", "leslie3d"]),
    (PolicyKind::Dip, ["astar", "sjeng"]),
    (PolicyKind::Drrip, ["bwaves", "gobmk"]),
    (PolicyKind::Drrip, ["mcf", "zeusmp"]),
    (PolicyKind::Drrip, ["cactusADM", "namd"]),
    (PolicyKind::Random, ["libquantum", "soplex"]),
    (PolicyKind::Random, ["h264ref", "dealII"]),
    (PolicyKind::Random, ["perlbench", "gromacs"]),
];

/// The 4-core lanes, run as one batch under DRRIP.
const QUADS: [[&str; 4]; 2] = [
    ["mcf", "povray", "libquantum", "gcc"],
    ["soplex", "bzip2", "calculix", "omnetpp"],
];

/// The machine the harness's experiments simulate.
fn uncore_cfg(cores: usize, policy: PolicyKind) -> UncoreConfig {
    UncoreConfig::ispass2013_scaled(cores, policy, 16)
}

fn traces(names: &[&str]) -> Vec<Box<dyn TraceSource>> {
    names
        .iter()
        .map(|name| {
            let spec = benchmark_by_name(name).unwrap_or_else(|| panic!("{name} not in suite"));
            let buf = Arc::new(TraceBuffer::capture(&mut spec.trace(), N));
            Box::new(buf.cursor()) as Box<dyn TraceSource>
        })
        .collect()
}

fn scalar(policy: PolicyKind, names: &[&str]) -> SimResult {
    let uncore = Uncore::new(uncore_cfg(names.len(), policy), names.len());
    MulticoreSim::new(CoreConfig::ispass2013(), uncore, traces(names)).run(N)
}

fn batch(policy: PolicyKind, cores: usize, lanes: &[&[&str]]) -> Vec<SimResult> {
    run_batch(
        &CoreConfig::ispass2013(),
        &uncore_cfg(cores, policy),
        lanes.iter().map(|names| traces(names)).collect(),
        N,
    )
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, xs: impl IntoIterator<Item = u64>) {
        for x in xs {
            self.word(x);
        }
    }
}

/// Every `SimResult` field except `wall_seconds`, in declaration order.
fn digest_result(h: &mut Fnv, r: &SimResult) {
    h.words(r.ipc.iter().map(|x| x.to_bits()));
    h.words(r.finish_cycles.iter().copied());
    h.word(r.total_cycles);
    h.word(r.instructions);
    for s in &r.core_stats {
        h.words([
            s.committed,
            s.branches,
            s.mispredicts,
            s.dl1_accesses,
            s.dl1_misses,
            s.il1_accesses,
            s.il1_misses,
            s.dtlb_misses,
            s.itlb_misses,
        ]);
    }
    h.words(r.llc_misses_per_core.iter().copied());
    h.words(r.llc_prefetches_per_core.iter().copied());
    h.words(r.midpoint_traffic.iter().flat_map(|&(a, b)| [a, b]));
    h.words(r.finish_traffic.iter().flat_map(|&(a, b)| [a, b]));
    let u = &r.uncore_stats;
    h.words([
        u.requests,
        u.llc_hits,
        u.llc_misses,
        u.mshr_merges,
        u.mshr_stall_cycles,
        u.wb_stall_cycles,
        u.prefetches,
    ]);
}

/// Asserts the batched lane equals its scalar run in every digested
/// field, so a digest mismatch always points at the kernel itself.
fn assert_same(got: &SimResult, want: &SimResult, tag: &str) {
    let mut a = Fnv(0xcbf2_9ce4_8422_2325);
    let mut b = Fnv(0xcbf2_9ce4_8422_2325);
    digest_result(&mut a, got);
    digest_result(&mut b, want);
    assert_eq!(a.0, b.0, "{tag}: batched lane differs from its scalar run");
}

#[test]
fn kernel_digest_is_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for policy in [
        PolicyKind::Lru,
        PolicyKind::Dip,
        PolicyKind::Drrip,
        PolicyKind::Random,
    ] {
        let lanes: Vec<&[&str]> = PAIRS
            .iter()
            .filter(|(p, _)| *p == policy)
            .map(|(_, names)| names.as_slice())
            .collect();
        let batched = batch(policy, 2, &lanes);
        for (names, got) in lanes.iter().zip(&batched) {
            let want = scalar(policy, names);
            assert_same(got, &want, &format!("{policy:?} {names:?}"));
            digest_result(&mut h, got);
        }
    }
    let quads: Vec<&[&str]> = QUADS.iter().map(|q| q.as_slice()).collect();
    let batched = batch(PolicyKind::Drrip, 4, &quads);
    for (names, got) in quads.iter().zip(&batched) {
        let want = scalar(PolicyKind::Drrip, names);
        assert_same(got, &want, &format!("4-core {names:?}"));
        digest_result(&mut h, got);
    }
    assert_eq!(
        h.0, KERNEL_DIGEST,
        "detailed-kernel results changed: digest {:#018x}",
        h.0
    );
}
