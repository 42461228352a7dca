//! The composite shared uncore.
//!
//! This is the component both simulators plug their cores into (the paper's
//! BADCO machines are connected "to a detailed uncore simulator ... Our
//! uncore simulator was extracted from Zesto"). It owns:
//!
//! * the shared LLC with the replacement policy under study,
//! * the MSHR file (16 entries; concurrent misses to the same line merge),
//! * the FSB/DRAM bandwidth queue,
//! * per-core stream prefetchers trained on LLC demand misses,
//! * a single arbitrated port: one request per cycle, so simultaneous
//!   requests from different cores serialize (the multicore drivers call
//!   cores round-robin each cycle, matching the paper's arbitration).
//!
//! Timing is modelled with completion times rather than per-cycle events:
//! an access returns the core cycle at which its data is available. This
//! keeps the model deterministic and fast while preserving latency,
//! bandwidth and capacity contention between cores.
//!
//! Threads in a multiprogrammed workload are independent processes; the
//! uncore gives each core a disjoint physical address space by tagging
//! addresses with the core index (the paper's BADCO "allocates a new
//! physical page" per virtual page — distinct per thread).

use crate::cache::{AccessOutcome, AccessType, Cache, CacheStats};
use crate::config::UncoreConfig;
use crate::memory::MemoryModel;
use crate::prefetch::StreamPrefetcher;

/// Aggregate uncore statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UncoreStats {
    /// Demand requests seen (all cores).
    pub requests: u64,
    /// Requests that hit the LLC.
    pub llc_hits: u64,
    /// Requests that missed and went to memory.
    pub llc_misses: u64,
    /// Misses merged into an in-flight MSHR.
    pub mshr_merges: u64,
    /// Cycles requests spent waiting because all MSHRs were busy.
    pub mshr_stall_cycles: u64,
    /// Cycles requests spent waiting because the write buffer was full.
    pub wb_stall_cycles: u64,
    /// Prefetch lines requested from memory.
    pub prefetches: u64,
}

/// Per-lane mutable uncore state for batched simulation: everything the
/// scalar uncore owned besides the LLC arrays (which are lane-interleaved
/// inside [`Cache`]). One lane is one independent simulated machine;
/// lanes never read each other's state.
#[derive(Debug)]
struct LaneState {
    /// Cores attached to this lane's machine.
    cores: usize,
    /// This lane's private FSB/DRAM bandwidth queue (stateful: it carries
    /// the bus-free cycle between accesses).
    mem: MemoryModel,
    /// In-flight demand misses: `(physical line, completion cycle)` pairs.
    ///
    /// Bounded by `cfg.mshrs` (16 in the paper's Table II), so a linear
    /// scan beats a tree: the whole file fits in two cache lines and the
    /// steady state performs no allocation. Order is never observed —
    /// lookups are by line and retirement is by completion time.
    pending: Vec<(u64, u64)>,
    /// Single request port: next cycle a new request can be accepted.
    port_free: u64,
    /// Bus-departure times of in-flight writebacks (the write buffer).
    wb_pending: Vec<u64>,
    prefetchers: Vec<StreamPrefetcher>,
    stats: UncoreStats,
    /// Per-core demand misses (for MPKI accounting).
    core_misses: Vec<u64>,
    /// Per-core demand accesses.
    core_accesses: Vec<u64>,
    /// Per-core prefetch lines fetched from memory on the core's behalf.
    core_prefetches: Vec<u64>,
}

impl LaneState {
    fn new(cfg: &UncoreConfig, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        LaneState {
            cores,
            mem: MemoryModel::new(cfg.memory),
            pending: Vec::with_capacity(cfg.mshrs),
            port_free: 0,
            wb_pending: Vec::with_capacity(cfg.write_buffer + 1),
            prefetchers: (0..cores).map(|_| StreamPrefetcher::new(8, 2)).collect(),
            stats: UncoreStats::default(),
            core_misses: vec![0; cores],
            core_accesses: vec![0; cores],
            core_prefetches: vec![0; cores],
        }
    }

    /// Retires MSHRs whose miss has completed by `now`.
    fn drain(&mut self, now: u64) {
        self.pending.retain(|&(_, done)| done > now);
    }

    /// Completion cycle of the in-flight miss covering `line`, if any.
    #[inline]
    fn pending_done(&self, line: u64) -> Option<u64> {
        self.pending
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, done)| done)
    }
}

/// The shared uncore. See the module docs.
///
/// A scalar uncore is a 1-lane batch: [`Uncore::new`] delegates to
/// [`Uncore::new_batch`] with a single lane, and the lane-less methods
/// ([`Uncore::access`], [`Uncore::stats`], ...) address lane 0, so the
/// scalar and batched paths execute the same code.
#[derive(Debug)]
pub struct Uncore {
    cfg: UncoreConfig,
    llc: Cache,
    lanes: Vec<LaneState>,
}

/// Translates a core-local byte address to a global physical line number.
/// Each core gets a disjoint 1 TB window.
#[inline]
fn phys_line(cfg: &UncoreConfig, cores: usize, core: usize, addr: u64) -> u64 {
    debug_assert!(core < cores, "core {core} out of range");
    ((core as u64) << 40 | (addr & ((1 << 40) - 1))) / cfg.line_bytes
}

impl Uncore {
    /// Builds the uncore for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cfg: UncoreConfig, cores: usize) -> Self {
        Uncore::new_batch(cfg, &[cores])
    }

    /// Builds one uncore backing a whole batch of independent machines:
    /// `lane_cores[l]` cores on lane `l`, each lane with its own LLC
    /// contents/replacement state (lane-interleaved in one [`Cache`]),
    /// memory model, MSHRs, write buffer, port and statistics. Lane core
    /// counts may differ (ragged tail batches mix grid cells).
    ///
    /// # Panics
    ///
    /// Panics if `lane_cores` is empty or any entry is zero.
    pub fn new_batch(cfg: UncoreConfig, lane_cores: &[usize]) -> Self {
        assert!(!lane_cores.is_empty(), "need at least one lane");
        let llc = Cache::new_lanes(cfg.llc_sets(), cfg.llc_ways, cfg.policy, lane_cores.len());
        let lanes = lane_cores
            .iter()
            .map(|&c| LaneState::new(&cfg, c))
            .collect();
        Uncore { cfg, llc, lanes }
    }

    /// The configuration in use.
    pub fn config(&self) -> &UncoreConfig {
        &self.cfg
    }

    /// Number of cores attached (lane 0).
    pub fn cores(&self) -> usize {
        self.lanes[0].cores
    }

    /// Number of batch lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of cores attached to one lane.
    pub fn lane_cores(&self, lane: usize) -> usize {
        self.lanes[lane].cores
    }

    /// Issues a demand access from `core` for byte address `addr` at core
    /// cycle `now`; returns the cycle the data is available.
    ///
    /// `write` distinguishes stores/writebacks from loads (timing is
    /// identical; dirtiness and traffic accounting differ).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range (debug builds).
    pub fn access(&mut self, core: usize, addr: u64, write: bool, now: u64) -> u64 {
        self.access_lane(0, core, addr, write, now)
    }

    /// [`Uncore::access`] against one batch lane.
    pub fn access_lane(&mut self, l: usize, core: usize, addr: u64, write: bool, now: u64) -> u64 {
        let Uncore { cfg, llc, lanes } = self;
        let lane = &mut lanes[l];
        let line = phys_line(cfg, lane.cores, core, addr);
        lane.stats.requests += 1;
        lane.core_accesses[core] += 1;

        // Port arbitration: one request enters per cycle.
        let start = now.max(lane.port_free);
        lane.port_free = start + 1;
        // LLC array access.
        let t_hit = start + cfg.llc_latency;
        lane.drain(start);

        // MSHR merge: a miss to an in-flight line piggybacks on it.
        if let Some(done) = lane.pending_done(line) {
            lane.stats.mshr_merges += 1;
            return done.max(t_hit);
        }

        let kind = if write {
            AccessType::Write
        } else {
            AccessType::Read
        };
        match llc.access_lane(l, line, kind) {
            AccessOutcome::Hit => {
                lane.stats.llc_hits += 1;
                t_hit
            }
            AccessOutcome::Miss { writeback } => {
                lane.stats.llc_misses += 1;
                lane.core_misses[core] += 1;

                // MSHR occupancy: wait until one frees if all are busy.
                let mut issue = t_hit;
                if lane.pending.len() >= cfg.mshrs {
                    let earliest = lane
                        .pending
                        .iter()
                        .map(|&(_, done)| done)
                        .min()
                        .expect("pending non-empty when full");
                    if earliest > issue {
                        lane.stats.mshr_stall_cycles += earliest - issue;
                        issue = earliest;
                    }
                    lane.drain(issue);
                }

                if writeback.is_some() {
                    // Dirty victim: its writeback occupies a write-buffer
                    // entry until the bus carries it out; a full buffer
                    // stalls the miss (Table II: 8 entries).
                    lane.wb_pending.retain(|&t| t > issue);
                    if lane.wb_pending.len() >= cfg.write_buffer {
                        let earliest = *lane.wb_pending.iter().min().expect("non-empty when full");
                        lane.stats.wb_stall_cycles += earliest.saturating_sub(issue);
                        issue = issue.max(earliest);
                        lane.wb_pending.retain(|&t| t > issue);
                    }
                }
                let done = lane.mem.read_line(issue);
                if writeback.is_some() {
                    // Dirty victim: consumes bus bandwidth behind the read.
                    let freed = lane.mem.write_line(issue);
                    lane.wb_pending.push(freed);
                }
                lane.pending.push((line, done));

                // Train the core's stream prefetcher on the demand miss.
                if cfg.stream_prefetch {
                    let suggestions = lane.prefetchers[core].on_miss(line);
                    for pf_line in suggestions.into_iter().flatten() {
                        if !llc.probe_lane(l, pf_line) && lane.pending_done(pf_line).is_none() {
                            lane.stats.prefetches += 1;
                            lane.core_prefetches[core] += 1;
                            // Prefetch fills consume memory bandwidth but
                            // nobody waits on them.
                            let pf_done = lane.mem.read_line(issue);
                            if let AccessOutcome::Miss { writeback: Some(_) } =
                                llc.access_lane(l, pf_line, AccessType::Prefetch)
                            {
                                lane.mem.write_line(pf_done);
                            }
                        }
                    }
                }
                done
            }
        }
    }

    /// Issues a prefetch fill from a core's L1 prefetchers.
    ///
    /// Returns the cycle at which the line will be available, or `None`
    /// when the prefetch is dropped (all MSHRs busy) — prefetches are
    /// best-effort and never contend with demand misses for MSHRs. A line
    /// already resident (or already in flight) is "available" at its hit
    /// latency (resp. existing completion) without new traffic.
    pub fn prefetch(&mut self, core: usize, addr: u64, now: u64) -> Option<u64> {
        self.prefetch_lane(0, core, addr, now)
    }

    /// [`Uncore::prefetch`] against one batch lane.
    pub fn prefetch_lane(&mut self, l: usize, core: usize, addr: u64, now: u64) -> Option<u64> {
        let Uncore { cfg, llc, lanes } = self;
        let lane = &mut lanes[l];
        let line = phys_line(cfg, lane.cores, core, addr);
        lane.drain(now);
        if llc.probe_lane(l, line) {
            return Some(now + cfg.llc_latency);
        }
        if let Some(done) = lane.pending_done(line) {
            return Some(done);
        }
        if lane.pending.len() >= cfg.mshrs {
            return None;
        }
        lane.stats.prefetches += 1;
        lane.core_prefetches[core] += 1;
        let done = lane.mem.read_line(now);
        if let AccessOutcome::Miss { writeback: Some(_) } =
            llc.access_lane(l, line, AccessType::Prefetch)
        {
            let freed = lane.mem.write_line(done);
            lane.wb_pending.push(freed);
        }
        lane.pending.push((line, done));
        Some(done)
    }

    /// LLC statistics (lane 0).
    pub fn llc_stats(&self) -> CacheStats {
        self.llc.stats_lane(0)
    }

    /// LLC statistics for one batch lane.
    pub fn llc_stats_lane(&self, lane: usize) -> CacheStats {
        self.llc.stats_lane(lane)
    }

    /// Aggregate uncore statistics (lane 0).
    pub fn stats(&self) -> UncoreStats {
        self.lanes[0].stats
    }

    /// Aggregate uncore statistics for one batch lane.
    pub fn stats_lane(&self, lane: usize) -> UncoreStats {
        self.lanes[lane].stats
    }

    /// Demand misses suffered by one core (for MPKI; lane 0).
    pub fn core_misses(&self, core: usize) -> u64 {
        self.lanes[0].core_misses[core]
    }

    /// Demand misses suffered by one core of one batch lane.
    pub fn core_misses_lane(&self, lane: usize, core: usize) -> u64 {
        self.lanes[lane].core_misses[core]
    }

    /// Demand accesses issued by one core (lane 0).
    pub fn core_accesses(&self, core: usize) -> u64 {
        self.lanes[0].core_accesses[core]
    }

    /// Demand accesses issued by one core of one batch lane.
    pub fn core_accesses_lane(&self, lane: usize, core: usize) -> u64 {
        self.lanes[lane].core_accesses[core]
    }

    /// Prefetch lines fetched from memory on behalf of one core (lane 0).
    ///
    /// Memory-intensity (MPKI) accounting adds these to demand misses:
    /// prefetchers convert would-be demand misses into prefetch traffic,
    /// but the benchmark's pressure on memory is the same.
    pub fn core_prefetches(&self, core: usize) -> u64 {
        self.lanes[0].core_prefetches[core]
    }

    /// Prefetch lines fetched on behalf of one core of one batch lane.
    pub fn core_prefetches_lane(&self, lane: usize, core: usize) -> u64 {
        self.lanes[lane].core_prefetches[core]
    }

    /// (reads, writes) that reached memory (lane 0).
    pub fn memory_traffic(&self) -> (u64, u64) {
        self.lanes[0].mem.traffic()
    }

    /// (reads, writes) that reached memory from one batch lane.
    pub fn memory_traffic_lane(&self, lane: usize) -> (u64, u64) {
        self.lanes[lane].mem.traffic()
    }
}

/// Adds this uncore's lifetime event counts, summed over its lanes, to
/// the process-global `uncore.*` observability counters. Counting once
/// per uncore keeps shared atomics out of the per-access path; every
/// simulator run owns its uncore, so the counts land when the run ends.
impl Drop for Uncore {
    fn drop(&mut self) {
        let lanes = |f: fn(&UncoreStats) -> u64| self.lanes.iter().map(|l| f(&l.stats)).sum();
        let llc = |f: fn(&CacheStats) -> u64| {
            (0..self.lanes.len())
                .map(|l| f(&self.llc.stats_lane(l)))
                .sum()
        };
        mps_obs::counter("uncore.llc.accesses").add(lanes(|s| s.requests));
        mps_obs::counter("uncore.llc.hits").add(lanes(|s| s.llc_hits));
        mps_obs::counter("uncore.llc.misses").add(lanes(|s| s.llc_misses));
        mps_obs::counter("uncore.mshr.merges").add(lanes(|s| s.mshr_merges));
        mps_obs::counter("uncore.prefetches").add(lanes(|s| s.prefetches));
        mps_obs::counter("uncore.llc.evictions").add(llc(|s| s.evictions));
        mps_obs::counter("uncore.llc.writebacks").add(llc(|s| s.writebacks));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::PolicyKind;

    fn uncore(cores: usize) -> Uncore {
        Uncore::new(UncoreConfig::ispass2013(2, PolicyKind::Lru), cores)
    }

    #[test]
    fn cold_miss_pays_memory_latency() {
        let mut u = uncore(2);
        let done = u.access(0, 0x1000, false, 0);
        // port(0) + LLC 5 + bus 30 + DRAM 200
        assert_eq!(done, 235);
        assert_eq!(u.stats().llc_misses, 1);
    }

    #[test]
    fn hit_pays_llc_latency_only() {
        let mut u = uncore(2);
        let miss_done = u.access(0, 0x1000, false, 0);
        let hit_done = u.access(0, 0x1000, false, miss_done);
        assert_eq!(hit_done, miss_done + 5);
        assert_eq!(u.stats().llc_hits, 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut u = uncore(2);
        let d = u.access(0, 0x1000, false, 0);
        let d2 = u.access(0, 0x1008, false, d); // same 64-byte line
        assert_eq!(d2, d + 5);
    }

    #[test]
    fn cores_have_disjoint_address_spaces() {
        let mut u = uncore(2);
        let d0 = u.access(0, 0x1000, false, 0);
        // Core 1 touching the same virtual address must miss.
        let d1 = u.access(1, 0x1000, false, d0);
        assert!(d1 > d0 + 5, "expected a miss, got hit timing");
        assert_eq!(u.stats().llc_misses, 2);
    }

    #[test]
    fn mshr_merges_concurrent_misses_to_one_line() {
        let mut u = uncore(2);
        let d0 = u.access(0, 0x2000, false, 0);
        // Before d0 completes, another access to the same line merges.
        let d1 = u.access(0, 0x2008, false, 10);
        assert_eq!(d0, d1);
        assert_eq!(u.stats().mshr_merges, 1);
        assert_eq!(u.stats().llc_misses, 1);
    }

    #[test]
    fn port_serializes_simultaneous_requests() {
        let mut u = uncore(2);
        let a = u.access(0, 0x10_0000, false, 50);
        let b = u.access(1, 0x20_0000, false, 50);
        // Both miss; the second one's bus slot queues behind the first.
        assert!(b > a, "a={a} b={b}");
    }

    #[test]
    fn mshr_limit_stalls_excess_misses() {
        let cfg = UncoreConfig {
            mshrs: 2,
            stream_prefetch: false,
            ..UncoreConfig::ispass2013(2, PolicyKind::Lru)
        };
        let mut u = Uncore::new(cfg, 1);
        // Three distinct-line misses at the same instant: the third must
        // wait for an MSHR.
        u.access(0, 0x100_000, false, 0);
        u.access(0, 0x200_000, false, 0);
        u.access(0, 0x300_000, false, 0);
        assert!(u.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn sequential_misses_train_stream_prefetcher() {
        let mut u = uncore(1);
        let mut t = 0;
        for i in 0..20u64 {
            t = u.access(0, 0x10_0000 + i * 64, false, t);
        }
        assert!(u.stats().prefetches > 0);
        // Trained stream means later accesses hit on prefetched lines.
        assert!(u.stats().llc_hits > 0);
    }

    #[test]
    fn prefetch_can_be_disabled() {
        let cfg = UncoreConfig {
            stream_prefetch: false,
            ..UncoreConfig::ispass2013(2, PolicyKind::Lru)
        };
        let mut u = Uncore::new(cfg, 1);
        let mut t = 0;
        for i in 0..20u64 {
            t = u.access(0, 0x10_0000 + i * 64, false, t);
        }
        assert_eq!(u.stats().prefetches, 0);
    }

    #[test]
    fn per_core_miss_accounting() {
        let mut u = uncore(2);
        u.access(0, 0x1000, false, 0);
        u.access(0, 0x1000, false, 1000);
        u.access(1, 0x5_0000, false, 2000);
        assert_eq!(u.core_accesses(0), 2);
        assert_eq!(u.core_misses(0), 1);
        assert_eq!(u.core_accesses(1), 1);
        assert_eq!(u.core_misses(1), 1);
    }

    #[test]
    fn dirty_writeback_generates_memory_write() {
        // 1-set... smallest Table II LLC still has 1024 sets; use writes to
        // force dirty lines and then evict them with conflicting lines.
        let cfg = UncoreConfig {
            llc_size: 4 << 10, // 4 kB, 4-way, 64 B → 16 sets
            llc_ways: 4,
            stream_prefetch: false,
            ..UncoreConfig::ispass2013(2, PolicyKind::Lru)
        };
        let mut u = Uncore::new(cfg, 1);
        let mut t = 0;
        // Write 5 lines mapping to the same set (stride = sets × line).
        for i in 0..5u64 {
            t = u.access(0, i * 16 * 64, true, t) + 1;
        }
        let (_, writes) = u.memory_traffic();
        assert!(writes >= 1, "dirty eviction must write back");
    }

    #[test]
    fn full_write_buffer_stalls_misses() {
        let cfg = UncoreConfig {
            llc_size: 4 << 10, // 16 sets × 4 ways
            llc_ways: 4,
            write_buffer: 1,
            stream_prefetch: false,
            ..UncoreConfig::ispass2013(2, PolicyKind::Lru)
        };
        let mut u = Uncore::new(cfg, 1);
        // Fill set 0 with dirty lines, then stream more conflicting dirty
        // lines at the same instant: every miss evicts a dirty victim and
        // the single-entry write buffer must back-pressure.
        let mut t = 0;
        for i in 0..4u64 {
            t = u.access(0, i * 16 * 64, true, t);
        }
        for i in 4..10u64 {
            u.access(0, i * 16 * 64, true, t);
        }
        assert!(
            u.stats().wb_stall_cycles > 0,
            "single-entry write buffer must stall: {:?}",
            u.stats()
        );
    }

    #[test]
    fn batch_lanes_match_identically_driven_scalar_uncores() {
        // One 3-lane batch uncore vs three standalone scalar uncores fed
        // the same per-lane request streams: every returned completion
        // time and every statistic must be identical, with lanes
        // interleaved round-robin the way the batch kernel drives them.
        let cfg = || UncoreConfig::ispass2013(2, PolicyKind::Drrip);
        let lane_cores = [2usize, 1, 2];
        let mut batch = Uncore::new_batch(cfg(), &lane_cores);
        let mut scalars: Vec<_> = lane_cores.iter().map(|&c| Uncore::new(cfg(), c)).collect();
        let mut now = vec![0u64; lane_cores.len()];
        for i in 0..2000u64 {
            for (l, &cores) in lane_cores.iter().enumerate() {
                let x = i
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(l as u64 * 0x517C_C1B7);
                let core = (x as usize) % cores;
                let addr = (x >> 8) % (1 << 24);
                let write = x & 15 == 0;
                let got = batch.access_lane(l, core, addr, write, now[l]);
                let want = scalars[l].access(core, addr, write, now[l]);
                assert_eq!(got, want, "lane {l} access {i}");
                if x & 31 == 7 {
                    let gp = batch.prefetch_lane(l, core, addr ^ 0x40, now[l]);
                    let wp = scalars[l].prefetch(core, addr ^ 0x40, now[l]);
                    assert_eq!(gp, wp, "lane {l} prefetch {i}");
                }
                now[l] = got.max(now[l] + 1);
            }
        }
        for (l, s) in scalars.iter().enumerate() {
            assert_eq!(batch.stats_lane(l), s.stats(), "lane {l} uncore stats");
            assert_eq!(batch.llc_stats_lane(l), s.llc_stats(), "lane {l} llc");
            assert_eq!(batch.memory_traffic_lane(l), s.memory_traffic(), "lane {l}");
            for c in 0..lane_cores[l] {
                assert_eq!(batch.core_misses_lane(l, c), s.core_misses(c));
                assert_eq!(batch.core_accesses_lane(l, c), s.core_accesses(c));
                assert_eq!(batch.core_prefetches_lane(l, c), s.core_prefetches(c));
            }
        }
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut u = uncore(4);
            let mut t = 0;
            let mut trace = vec![];
            for i in 0..500u64 {
                let core = (i % 4) as usize;
                let addr = (i * 7919) % (1 << 22);
                t = u.access(core, addr, i % 5 == 0, t);
                trace.push(t);
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
