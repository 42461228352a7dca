//! Correctness checks: output digests and simulated-statistics counts,
//! compared against the references in `refs.tsv` or, for a seed without
//! references, against the first pass of the same run.

use crate::pass::Output;
use std::collections::{BTreeMap, BTreeSet};

/// The deterministic counts every pass records: benchmark name and the
/// `mps_obs` counter it reads.
pub const COUNTS: [(&str, &str); 8] = [
    ("workloads.synth_uops", "workloads.synth.uops"),
    ("badco.training_uops", "badco.model.training_uops"),
    ("sim_cpu.instructions", "sim.detailed.instructions"),
    ("sim_cpu.cycles", "sim.detailed.cycles"),
    ("uncore.llc_accesses", "uncore.llc.accesses"),
    ("uncore.llc_misses", "uncore.llc.misses"),
    ("badco.instructions", "sim.badco.instructions"),
    (
        "sampling.workloads_evaluated",
        "estimate.workloads_evaluated",
    ),
];

/// What one study must reproduce: a digest of each experiment's text and
/// CSV, and a value per count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    pub digests: BTreeMap<String, u64>,
    pub counts: BTreeMap<String, u64>,
}

/// The committed references, recorded with `--record` (see README.md).
const REFS: &str = include_str!("../refs.tsv");

/// The references for `workload` at `seed`, if any were recorded.
pub fn reference(workload: &str, seed: u64) -> Option<Expected> {
    let mut exp = Expected::default();
    for line in REFS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let [w, s, kind, key, value] = f[..] else {
            panic!("malformed refs.tsv line: {line}");
        };
        if w != workload || u64::from_str_radix(s, 16) != Ok(seed) {
            continue;
        }
        match kind {
            "digest" => exp
                .digests
                .insert(key.to_owned(), u64::from_str_radix(value, 16).expect("hex")),
            "count" => exp
                .counts
                .insert(key.to_owned(), value.parse().expect("decimal")),
            _ => panic!("malformed refs.tsv line: {line}"),
        };
    }
    (!exp.digests.is_empty()).then_some(exp)
}

/// Renders `exp` as `refs.tsv` lines for `workload` at `seed`.
pub fn reference_lines(workload: &str, seed: u64, exp: &Expected) -> String {
    let mut out = String::new();
    for (k, v) in &exp.digests {
        out.push_str(&format!("{workload}\t{seed:x}\tdigest\t{k}\t{v:016x}\n"));
    }
    for (k, v) in &exp.counts {
        out.push_str(&format!("{workload}\t{seed:x}\tcount\t{k}\t{v}\n"));
    }
    out
}

/// What a study produced, in the shape of [`Expected`].
pub fn observed(outputs: &[Output], counters: &BTreeMap<String, u64>) -> Expected {
    let mut digests = BTreeMap::new();
    for o in outputs {
        // The NUL keeps a text/CSV boundary shift from hashing the same.
        let both = format!("{}\0{}", o.text, o.csv);
        let both = if masked(o.name) {
            mask_numbers(&both)
        } else {
            both
        };
        digests.insert(o.name.to_owned(), mps_store::fnv1a64(both.as_bytes()));
    }
    let counts = COUNTS
        .iter()
        .map(|&(name, counter)| {
            let v = counters.get(counter).copied().unwrap_or(0);
            (name.to_owned(), v)
        })
        .collect();
    Expected { digests, counts }
}

/// Experiments whose output carries wall-clock measurements: Table III
/// prints measured MIPS and §VII-A derives CPU-hours from them.
fn masked(experiment: &str) -> bool {
    matches!(experiment, "table3" | "overhead")
}

/// Replaces every number with `#` and collapses runs of blanks, so only
/// labels, layout and the column count remain. Stricter than masking
/// decimals alone: `overhead` also prints measured percentages and ratios
/// such as `+724%` and `0.4x`.
pub fn mask_numbers(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for line in s.lines() {
        let mut masked = String::with_capacity(line.len());
        let mut in_number = false;
        for c in line.chars() {
            let numeric = c.is_ascii_digit() || (in_number && c == '.');
            if numeric {
                if !in_number {
                    masked.push('#');
                }
            } else {
                masked.push(c);
            }
            in_number = numeric;
        }
        out.push_str(&masked.split_whitespace().collect::<Vec<_>>().join(" "));
        out.push('\n');
    }
    out
}

/// The experiments of `got` whose text or CSV differs from `want`.
pub fn output_mismatches(want: &Expected, got: &Expected) -> BTreeSet<String> {
    got.digests
        .iter()
        .filter(|(exp, digest)| want.digests.get(*exp) != Some(digest))
        .map(|(exp, _)| exp.clone())
        .collect()
}

/// The counts of `got` that differ from `want`, described.
pub fn count_mismatches(want: &Expected, got: &Expected) -> Vec<String> {
    got.counts
        .iter()
        .filter(|(name, value)| want.counts.get(*name) != Some(value))
        .map(|(name, value)| format!("{name} = {value}, expected {:?}", want.counts.get(name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_keeps_labels_and_hides_measurements() {
        let a = "  30 detailed   =   0.3 cpu*s (99% confidence: +724% )\n";
        let b = "  30 detailed   =  12.25 cpu*s (99% confidence: +88% )\n";
        assert_eq!(mask_numbers(a), mask_numbers(b));
        assert_eq!(
            mask_numbers(a),
            "# detailed = # cpu*s (#% confidence: +#% )\n"
        );
        assert_ne!(mask_numbers("LRU 1.0"), mask_numbers("DIP 1.0"));
    }

    #[test]
    fn reference_lines_are_tab_separated() {
        let mut exp = Expected::default();
        exp.digests.insert("fig1".into(), 0xDEAD_BEEF);
        exp.counts.insert("sim_cpu.cycles".into(), 42);
        let lines = reference_lines("w", 0xC0FFEE, &exp);
        assert_eq!(
            lines,
            "w\tc0ffee\tdigest\tfig1\t00000000deadbeef\nw\tc0ffee\tcount\tsim_cpu.cycles\t42\n"
        );
    }
}
