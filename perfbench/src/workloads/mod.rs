//! The four workloads. Each runs all of its flavours over one seeded input,
//! warms the modelled caches and resets the statistics before its timed
//! phase, and reports through a [`crate::report::Report`].

pub mod bmc;
pub mod churn;
pub mod native;
pub mod virt;

use hpmp_memsim::{AccessKind, SplitMix64};
use hpmp_trace::Snapshot;

use crate::ratio;

/// One step of a data-access trace: a byte offset into the workload's
/// memory and whether it writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Byte offset, 8-byte aligned.
    pub offset: u64,
    /// Store (30% of steps) or load.
    pub kind: AccessKind,
}

/// A uniform-random trace of `len` steps over `bytes` bytes, 30% writes.
pub fn uniform_trace(rng: &mut SplitMix64, bytes: u64, len: usize) -> Vec<Step> {
    (0..len)
        .map(|_| Step {
            offset: rng.gen_range(0..bytes) & !7,
            kind: if rng.gen_range(0..10) < 3 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        })
        .collect()
}

/// Sum of counter `name` under each of `prefixes` across `snaps`.
pub fn sum(snaps: &[Snapshot], prefixes: &[String], name: &str) -> f64 {
    snaps
        .iter()
        .flat_map(|s| prefixes.iter().map(move |p| s.value(&format!("{p}{name}"))))
        .sum::<u64>() as f64
}

/// The per-layer counts of native machines (`Machine` snapshots, counters
/// under each of `prefixes`), as `(metric, value)` pairs. Counts the
/// snapshots do not hold directly are derived from the reference
/// breakdown: every PT-page read and every walked data page is one
/// checker call, every pmpte read and PT-page read one PhysMem read, and a
/// two-level table walk reads two pmptes.
pub fn machine_counts(snaps: &[Snapshot], prefixes: &[String]) -> Vec<(&'static str, f64)> {
    let v = |name: &str| sum(snaps, prefixes, name);
    let tlb_hits = v("dtlb.l1_hits") + v("dtlb.l2_hits");
    let tlb_lookups = tlb_hits + v("dtlb.misses");
    let pwc_lookups = v("pwc.hits") + v("pwc.misses");
    let pmptw_hits = v("pmptw_cache.leaf_hits") + v("pmptw_cache.root_hits");
    let pmptw_lookups = pmptw_hits + v("pmptw_cache.misses");
    let pmpte_reads = v("refs.pmpte_for_pt") + v("refs.pmpte_for_data");
    let llc = v("mem.llc.hits") + v("mem.llc.misses");
    vec![
        ("machine.accesses", v("accesses")),
        ("paging.tlb.lookups", tlb_lookups),
        ("paging.tlb.hit_ratio", ratio(tlb_hits, tlb_lookups)),
        ("paging.pwc.lookups", pwc_lookups),
        ("paging.pwc.hit_ratio", ratio(v("pwc.hits"), pwc_lookups)),
        ("paging.walker.walks", v("walks")),
        ("core.checker.checks", v("refs.pt_reads") + v("walks")),
        ("core.pmptw_cache.lookups", pmptw_lookups),
        (
            "core.pmptw_cache.hit_ratio",
            ratio(pmptw_hits, pmptw_lookups),
        ),
        ("core.table.walks", (pmpte_reads / 2.0).ceil()),
        ("memsim.hierarchy.accesses", v("mem.accesses")),
        (
            "memsim.hierarchy.llc_miss_ratio",
            ratio(v("mem.llc.misses"), llc),
        ),
        ("memsim.physmem.reads", v("refs.pt_reads") + pmpte_reads),
    ]
}

/// The value of `name` in `counts` (0 when absent).
pub fn count(counts: &[(&str, f64)], name: &str) -> f64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}
