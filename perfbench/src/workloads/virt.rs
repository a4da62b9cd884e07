//! `walk_virt`: a guest of 4096 pages — four times the L2 TLB's reach —
//! under Figure 13's four schemes (PMP, PMPT, HPMP, HPMP-GPT), driven by
//! one uniform-random trace through `VirtMachine::access`. The only
//! workload in which the 3-D nested walk runs; the native walker and the
//! monitor do not.

use std::time::Instant;

use hpmp_machine::{MachineConfig, VirtMachine, VirtScheme};
use hpmp_memsim::{AccessKind, SplitMix64, VirtAddr, PAGE_SIZE};
use hpmp_penglai::TeeFlavor;
use hpmp_trace::Snapshot;

use super::{count, sum, uniform_trace, Step};
use crate::calib::{self, AccessTimers};
use crate::host::Reference;
use crate::report::Report;
use crate::{
    check_digests, digest, put_layers, put_setup, ratio, stats, timed_rounds, Ctx, SetupTime,
    Timings, SETUP_REPS,
};

const SCHEMES: [VirtScheme; 4] = [
    VirtScheme::Pmp,
    VirtScheme::PmpTable,
    VirtScheme::Hpmp,
    VirtScheme::HpmpGpt,
];
/// Guest data pages: 16 MiB.
const GUEST_PAGES: u64 = 4096;
/// Guest VA of the first data page (the `VirtMachine` layout).
const GUEST_BASE: u64 = 0x20_0000;
const TRACE_LEN: usize = 1 << 16;
const WARM_LEN: usize = 1 << 14;
const CHUNK: usize = 1 << 11;

/// Replays `steps` on `vm`, timing each access into `timers` (hits in
/// `hit`, walks in `walk`) when given. Returns the number of faults.
fn replay(vm: &mut VirtMachine, steps: &[Step], mut timers: Option<&mut AccessTimers>) -> u64 {
    let mut faults = 0;
    for step in steps {
        let gva = VirtAddr::new(GUEST_BASE + step.offset);
        match timers.as_deref_mut() {
            None => faults += u64::from(vm.access(gva, step.kind).is_err()),
            Some(t) => {
                let start = Instant::now();
                let out = vm.access(gva, step.kind);
                let ns = start.elapsed().as_nanos() as f64;
                match out {
                    Ok(o) if o.tlb_hit => t.hit.push(ns),
                    Ok(_) => t.walk.push(ns),
                    Err(_) => faults += 1,
                }
            }
        }
    }
    faults
}

/// Builds every scheme's machine and touches each guest page once.
fn setup() -> (Vec<VirtMachine>, SetupTime, u64) {
    let mut time = SetupTime::default();
    let mut faults = 0;
    let vms = SCHEMES
        .iter()
        .map(|&scheme| {
            let t = Instant::now();
            let mut vm = VirtMachine::new(MachineConfig::rocket(), scheme, GUEST_PAGES);
            time.boot_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            for page in 0..GUEST_PAGES {
                let gva = VirtAddr::new(GUEST_BASE + page * PAGE_SIZE);
                faults += u64::from(vm.access(gva, AccessKind::Write).is_err());
            }
            time.map_s += t.elapsed().as_secs_f64();
            vm
        })
        .collect();
    (vms, time, faults)
}

fn snapshots(vms: &mut [VirtMachine]) -> Vec<Snapshot> {
    vms.iter_mut().map(VirtMachine::metrics_snapshot).collect()
}

fn cycles_per_access(snaps: &[Snapshot], scheme: VirtScheme) -> f64 {
    let i = SCHEMES.iter().position(|&s| s == scheme).expect("scheme");
    ratio(
        snaps[i].value("virt.cycles") as f64,
        snaps[i].value("virt.accesses") as f64,
    )
}

/// Per-layer counts of guest machines, derived as for native machines:
/// every nested- or guest-PT read and every walked data page is one
/// checker call.
fn virt_counts(snaps: &[Snapshot]) -> Vec<(&'static str, f64)> {
    let p = ["virt.".to_string()];
    let v = |name: &str| sum(snaps, &p, name);
    let tlb_hits = v("tlb.l1_hits") + v("tlb.l2_hits");
    let tlb_lookups = tlb_hits + v("tlb.misses");
    let pwc_lookups = v("gpwc.hits") + v("gpwc.misses");
    let pmptw_hits = v("pmptw_cache.leaf_hits") + v("pmptw_cache.root_hits");
    let pmptw_lookups = pmptw_hits + v("pmptw_cache.misses");
    let pmpte_reads = v("refs.pmpte_for_npt") + v("refs.pmpte_for_gpt") + v("refs.pmpte_for_data");
    let pt_reads = v("refs.npt_reads") + v("refs.gpt_reads");
    let llc = v("mem.llc.hits") + v("mem.llc.misses");
    vec![
        ("machine.accesses", v("accesses")),
        ("paging.tlb.lookups", tlb_lookups),
        ("paging.tlb.hit_ratio", ratio(tlb_hits, tlb_lookups)),
        ("paging.pwc.lookups", pwc_lookups),
        ("paging.pwc.hit_ratio", ratio(v("gpwc.hits"), pwc_lookups)),
        ("paging.nested.walks", v("walks")),
        ("core.checker.checks", pt_reads + v("walks")),
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
        ("memsim.physmem.reads", pt_reads + pmpte_reads),
    ]
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let mut rng = SplitMix64::seed_from_u64(ctx.seed);
    let bytes = GUEST_PAGES * PAGE_SIZE;
    let warm = uniform_trace(&mut rng, bytes, WARM_LEN);
    let trace = uniform_trace(&mut rng, bytes, TRACE_LEN);

    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut state = None;
    let mut host = Reference::default();
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition first, so peak RSS counts one.
        drop(state.take());
        let ((mut vms, time, mut faults), slowdown) = host.around(setup);
        setups.push(time.scaled(slowdown));
        for vm in &mut vms {
            faults += replay(vm, &warm, None);
            vm.reset_stats();
            faults += replay(vm, &trace, None);
        }
        let touched = GUEST_PAGES as usize + WARM_LEN + TRACE_LEN;
        rep.tally((touched * vms.len()) as u64, faults);
        let snaps = snapshots(&mut vms);
        digests.push(digest(&snaps));
        state = Some((vms, snaps));
    }
    check_digests(&digests, rep);
    put_setup(ctx, &setups, rep);
    let (mut vms, snaps) = state.expect("at least one repetition");
    for (vm, scheme) in vms.iter().zip(SCHEMES) {
        let accounting = vm.verify_accounting();
        rep.check(accounting.is_ok(), || format!("{scheme}: {accounting:?}"));
    }

    let chunks = TRACE_LEN / CHUNK;
    let round_ops = (CHUNK * vms.len()) as f64;
    let mut faults = 0;
    let mut round = |r: usize, vms: &mut [VirtMachine], mut timers: Option<&mut AccessTimers>| {
        let steps = &trace[(r % chunks) * CHUNK..][..CHUNK];
        for vm in vms.iter_mut() {
            faults += replay(vm, steps, timers.as_deref_mut());
        }
    };

    if !ctx.traced {
        let gpt = cycles_per_access(&snaps, VirtScheme::HpmpGpt);
        let pmp = cycles_per_access(&snaps, VirtScheme::Pmp);
        rep.put("sim_cycles_per_op", gpt);
        rep.put("sim_hpmp_overhead_pct", (gpt / pmp - 1.0) * 100.0);
        let secs = timed_rounds(ctx.phase(), 1, |r| round(r, &mut vms, None));
        let rates: Vec<f64> = secs.iter().map(|s| round_ops / s).collect();
        rep.put("ops_per_s", stats::median(&rates));
        rep.tally((secs.len() as f64 * round_ops) as u64, faults);
        return;
    }

    let untraced = timed_rounds(ctx.phase(), 1, |r| round(r, &mut vms, None));
    for vm in &mut vms {
        vm.reset_stats();
    }
    let mut timers = AccessTimers::default();
    let traced = timed_rounds(ctx.phase(), 1, |r| round(r, &mut vms, Some(&mut timers)));
    rep.tally(
        ((untraced.len() + traced.len()) as f64 * round_ops) as u64,
        faults,
    );
    let snaps = snapshots(&mut vms);
    let counts = virt_counts(&snaps);

    let mut timings = Timings::new();
    let measured_s = (timers.hit.total() + timers.walk.total()) * 1e-9;
    timings.insert("machine.virt_access.walk", std::mem::take(&mut timers.walk));
    calib::nested_layer(ctx.seed, GUEST_PAGES, &mut timings);
    let gpt = vms.last_mut().expect("HPMP-GPT machine");
    calib::snapshot_layer(&mut timings, || gpt.metrics_snapshot().len());
    calib::native_stand_in(ctx.seed, GUEST_PAGES, &mut timings);
    let mut smp = calib::boot_smp(TeeFlavor::PenglaiHpmp);
    calib::monitor_stand_in(&mut smp, rep, &mut timings);
    calib::fork_layers(&smp, ctx.seed, 200, rep, &mut timings);

    let model = [
        (count(&counts, "paging.tlb.lookups"), "paging.tlb.lookup"),
        (count(&counts, "paging.nested.walks"), "paging.nested.walk"),
        (count(&counts, "core.checker.checks"), "core.checker.check"),
        (
            count(&counts, "memsim.hierarchy.accesses"),
            "memsim.hierarchy.access",
        ),
    ];
    let per_op = |secs: &[f64]| stats::median(secs) / round_ops * 1e9;
    put_layers(
        rep,
        &timings,
        &counts,
        &model,
        measured_s,
        per_op(&untraced),
        per_op(&traced),
    );
}
