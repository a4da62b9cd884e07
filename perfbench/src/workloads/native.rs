//! `walk_native`: one Rocket hart per flavour, a uniform-random trace over
//! a 64 MiB user arena — sixteen times the L2 TLB's 4 MiB reach, so about
//! 94% of accesses walk — replayed through `Machine::access` under
//! Penglai-PMP, -PMPT and -HPMP. The walker, PWC, checker, cache hierarchy
//! and PhysMem do the work; the monitor sits idle after boot.

use std::time::Instant;

use hpmp_memsim::{CoreKind, PrivMode, SplitMix64, VirtAddr};
use hpmp_penglai::TeeFlavor;
use hpmp_trace::Snapshot;
use hpmp_workloads::arena::UserArena;
use hpmp_workloads::{TeeBench, FLAVORS};

use super::{count, machine_counts, uniform_trace, Step};
use crate::calib::{self, AccessTimers};
use crate::host::Reference;
use crate::report::Report;
use crate::{
    check_digests, digest, put_layers, put_setup, ratio, stats, timed_rounds, Ctx, SetupTime,
    Timings, SETUP_REPS,
};

/// Arena size: 64 MiB.
const ARENA_PAGES: u64 = 16 * 1024;
/// Steps of the measured trace; one pass fixes the simulated metrics.
const TRACE_LEN: usize = 1 << 17;
/// Steps replayed to warm the modelled caches before statistics reset.
const WARM_LEN: usize = 1 << 14;
/// Steps per flavour in one timed round.
const CHUNK: usize = 1 << 12;

struct Flavour {
    flavor: TeeFlavor,
    tee: TeeBench,
    arena: UserArena,
}

impl Flavour {
    /// Replays `steps`, timing each access into `timers` when given.
    /// Returns the number of faulting accesses.
    fn replay(&mut self, steps: &[Step], mut timers: Option<&mut AccessTimers>) -> u64 {
        let TeeBench { machine, os, .. } = &mut self.tee;
        let space = os.space_of(self.arena.pid).expect("arena process");
        let mut faults = 0;
        for step in steps {
            let va = self.arena.va(step.offset);
            match timers.as_deref_mut() {
                None => {
                    faults += u64::from(
                        machine
                            .access(space, va, step.kind, PrivMode::User)
                            .is_err(),
                    )
                }
                Some(t) => {
                    let start = Instant::now();
                    let out = machine.access(space, va, step.kind, PrivMode::User);
                    let ns = start.elapsed().as_nanos() as f64;
                    match out {
                        Ok(o) if o.tlb_hit.is_some() => t.hit.push(ns),
                        Ok(_) => t.walk.push(ns),
                        Err(_) => faults += 1,
                    }
                }
            }
        }
        faults
    }
}

/// Boots every flavour and maps its arena.
fn setup() -> (Vec<Flavour>, SetupTime) {
    let mut time = SetupTime::default();
    let flavours = FLAVORS
        .iter()
        .map(|&flavor| {
            let t = Instant::now();
            let mut tee = TeeBench::boot(flavor, CoreKind::Rocket);
            time.boot_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let arena = UserArena::create(&mut tee.os, &mut tee.machine, ARENA_PAGES)
                .expect("64 MiB arena fits the data GMS");
            time.map_s += t.elapsed().as_secs_f64();
            Flavour { flavor, tee, arena }
        })
        .collect();
    (flavours, time)
}

fn snapshots(flavours: &mut [Flavour]) -> Vec<Snapshot> {
    flavours
        .iter_mut()
        .map(|f| f.tee.machine.metrics_snapshot())
        .collect()
}

fn reset(flavours: &mut [Flavour]) {
    for f in flavours {
        f.tee.machine.reset_stats();
    }
}

/// Simulated cycles per access of `flavor` in `snaps`.
fn cycles_per_access(flavours: &[Flavour], snaps: &[Snapshot], flavor: TeeFlavor) -> f64 {
    let i = flavours
        .iter()
        .position(|f| f.flavor == flavor)
        .expect("flavour present");
    ratio(
        snaps[i].value("machine.cycles") as f64,
        snaps[i].value("machine.accesses") as f64,
    )
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let mut rng = SplitMix64::seed_from_u64(ctx.seed);
    let bytes = ARENA_PAGES * hpmp_memsim::PAGE_SIZE;
    let warm = uniform_trace(&mut rng, bytes, WARM_LEN);
    let trace = uniform_trace(&mut rng, bytes, TRACE_LEN);

    // Each repetition sets up from scratch and replays the whole trace
    // once; the simulated counters of that pass must repeat exactly.
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut state = None;
    let mut host = Reference::default();
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition first, so peak RSS counts one.
        drop(state.take());
        let ((mut flavours, time), slowdown) = host.around(setup);
        setups.push(time.scaled(slowdown));
        let mut faults = 0;
        for f in &mut flavours {
            faults += f.replay(&warm, None);
            f.tee.machine.reset_stats();
            faults += f.replay(&trace, None);
        }
        rep.tally(((WARM_LEN + TRACE_LEN) * flavours.len()) as u64, faults);
        let snaps = snapshots(&mut flavours);
        digests.push(digest(&snaps));
        state = Some((flavours, snaps));
    }
    check_digests(&digests, rep);
    put_setup(ctx, &setups, rep);
    let (mut flavours, snaps) = state.expect("at least one repetition");

    for (f, snap) in flavours.iter().zip(&snaps) {
        let accounting = f.tee.machine.verify_accounting();
        rep.check(accounting.is_ok(), || {
            format!("{}: {accounting:?}", f.flavor)
        });
        // The paper's claim: HPMP issues no permission-table reads for
        // page-table pages, which PMPT must issue.
        let pt_pmptes = snap.value("machine.refs.pmpte_for_pt");
        let claim = match f.flavor {
            TeeFlavor::PenglaiHpmp => pt_pmptes == 0,
            TeeFlavor::PenglaiPmpt => pt_pmptes > 0,
            TeeFlavor::PenglaiPmp => true,
        };
        rep.check(claim, || {
            format!("{}: machine.refs.pmpte_for_pt = {pt_pmptes}", f.flavor)
        });
    }

    let chunks = TRACE_LEN / CHUNK;
    let round_ops = (CHUNK * flavours.len()) as f64;
    let mut faults = 0;
    let mut round = |r: usize, flavours: &mut [Flavour], mut timers: Option<&mut AccessTimers>| {
        let steps = &trace[(r % chunks) * CHUNK..][..CHUNK];
        for f in flavours.iter_mut() {
            faults += f.replay(steps, timers.as_deref_mut());
        }
    };

    if !ctx.traced {
        let hpmp = cycles_per_access(&flavours, &snaps, TeeFlavor::PenglaiHpmp);
        let pmp = cycles_per_access(&flavours, &snaps, TeeFlavor::PenglaiPmp);
        rep.put("sim_cycles_per_op", hpmp);
        rep.put("sim_hpmp_overhead_pct", (hpmp / pmp - 1.0) * 100.0);
        let secs = timed_rounds(ctx.phase(), 1, |r| round(r, &mut flavours, None));
        let rates: Vec<f64> = secs.iter().map(|s| round_ops / s).collect();
        rep.put("ops_per_s", stats::median(&rates));
        rep.tally((secs.len() as f64 * round_ops) as u64, faults);
        return;
    }

    let untraced = timed_rounds(ctx.phase(), 1, |r| round(r, &mut flavours, None));
    reset(&mut flavours);
    let mut timers = AccessTimers::default();
    let traced = timed_rounds(ctx.phase(), 1, |r| {
        round(r, &mut flavours, Some(&mut timers))
    });
    let ops = (untraced.len() + traced.len()) as f64 * round_ops;
    rep.tally(ops as u64, faults);
    let snaps = snapshots(&mut flavours);
    let counts = machine_counts(&snaps, &["machine.".to_string()]);

    let mut timings = Timings::new();
    let measured_s = (timers.hit.total() + timers.walk.total()) * 1e-9;
    timings.insert("machine.access.hit", std::mem::take(&mut timers.hit));
    timings.insert("machine.access.walk", std::mem::take(&mut timers.walk));
    let hpmp = flavours
        .iter_mut()
        .find(|f| f.flavor == TeeFlavor::PenglaiHpmp)
        .expect("HPMP flavour");
    let vas: Vec<VirtAddr> = trace
        .iter()
        .take(1 << 14)
        .map(|s| hpmp.arena.va(s.offset))
        .collect();
    let space = hpmp.tee.os.space_of(hpmp.arena.pid).expect("arena process");
    calib::native_layers(&hpmp.tee.machine, space, &vas, &mut timings);
    calib::snapshot_layer(&mut timings, || hpmp.tee.machine.metrics_snapshot().len());
    calib::virt_stand_in(ctx.seed, &mut timings);
    let mut smp = calib::boot_smp(TeeFlavor::PenglaiHpmp);
    calib::monitor_stand_in(&mut smp, rep, &mut timings);
    calib::fork_layers(&smp, ctx.seed, 200, rep, &mut timings);

    let model = [
        (count(&counts, "paging.tlb.lookups"), "paging.tlb.lookup"),
        (count(&counts, "paging.walker.walks"), "paging.walker.walk"),
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
