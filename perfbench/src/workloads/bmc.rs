//! `bmc`: the bounded model checker at depth 3 over two harts, for each
//! flavour. No access stream: the time goes to forking `SmpSystem` state,
//! applying monitor ops, fingerprinting and the oracle probe. The search
//! itself is exhaustive and takes no seed; the seed drives the random op
//! walks that calibrate the four steps. Depth 3 keeps one search near
//! 0.2 s, so a run holds enough searches for a steady throughput.

use std::time::Instant;

use hpmp_memsim::SplitMix64;
use hpmp_modelcheck::bmc::boot_system;
use hpmp_modelcheck::{run_bmc, BmcConfig, BmcReport};
use hpmp_penglai::{SmpSystem, TeeFlavor};
use hpmp_workloads::FLAVORS;

use crate::calib::{self, random_op};
use crate::host::Reference;
use crate::report::Report;
use crate::{
    check_digests, digest, put_layers, put_setup, ratio, stats, timed_rounds, BmcCounts, Ctx,
    SetupTime, Timings, SETUP_REPS,
};

/// Search depth (k).
pub const DEPTH: usize = 3;
/// Transitions of the op walk that fixes the simulated metrics.
const WALK_OPS: usize = 256;
/// Seed of that walk. The search takes no seed, and neither do the
/// metrics describing it; the run's seed drives the traced run's walks.
const WALK_SEED: u64 = 0x4850_4d50;
/// Transitions the traced run times per flavour.
const TRACED_OPS: usize = 200;

/// The search configuration of `flavor`: `hpmp-verify bmc`'s defaults at
/// [`DEPTH`].
pub fn config(flavor: TeeFlavor) -> BmcConfig {
    BmcConfig {
        flavor,
        depth: DEPTH,
        ..BmcConfig::default()
    }
}

/// The `hpmp-verify --flavor` name of `flavor`.
pub fn flavor_key(flavor: TeeFlavor) -> &'static str {
    match flavor {
        TeeFlavor::PenglaiPmp => "pmp",
        TeeFlavor::PenglaiPmpt => "pmpt",
        TeeFlavor::PenglaiHpmp => "hpmp",
    }
}

/// Checks one search: no counterexample, and the counts `hpmp-verify bmc`
/// printed for the same configuration, when given.
pub fn check_report(report: &BmcReport, expected: Option<&BmcCounts>, rep: &mut Report) {
    let flavor = report.config.flavor;
    rep.check(report.counterexample.is_none(), || {
        format!(
            "{flavor}: counterexample {}",
            report
                .counterexample
                .as_ref()
                .map(ToString::to_string)
                .unwrap_or_default()
        )
    });
    if let Some(want) = expected {
        let got = BmcCounts {
            explored: report.states_explored,
            pruned: report.states_pruned,
            transitions: report.transitions,
        };
        rep.check(got == *want, || {
            format!("{flavor}: search counts {got:?}, hpmp-verify printed {want:?}")
        });
    }
}

/// A seeded random walk of [`WALK_OPS`] transitions from `root`,
/// restarting every eight as a bounded search would. Returns the
/// simulated cycles per transition and the digest of the walk's
/// counters.
fn sim_walk(root: &SmpSystem, seed: u64, rep: &mut Report) -> (f64, u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut cycles = 0;
    let mut snaps = Vec::new();
    let mut state = root.clone();
    for step in 0..WALK_OPS {
        if step % 8 == 0 {
            snaps.push(state.metrics_snapshot());
            state = root.clone();
        }
        let op = random_op(&state, &mut rng);
        let before = state.global_cycles();
        let applied = hpmp_modelcheck::schedule::apply(&mut state, op);
        rep.check(applied.is_ok(), || {
            format!("random op `{op}` could not be issued")
        });
        cycles += state.global_cycles() - before;
    }
    snaps.push(state.metrics_snapshot());
    (cycles as f64 / WALK_OPS as f64, digest(&snaps))
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut state = None;
    let mut host = Reference::default();
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition first, so peak RSS counts one.
        drop(state.take());
        let mut time = SetupTime::default();
        let mut roots = Vec::new();
        let mut sims = Vec::new();
        let ((), slowdown) = host.around(|| {
            for flavor in FLAVORS {
                let t = Instant::now();
                let root = boot_system(&config(flavor));
                time.boot_s += t.elapsed().as_secs_f64();
                // The walks' first transitions create the domains they work on.
                let t = Instant::now();
                let (per_op, walk_digest) = sim_walk(&root, WALK_SEED, rep);
                time.map_s += t.elapsed().as_secs_f64();
                sims.push((flavor, per_op));
                digests.push(walk_digest);
                roots.push((flavor, root));
            }
        });
        setups.push(time.scaled(slowdown));
        state = Some((roots, sims));
    }
    let per_rep = FLAVORS.len();
    for f in 0..per_rep {
        let of_flavour: Vec<u64> = digests.iter().skip(f).step_by(per_rep).copied().collect();
        check_digests(&of_flavour, rep);
    }
    put_setup(ctx, &setups, rep);
    let (roots, sims) = state.expect("at least one repetition");

    // Rounds cycle through the flavours; each is one whole search.
    let mut reports: Vec<Option<BmcReport>> = vec![None; FLAVORS.len()];
    let mut secs_of: Vec<Vec<f64>> = vec![Vec::new(); FLAVORS.len()];
    let mut search = |r: usize, rep: &mut Report| {
        let i = r % FLAVORS.len();
        let flavor = FLAVORS[i];
        let t = Instant::now();
        let report = run_bmc(config(flavor));
        secs_of[i].push(t.elapsed().as_secs_f64());
        rep.tally(report.transitions, 0);
        check_report(&report, ctx.expect_bmc.get(flavor_key(flavor)), rep);
        if let Some(first) = &reports[i] {
            rep.check(first.transitions == report.transitions, || {
                format!("{flavor}: transitions changed between searches")
            });
        }
        reports[i] = Some(report);
    };
    let budget = ctx.phase();
    let secs = timed_rounds(budget, FLAVORS.len(), |r| search(r, rep));
    let transitions: Vec<f64> = reports
        .iter()
        .map(|r| r.as_ref().expect("every flavour searched").transitions as f64)
        .collect();
    let median_secs: Vec<f64> = secs_of.iter().map(|s| stats::median(s)).collect();
    let total_transitions: f64 = transitions.iter().sum();
    let untraced_s: f64 = median_secs.iter().sum();

    if !ctx.traced {
        let cycles = |flavor| {
            sims.iter()
                .find(|(f, _)| *f == flavor)
                .map(|&(_, c)| c)
                .expect("flavour")
        };
        let hpmp = cycles(TeeFlavor::PenglaiHpmp);
        rep.put("sim_cycles_per_op", hpmp);
        rep.put(
            "sim_hpmp_overhead_pct",
            (hpmp / cycles(TeeFlavor::PenglaiPmp) - 1.0) * 100.0,
        );
        // One rate per cycle through the flavours, whose searches differ.
        let cycle: f64 = transitions.iter().sum();
        let rates: Vec<f64> = secs
            .chunks_exact(FLAVORS.len())
            .map(|c| cycle / c.iter().sum::<f64>())
            .collect();
        rep.put("ops_per_s", stats::median(&rates));
        return;
    }

    // Traced: the four per-transition steps, inline, on every flavour.
    let mut timings = Timings::new();
    let t = Instant::now();
    for (i, (_, root)) in roots.iter().enumerate() {
        calib::fork_layers(root, ctx.seed ^ i as u64, TRACED_OPS, rep, &mut timings);
    }
    let traced_s = t.elapsed().as_secs_f64();
    let mut root = roots
        .into_iter()
        .find(|(f, _)| *f == TeeFlavor::PenglaiHpmp)
        .map(|(_, r)| r)
        .expect("HPMP root");
    calib::snapshot_layer(&mut timings, || root.metrics_snapshot().len());
    calib::monitor_stand_in(&mut root, rep, &mut timings);
    calib::native_stand_in(ctx.seed, 1024, &mut timings);
    calib::virt_stand_in(ctx.seed, &mut timings);

    let explored: f64 = reports
        .iter()
        .flatten()
        .map(|r| r.states_explored as f64)
        .sum();
    let pruned: f64 = reports
        .iter()
        .flatten()
        .map(|r| r.states_pruned as f64)
        .sum();
    let counts = [
        ("modelcheck.transitions", total_transitions),
        ("modelcheck.states_explored", explored),
        ("modelcheck.states_pruned", pruned),
        ("modelcheck.prune_ratio", ratio(pruned, total_transitions)),
        // Every transition applies exactly one monitor op.
        ("penglai.monitor.ops", total_transitions),
    ];
    let model = [
        (total_transitions, "modelcheck.clone"),
        (total_transitions, "modelcheck.apply"),
        (total_transitions, "modelcheck.fingerprint"),
        (total_transitions, "modelcheck.oracle"),
    ];
    let walked = (TRACED_OPS * FLAVORS.len()) as f64;
    put_layers(
        rep,
        &timings,
        &counts,
        &model,
        untraced_s,
        untraced_s / total_transitions * 1e9,
        traced_s / walked * 1e9,
    );
}
