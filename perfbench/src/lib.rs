//! Host-clock benchmark of the HPMP simulator.
//!
//! A single-threaded, closed-loop benchmark with one client: it builds its
//! inputs from a seed, drives the workspace crates' public API with them,
//! checks the outputs and prints every metric by name with its unit. An
//! untraced run gives the end-to-end metrics; a traced run times the calls
//! into each layer from outside and gives the per-layer metrics and the
//! cost model. The end-to-end host times (`ops_per_s`, `setup_s`) are
//! scaled to a nominal host speed measured beside them (see [`host`]). The
//! simulated-cycle metrics are unvalidated: the repository holds the
//! paper's reference counts, not its FPGA cycle figures.

pub mod calib;
pub mod host;
pub mod report;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::time::{Duration, Instant};

use hpmp_memsim::Fnv1a;
use hpmp_trace::Snapshot;

use host::Reference;
use report::Report;
use stats::Samples;

/// Host-clock samples per timing site.
pub type Timings = BTreeMap<&'static str, Samples>;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["walk_native", "walk_virt", "smp_churn", "bmc"];

/// Counters `hpmp-verify bmc` printed for one flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BmcCounts {
    /// `states-explored`.
    pub explored: u64,
    /// `states-pruned`.
    pub pruned: u64,
    /// `transitions`.
    pub transitions: u64,
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured time budget.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// `hpmp-verify bmc` counts per flavour (`pmp`, `pmpt`, `hpmp`), when
    /// the caller ran it.
    pub expect_bmc: BTreeMap<String, BmcCounts>,
}

impl Ctx {
    /// The measured budget of one phase: the whole budget untraced, half
    /// of it for each of the traced run's untraced and traced phases.
    pub fn phase(&self) -> Duration {
        let share = if self.traced { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Runs `round(i)` for i = 0, 1, … until `budget` has elapsed and at least
/// `min_rounds` rounds ran. Returns each round's host seconds, scaled to
/// nominal host speed by the slowdowns probed before and after it.
pub fn timed_rounds(budget: Duration, min_rounds: usize, mut round: impl FnMut(usize)) -> Vec<f64> {
    let mut host = Reference::default();
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut before = host.slowdown();
    while secs.len() < min_rounds || start.elapsed() < budget {
        let t = Instant::now();
        round(secs.len());
        let raw = t.elapsed().as_secs_f64();
        let after = host.slowdown();
        secs.push(raw / ((before + after) / 2.0));
        before = after;
    }
    secs
}

/// The high-water resident set of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a digest of every counter in `snaps`, in order.
pub fn digest<'a>(snaps: impl IntoIterator<Item = &'a Snapshot>) -> u64 {
    let mut h = Fnv1a::new();
    for snap in snaps {
        for (name, value) in snap.iter() {
            h.write(name.as_bytes());
            h.write_u64(value);
        }
    }
    h.finish()
}

/// Checks that every set-up repetition produced the same simulated
/// counters.
pub fn check_digests(digests: &[u64], rep: &mut Report) {
    let first = digests.first().copied();
    for (i, &d) in digests.iter().enumerate() {
        rep.check(Some(d) == first, || {
            format!("simulated counters differ between repetitions: digest {i} is {d:#x}, digest 0 is {:#x}", first.unwrap_or(0))
        });
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Set-up host time of one repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTime {
    /// Booting machines and monitors.
    pub boot_s: f64,
    /// Creating domains, arenas, tenants and mappings.
    pub map_s: f64,
}

impl SetupTime {
    /// These times at nominal host speed, given the host's `slowdown`
    /// while they were taken.
    pub fn scaled(self, slowdown: f64) -> SetupTime {
        SetupTime {
            boot_s: self.boot_s / slowdown,
            map_s: self.map_s / slowdown,
        }
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Records the set-up figures of `reps`: `setup_s` untraced, its split
/// into boot and map traced.
pub fn put_setup(ctx: &Ctx, reps: &[SetupTime], rep: &mut Report) {
    let total: Vec<f64> = reps.iter().map(|s| s.boot_s + s.map_s).collect();
    if ctx.traced {
        let boot: Vec<f64> = reps.iter().map(|s| s.boot_s).collect();
        let map: Vec<f64> = reps.iter().map(|s| s.map_s).collect();
        rep.put("setup.boot_s", stats::median(&boot));
        rep.put("setup.map_s", stats::median(&map));
    } else {
        rep.put("setup_s", stats::median(&total));
    }
}

/// Records the traced run's timings, counts, tracing overhead and cost
/// model. `model` lists `(count metric, timing site)` pairs whose product
/// is a layer's predicted host time; `measured_s` is the host time spent
/// inside the timed calls.
pub fn put_layers(
    rep: &mut Report,
    timings: &Timings,
    counts: &[(&str, f64)],
    model: &[(f64, &str)],
    measured_s: f64,
    untraced_ns_per_op: f64,
    traced_ns_per_op: f64,
) {
    for &(site, _, _) in report::TIMED {
        let samples = timings
            .get(site)
            .unwrap_or_else(|| panic!("timing site `{site}` was not measured"));
        rep.timing(site, samples);
    }
    for &(name, value) in counts {
        rep.put(name, value);
    }
    // A layer the workload bypasses did no work.
    for &(name, _, _, _) in report::COUNTED {
        if rep.get(name).is_none() {
            rep.put(name, 0.0);
        }
    }
    let mut predicted_s = 0.0;
    for &(count, site) in model {
        let unit = report::TIMED.iter().find(|t| t.0 == site).map(|t| t.1);
        let per_op_s = timings[site].median() * if unit == Some("us") { 1e-6 } else { 1e-9 };
        predicted_s += count * per_op_s;
        rep.note(format!(
            "model: {count} x {site} = {:.6} s",
            count * per_op_s
        ));
    }
    rep.put("model.predicted_s", predicted_s);
    rep.put("model.measured_s", measured_s);
    rep.put(
        "model.residual_pct",
        ratio(measured_s - predicted_s, measured_s) * 100.0,
    );
    rep.put(
        "trace.overhead_pct",
        (ratio(traced_ns_per_op, untraced_ns_per_op) - 1.0) * 100.0,
    );
}

/// Runs workload `name`.
///
/// # Errors
///
/// Rejects an unknown workload name.
pub fn run(name: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    match name {
        "walk_native" => workloads::native::run(ctx, &mut rep),
        "walk_virt" => workloads::virt::run(ctx, &mut rep),
        "smp_churn" => workloads::churn::run(ctx, &mut rep),
        "bmc" => workloads::bmc::run(ctx, &mut rep),
        other => return Err(format!("unknown workload `{other}`")),
    }
    if !ctx.traced {
        rep.put("peak_rss_mib", peak_rss_mib());
    }
    Ok(rep)
}
