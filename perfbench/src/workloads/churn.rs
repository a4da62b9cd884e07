//! `smp_churn`: two Rocket harts on the deterministic interleaver, one
//! pinned tenant enclave per hart with a 32-page footprint that stays in
//! the TLB, under all three flavours. Between access batches the workload
//! allocates and frees tenant memory, round-trips harts through the host,
//! and creates and destroys guest domains of 1–16 MiB in a 64 MiB region
//! arena, at most 40 MiB of them alive so that placement is not refused
//! (a refusal counts as a failed operation). Monitor ops and shootdown
//! delivery do most of the work; most accesses hit the TLB.

use std::time::Instant;

use hpmp_core::PmpRegion;
use hpmp_machine::{HartScheduler, MachineConfig};
use hpmp_memsim::{PhysAddr, PrivMode, SplitMix64, VirtAddr, PAGE_SIZE};
use hpmp_penglai::{DomainId, GmsLabel, MonitorError, SmpSystem, TeeFlavor};
use hpmp_trace::Snapshot;
use hpmp_workloads::smp::{setup_tenants, SmpTenant};
use hpmp_workloads::FLAVORS;

use super::{count, machine_counts, uniform_trace, Step};
use crate::calib::{self, us_since, AccessTimers};
use crate::host::Reference;
use crate::report::Report;
use crate::stats::Samples;
use crate::{
    check_digests, digest, put_layers, put_setup, ratio, stats, timed_rounds, Ctx, SetupTime,
    Timings, SETUP_REPS,
};

const HARTS: usize = 2;
/// Boot RAM: the monitor keeps 64 MiB, leaving a 64 MiB region arena.
const RAM_MIB: u64 = 128;
/// Pages each tenant maps; both footprints fit the L2 TLB.
const FOOTPRINT: u64 = 32;
/// Accesses per scheduler step.
const BATCH: usize = 96;
/// Scheduler steps in the plan; one pass fixes the simulated metrics.
const PLAN_STEPS: usize = 1024;
/// Guest domains alive at once, at most.
const MAX_GUESTS: usize = 6;
/// Guest bytes alive at once, at most.
const GUEST_BYTES: u64 = 40 << 20;
/// Every Nth access is checked against the cache-free oracle.
const ORACLE_EVERY: usize = 16;

/// A monitor op issued after a step's access batch.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Grant the tenant 64 KiB and revoke it again.
    AllocFree,
    /// Switch the hart to the host and back to its tenant.
    SwitchTrip,
    /// Create a guest domain of this many bytes.
    Create(u64),
    /// Destroy the live guest at this index.
    Destroy(usize),
}

#[derive(Clone, Debug)]
struct PlanStep {
    hart: u16,
    accesses: Vec<Step>,
    op: Option<Op>,
}

/// Op kinds of one block of ten steps, shuffled per block: the mix is the
/// same for every seed, so the simulated metrics barely move with it.
/// `None` in the middle slots marks a guest op.
const BLOCK: [Option<Option<Op>>; 10] = [
    Some(Some(Op::AllocFree)),
    Some(Some(Op::AllocFree)),
    Some(Some(Op::SwitchTrip)),
    Some(Some(Op::SwitchTrip)),
    Some(Some(Op::SwitchTrip)),
    None,
    None,
    None,
    Some(None),
    Some(None),
];

/// The seeded plan: interleaving, access batches and ops. A guest op
/// creates a guest, its size dealt from a shuffled deck of 1–16 MiB, when
/// the guest limits allow, and destroys a random one otherwise. The last
/// steps destroy the guests still alive, so the plan can be replayed in a
/// loop.
fn plan(seed: u64) -> Vec<PlanStep> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut scheduler = HartScheduler::fair(seed, HARTS);
    let mut live: Vec<u64> = Vec::new();
    let mut deck: Vec<u64> = Vec::new();
    let mut block = Vec::new();
    (0..PLAN_STEPS)
        .map(|i| {
            let hart = scheduler.next_hart();
            let accesses = uniform_trace(&mut rng, FOOTPRINT * PAGE_SIZE, BATCH);
            if block.is_empty() {
                block = BLOCK.to_vec();
                shuffle(&mut block, &mut rng);
            }
            let kind = block.pop().expect("refilled");
            let cleanup = i + MAX_GUESTS >= PLAN_STEPS;
            let op = match kind {
                Some(op) if !cleanup => op,
                _ => {
                    if deck.is_empty() {
                        deck = (0..5).map(|k| (1 << 20) << k).collect();
                        shuffle(&mut deck, &mut rng);
                    }
                    let bytes = *deck.last().expect("refilled");
                    let room =
                        live.len() < MAX_GUESTS && live.iter().sum::<u64>() + bytes <= GUEST_BYTES;
                    if room && !cleanup {
                        deck.pop();
                        live.push(bytes);
                        Some(Op::Create(bytes))
                    } else if live.is_empty() {
                        None
                    } else {
                        let i = rng.gen_range(0..live.len() as u64) as usize;
                        live.remove(i);
                        Some(Op::Destroy(i))
                    }
                }
            };
            PlanStep { hart, accesses, op }
        })
        .collect()
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
    }
}

/// Host time of the monitor ops, inline.
#[derive(Debug, Default)]
struct OpTimers {
    switch: Samples,
    alloc: Samples,
    free: Samples,
    create: Samples,
    destroy: Samples,
}

impl OpTimers {
    fn total_s(&self) -> f64 {
        [
            &self.switch,
            &self.alloc,
            &self.free,
            &self.create,
            &self.destroy,
        ]
        .iter()
        .map(|s| s.total())
        .sum::<f64>()
            * 1e-6
    }
}

/// Simulated cycles and failure tally of one flavour.
#[derive(Debug, Default)]
struct Tally {
    accesses: u64,
    ops: u64,
    access_cycles: u64,
    op_cycles: u64,
    failed: u64,
}

struct Flavour {
    flavor: TeeFlavor,
    smp: SmpSystem,
    tenants: Vec<SmpTenant>,
    guests: Vec<DomainId>,
    tally: Tally,
}

impl Flavour {
    fn setup(flavor: TeeFlavor, time: &mut SetupTime) -> Flavour {
        let t = Instant::now();
        let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), RAM_MIB << 20);
        let mut smp =
            SmpSystem::boot(MachineConfig::rocket(), flavor, ram, HARTS).expect("two-hart boot");
        time.boot_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let tenants = setup_tenants(&mut smp, FOOTPRINT).expect("tenants fit the arena");
        for tenant in &tenants {
            // Tenant pages are mapped by physical address; compaction must
            // not move them.
            smp.pin_domain(tenant.domain).expect("tenant is live");
        }
        time.map_s += t.elapsed().as_secs_f64();
        Flavour {
            flavor,
            smp,
            tenants,
            guests: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Counts an op's outcome and its simulated cycles.
    fn op_done(&mut self, outcome: Result<u64, MonitorError>, what: &str) {
        self.tally.ops += 1;
        match outcome {
            Ok(cycles) => self.tally.op_cycles += cycles,
            Err(e) => {
                self.tally.failed += 1;
                eprintln!("smp_churn {}: {what} failed: {e}", self.flavor);
            }
        }
    }

    fn exec(&mut self, step: &PlanStep, mut at: Option<(&mut AccessTimers, &mut OpTimers)>) {
        let h = usize::from(step.hart);
        let tenant = &self.tenants[h];
        for (i, a) in step.accesses.iter().enumerate() {
            let va = VirtAddr::new(tenant.va_base.raw() + a.offset);
            let machine = self.smp.machine(step.hart);
            let start = at.is_some().then(Instant::now);
            let out = machine.access(&tenant.space, va, a.kind, PrivMode::User);
            let ns = start.map_or(0.0, |t| t.elapsed().as_nanos() as f64);
            self.tally.accesses += 1;
            match out {
                Ok(o) => {
                    self.tally.access_cycles += o.cycles;
                    if let Some((t, _)) = at.as_mut() {
                        if o.tlb_hit.is_some() {
                            t.hit.push(ns);
                        } else {
                            t.walk.push(ns);
                        }
                    }
                    if i % ORACLE_EVERY == 0
                        && !self.smp.oracle_check_on(step.hart, o.paddr, a.kind)
                    {
                        self.tally.failed += 1;
                        eprintln!("smp_churn {}: oracle denies a granted access", self.flavor);
                    }
                }
                Err(e) => {
                    self.tally.failed += 1;
                    eprintln!("smp_churn {}: access faulted: {e:?}", self.flavor);
                }
            }
        }
        let hart = step.hart;
        let domain = tenant.domain;
        let traced = at.is_some();
        let now = || traced.then(Instant::now);
        let mut timed = |pick: fn(&mut OpTimers) -> &mut Samples, start: Option<Instant>| {
            if let (Some((_, ops)), Some(start)) = (at.as_mut(), start) {
                pick(ops).push(us_since(start));
            }
        };
        match step.op {
            None => {}
            Some(Op::AllocFree) => {
                let start = now();
                let out = self.smp.alloc_on(hart, domain, 64 << 10, GmsLabel::Slow);
                timed(|t| &mut t.alloc, start);
                let region = out.as_ref().map(|(r, _)| r.base).ok();
                self.op_done(out.map(|(_, c)| c), "alloc");
                if let Some(base) = region {
                    let start = now();
                    let out = self.smp.free_on(hart, domain, base);
                    timed(|t| &mut t.free, start);
                    self.op_done(out, "free");
                }
            }
            Some(Op::SwitchTrip) => {
                for target in [DomainId::HOST, domain] {
                    let start = now();
                    let out = self.smp.switch_on(hart, target);
                    timed(|t| &mut t.switch, start);
                    self.op_done(out, "switch");
                }
            }
            Some(Op::Create(bytes)) => {
                let start = now();
                let out = self.smp.create_domain_on(hart, bytes, GmsLabel::Slow);
                timed(|t| &mut t.create, start);
                if let Ok((id, _)) = out {
                    self.guests.push(id);
                }
                self.op_done(out.map(|(_, c)| c), "create");
            }
            Some(Op::Destroy(i)) if !self.guests.is_empty() => {
                let id = self.guests.remove(i % self.guests.len());
                let start = now();
                let out = self.smp.destroy_domain_on(hart, id);
                timed(|t| &mut t.destroy, start);
                self.op_done(out, "destroy");
            }
            Some(Op::Destroy(_)) => {}
        }
    }

    fn cycles_per_access(&self) -> f64 {
        ratio(
            (self.tally.access_cycles + self.tally.op_cycles) as f64,
            self.tally.accesses as f64,
        )
    }
}

fn setup() -> (Vec<Flavour>, SetupTime) {
    let mut time = SetupTime::default();
    let flavours = FLAVORS
        .iter()
        .map(|&f| Flavour::setup(f, &mut time))
        .collect();
    (flavours, time)
}

fn snapshots(flavours: &mut [Flavour]) -> Vec<Snapshot> {
    flavours
        .iter_mut()
        .map(|f| f.smp.metrics_snapshot())
        .collect()
}

/// Moves each flavour's failures and operations into the report.
fn drain_tally(flavours: &mut [Flavour], rep: &mut Report) {
    for f in flavours {
        rep.tally(f.tally.accesses + f.tally.ops, f.tally.failed);
        f.tally = Tally::default();
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let plan = plan(ctx.seed);

    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut state = None;
    let mut host = Reference::default();
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition first, so peak RSS counts one.
        drop(state.take());
        let ((mut flavours, time), slowdown) = host.around(setup);
        setups.push(time.scaled(slowdown));
        // Warm: one pass over the plan; then the measured first pass.
        for f in &mut flavours {
            for step in &plan {
                f.exec(step, None);
            }
            let before = f.smp.metrics_snapshot();
            f.tally = Tally::default();
            for step in &plan {
                f.exec(step, None);
            }
            let after = f.smp.metrics_snapshot();
            digests.push(digest([&after.delta(&before)]));
        }
        state = Some(flavours);
    }
    // Digests are per flavour; every repetition must repeat each one.
    let per_rep = FLAVORS.len();
    for f in 0..per_rep {
        let of_flavour: Vec<u64> = digests.iter().skip(f).step_by(per_rep).copied().collect();
        check_digests(&of_flavour, rep);
    }
    put_setup(ctx, &setups, rep);
    let mut flavours = state.expect("at least one repetition");
    for f in &mut flavours {
        let accounting = f.smp.verify_accounting();
        rep.check(accounting.is_ok(), || {
            format!("{}: {accounting:?}", f.flavor)
        });
    }
    let cycles = |flavours: &[Flavour], flavor| {
        flavours
            .iter()
            .find(|f| f.flavor == flavor)
            .expect("flavour")
            .cycles_per_access()
    };
    let hpmp = cycles(&flavours, TeeFlavor::PenglaiHpmp);
    let pmp = cycles(&flavours, TeeFlavor::PenglaiPmp);
    drain_tally(&mut flavours, rep);

    // A round replays the whole plan, which is balanced only as a whole and
    // whose op mix varies from step to step.
    let round_ops = (plan.len() * BATCH * flavours.len()) as f64;
    let round = |flavours: &mut [Flavour], mut at: Option<(&mut AccessTimers, &mut OpTimers)>| {
        for f in flavours.iter_mut() {
            for step in &plan {
                f.exec(step, at.as_mut().map(|(a, o)| (&mut **a, &mut **o)));
            }
        }
    };

    if !ctx.traced {
        rep.put("sim_cycles_per_op", hpmp);
        rep.put("sim_hpmp_overhead_pct", (hpmp / pmp - 1.0) * 100.0);
        let secs = timed_rounds(ctx.phase(), 1, |_| round(&mut flavours, None));
        let rates: Vec<f64> = secs.iter().map(|s| round_ops / s).collect();
        rep.put("ops_per_s", stats::median(&rates));
        drain_tally(&mut flavours, rep);
        return;
    }

    let untraced = timed_rounds(ctx.phase(), 1, |_| round(&mut flavours, None));
    let before = snapshots(&mut flavours);
    for f in &mut flavours {
        f.tally = Tally::default();
    }
    let mut access_t = AccessTimers::default();
    let mut op_t = OpTimers::default();
    let traced = timed_rounds(ctx.phase(), 1, |_| {
        round(&mut flavours, Some((&mut access_t, &mut op_t)))
    });
    let deltas: Vec<Snapshot> = snapshots(&mut flavours)
        .iter()
        .zip(&before)
        .map(|(after, before)| after.delta(before))
        .collect();
    let op_cycles: u64 = flavours.iter().map(|f| f.tally.op_cycles).sum();
    let access_cycles: u64 = flavours.iter().map(|f| f.tally.access_cycles).sum();
    let monitor_ops: u64 = flavours.iter().map(|f| f.tally.ops).sum();
    drain_tally(&mut flavours, rep);

    let prefixes: Vec<String> = (0..HARTS).map(|h| format!("hart.{h}.machine.")).collect();
    let mut counts = machine_counts(&deltas, &prefixes);
    let v = |name: &str| deltas.iter().map(|d| d.value(name)).sum::<u64>() as f64;
    let max_stage = (1..=3)
        .filter(|s| v(&format!("monitor.degrade.enter_stage{s}")) > 0.0)
        .max()
        .unwrap_or(0);
    counts.extend([
        ("penglai.monitor.ops", monitor_ops as f64),
        ("penglai.smp.ipis_delivered", v("smp.ipis_delivered")),
        (
            "penglai.smp.ipi_merge_ratio",
            ratio(
                v("smp.ipis_merged"),
                v("smp.ipis_sent") + v("smp.ipis_merged"),
            ),
        ),
        ("penglai.monitor.table_writes", v("monitor.table_writes")),
        ("penglai.compact.passes", v("monitor.compact.passes")),
        (
            "penglai.compact.moved_pages",
            v("monitor.compact.moved_pages"),
        ),
        ("penglai.degrade.max_stage", f64::from(max_stage)),
        (
            "penglai.monitor.busy_share",
            ratio(op_cycles as f64, (op_cycles + access_cycles) as f64),
        ),
    ]);

    let mut timings = Timings::new();
    let measured_s = (access_t.hit.total() + access_t.walk.total()) * 1e-9 + op_t.total_s();
    let op_counts = [
        ("penglai.monitor.switch", op_t.switch.count()),
        ("penglai.monitor.alloc", op_t.alloc.count()),
        ("penglai.monitor.free", op_t.free.count()),
        ("penglai.monitor.create", op_t.create.count()),
        ("penglai.monitor.destroy", op_t.destroy.count()),
    ];
    timings.insert("machine.access.hit", access_t.hit);
    timings.insert("machine.access.walk", access_t.walk);
    timings.insert("penglai.monitor.switch", op_t.switch);
    timings.insert("penglai.monitor.alloc", op_t.alloc);
    timings.insert("penglai.monitor.free", op_t.free);
    timings.insert("penglai.monitor.create", op_t.create);
    timings.insert("penglai.monitor.destroy", op_t.destroy);

    let hpmp = flavours
        .iter_mut()
        .find(|f| f.flavor == TeeFlavor::PenglaiHpmp)
        .expect("HPMP flavour");
    let tenant = &hpmp.tenants[0];
    let vas: Vec<VirtAddr> = plan
        .iter()
        .filter(|s| s.hart == 0)
        .flat_map(|s| &s.accesses)
        .map(|a| VirtAddr::new(tenant.va_base.raw() + a.offset))
        .collect();
    calib::native_layers(hpmp.smp.machine(0), &tenant.space, &vas, &mut timings);
    calib::fork_layers(&hpmp.smp, ctx.seed, 200, rep, &mut timings);
    let smp = &mut hpmp.smp;
    calib::snapshot_layer(&mut timings, || smp.metrics_snapshot().len());
    calib::virt_stand_in(ctx.seed, &mut timings);

    let mut model = vec![
        (count(&counts, "paging.tlb.lookups"), "paging.tlb.lookup"),
        (count(&counts, "paging.walker.walks"), "paging.walker.walk"),
        (count(&counts, "core.checker.checks"), "core.checker.check"),
        (
            count(&counts, "memsim.hierarchy.accesses"),
            "memsim.hierarchy.access",
        ),
    ];
    model.extend(op_counts.iter().map(|&(site, n)| (n as f64, site)));
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
