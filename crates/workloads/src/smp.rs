//! Multi-hart (SMP) workload harness: one tenant enclave per hart over a
//! shared [`SmpSystem`], driven by a seeded deterministic interleaver.
//!
//! Each of the paper's workload names maps to an [`SmpWorkloadSpec`] —
//! batch size, footprint, compute share, and how often the tenant churns
//! memory (alloc + free, which triggers a cross-hart shootdown) or
//! round-trips through the host (domain switches, which broadcast
//! fences). The *access* path goes through each hart's real machine
//! ([`hpmp_machine::Machine::access`]) so private TLBs, PWCs and
//! PMPTW-Caches are exercised — the state the shootdown protocol exists to
//! keep coherent.
//!
//! Determinism: the hart interleaving comes from
//! [`HartScheduler`] and each hart's access pattern from
//! its own `SplitMix64` stream, both derived from the run seed. The run is
//! single-threaded regardless of `--jobs`, so its artifacts are
//! byte-identical at any parallelism.

use hpmp_machine::{HartScheduler, Machine};
use hpmp_memsim::{
    AccessKind, CoreKind, FrameAllocator, PhysAddr, PrivMode, SplitMix64, VirtAddr, PAGE_SIZE,
};
use hpmp_paging::{AddressSpace, TranslationMode};
use hpmp_penglai::{DomainId, GmsLabel, MonitorError, SmpSystem, TeeFlavor};
use hpmp_trace::{Snapshot, SpanCollector, TimelineSink, TraceSink};

use crate::fixture::{config_for, RAM_BASE, RAM_SIZE};

/// Base virtual address of every tenant's data window.
const TENANT_VA_BASE: u64 = 0x10_0000;
/// Per-tenant PT-pool GMS size (NAPOT).
const POOL_SIZE: u64 = 256 * 1024;

/// Shape of one SMP workload: how each hart's tenant behaves between
/// scheduler steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmpWorkloadSpec {
    /// Workload name (one of the `hpmpsim` workload names).
    pub name: &'static str,
    /// Total scheduler steps (across all harts).
    pub rounds: u32,
    /// Data accesses per step.
    pub batch: u32,
    /// Mapped pages per tenant.
    pub footprint_pages: u64,
    /// Compute instructions per step.
    pub compute: u64,
    /// Every N steps of a hart, its tenant allocates and frees a region —
    /// a GMS permission change that must shoot down every other hart.
    /// 0 = never.
    pub churn_every: u32,
    /// Every N steps of a hart, it round-trips through the host — two
    /// domain switches, each broadcasting fences. 0 = never.
    pub switch_every: u32,
}

/// The spec for an `hpmpsim` workload name, if it has an SMP shape.
pub fn spec_for(name: &str) -> Option<SmpWorkloadSpec> {
    let spec = |rounds, batch, footprint_pages, compute, churn_every, switch_every, name| {
        SmpWorkloadSpec {
            name,
            rounds,
            batch,
            footprint_pages,
            compute,
            churn_every,
            switch_every,
        }
    };
    Some(match name {
        // Cold-start heavy: small footprints, frequent host round-trips.
        "serverless" => spec(96, 8, 64, 200, 0, 6, "serverless"),
        // Key-value serving: bigger working set, periodic host round-trips.
        "redis" => spec(128, 16, 128, 100, 0, 16, "redis"),
        // Graph analytics: large irregular footprint, no monitor traffic.
        "gap" => spec(96, 24, 256, 60, 0, 0, "gap"),
        // CPU-bound suite: compute dominates, little monitor traffic.
        "rv8" => spec(96, 8, 96, 500, 0, 0, "rv8"),
        // Syscall microbenchmarks: tiny touches, frequent switches.
        "lmbench" => spec(128, 4, 32, 40, 0, 8, "lmbench"),
        // Virtualized app stand-in: medium footprint and switch rate.
        "virtapp" => spec(64, 12, 128, 150, 0, 12, "virtapp"),
        // Multi-tenant churn: the shootdown stress case — allocs, frees
        // and switches continually.
        "tenancy" => spec(96, 6, 48, 80, 8, 4, "tenancy"),
        _ => return None,
    })
}

/// One hart's tenant: its enclave domain and user address space.
#[derive(Debug)]
pub struct SmpTenant {
    /// The enclave domain scheduled on this hart.
    pub domain: DomainId,
    /// The tenant's user address space (PT pages in its pool GMS).
    pub space: AddressSpace,
    /// Mapped pages starting at [`SmpTenant::va_base`].
    pub pages: u64,
    /// First mapped virtual address.
    pub va_base: VirtAddr,
}

/// Boots one enclave tenant per hart on `smp`: a PT-pool GMS (fast under
/// HPMP, so it becomes a segment), a data GMS sized to `footprint_pages`,
/// an address space with `footprint_pages` user pages mapped over the data
/// region, and a domain switch scheduling the tenant on its hart.
///
/// # Errors
///
/// Propagates monitor errors (undersized RAM, entry walls).
pub fn setup_tenants<S: TraceSink>(
    smp: &mut SmpSystem<S>,
    footprint_pages: u64,
) -> Result<Vec<SmpTenant>, MonitorError> {
    let pool_label = if smp.monitor().flavor() == TeeFlavor::PenglaiHpmp {
        GmsLabel::Fast
    } else {
        GmsLabel::Slow
    };
    let harts = smp.harts() as u16;
    let mut tenants = Vec::new();
    for hart in 0..harts {
        let (domain, _) = smp.create_domain_on(hart, POOL_SIZE, pool_label)?;
        let pool = smp.monitor().regions_of(domain)?[0].region;
        let data_size = (footprint_pages * PAGE_SIZE).max(PAGE_SIZE);
        let (data, _) = smp.alloc_on(hart, domain, data_size, GmsLabel::Slow)?;
        smp.switch_on(hart, domain)?;

        let mut frames = FrameAllocator::new(pool.base, pool.size);
        let machine = smp.machine(hart);
        let mut space = AddressSpace::new(
            TranslationMode::Sv39,
            hart + 1,
            machine.phys_mut(),
            &mut frames,
        )
        .expect("PT pool sized for the footprint");
        let va_base = VirtAddr::new(TENANT_VA_BASE);
        for page in 0..footprint_pages {
            space
                .map_page(
                    machine.phys_mut(),
                    &mut frames,
                    VirtAddr::new(va_base.raw() + page * PAGE_SIZE),
                    PhysAddr::new(data.base.raw() + page * PAGE_SIZE),
                    hpmp_memsim::Perms::RW,
                    true,
                )
                .expect("data GMS sized for the footprint");
        }
        tenants.push(SmpTenant {
            domain,
            space,
            pages: footprint_pages,
            va_base,
        });
    }
    Ok(tenants)
}

/// Result of one SMP workload run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmpOutcome {
    /// Harts simulated.
    pub harts: u32,
    /// Total modelled cycles: accesses + compute + monitor ops + shootdown
    /// stalls, across all harts.
    pub total_cycles: u64,
    /// Data accesses performed.
    pub accesses: u64,
    /// Shootdown IPIs delivered.
    pub ipis_delivered: u64,
}

/// Runs `spec` on `harts` harts under `flavor`, untraced.
///
/// # Errors
///
/// Propagates monitor errors.
pub fn run_smp(
    flavor: TeeFlavor,
    core: CoreKind,
    harts: usize,
    seed: u64,
    spec: SmpWorkloadSpec,
) -> Result<(SmpOutcome, Snapshot), MonitorError> {
    let machines = (0..harts).map(|_| Machine::new(config_for(core))).collect();
    let (outcome, snapshot, _) = run_smp_machines(machines, flavor, seed, spec)?;
    Ok((outcome, snapshot))
}

/// What an SMP run should record beyond counters. The default records
/// nothing and is exactly the untraced path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmpTelemetrySpec {
    /// Cut a timeline slice every N global simulated cycles.
    pub snapshot_interval: Option<u64>,
    /// Collect monitor-operation/shootdown spans, retaining at most this
    /// many (overflow is counted in `trace.dropped.spans`).
    pub span_capacity: Option<usize>,
}

impl SmpTelemetrySpec {
    /// Default bound on retained spans when only an output path was given.
    pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;
}

/// The time-resolved artifacts of one SMP run.
#[derive(Clone, Debug, Default)]
pub struct SmpTelemetry {
    /// Periodic snapshot slices (present iff an interval was requested).
    /// Already finished: its slices re-sum to the returned snapshot.
    pub timeline: Option<TimelineSink>,
    /// Collected spans (present iff a capacity was requested).
    pub spans: Option<SpanCollector>,
}

/// Runs `spec` over pre-built machines (one per hart, e.g. each with its
/// own trace sink). Returns the outcome, the merged metrics snapshot
/// (`hart.<i>.*`, `smp.*`, `monitor.*`), and the per-hart sinks in hart
/// order.
///
/// # Errors
///
/// Propagates monitor errors.
pub fn run_smp_machines<S: TraceSink>(
    machines: Vec<Machine<S>>,
    flavor: TeeFlavor,
    seed: u64,
    spec: SmpWorkloadSpec,
) -> Result<(SmpOutcome, Snapshot, Vec<S>), MonitorError> {
    let (outcome, snapshot, sinks, _) =
        run_smp_telemetry(machines, flavor, seed, spec, SmpTelemetrySpec::default())?;
    Ok((outcome, snapshot, sinks))
}

/// As [`run_smp_machines`], additionally recording time-resolved
/// telemetry: timeline slices cut on the global simulated clock and
/// monitor-operation/shootdown spans. Telemetry is pure observation — the
/// outcome and snapshot are identical to the untraced run (modulo the
/// `trace.*` accounting counters), and both artifacts are byte-identical
/// at any `--jobs` because boundaries live on the simulated clock.
///
/// # Errors
///
/// Propagates monitor errors.
pub fn run_smp_telemetry<S: TraceSink>(
    machines: Vec<Machine<S>>,
    flavor: TeeFlavor,
    seed: u64,
    spec: SmpWorkloadSpec,
    telemetry: SmpTelemetrySpec,
) -> Result<(SmpOutcome, Snapshot, Vec<S>, SmpTelemetry), MonitorError> {
    let harts = machines.len();
    let ram = hpmp_core::PmpRegion::new(PhysAddr::new(RAM_BASE), RAM_SIZE);
    let mut smp = SmpSystem::boot_machines(machines, flavor, ram)?;
    if let Some(capacity) = telemetry.span_capacity {
        // Enabled before tenant setup so the boot-phase ops are spanned
        // too — the paper's boot → churn → steady-state story needs them.
        smp.enable_spans(capacity);
    }
    let mut timeline = telemetry.snapshot_interval.map(TimelineSink::new);
    let tenants = setup_tenants(&mut smp, spec.footprint_pages)?;

    // Per-hart access streams, decorrelated from the interleaver and from
    // each other.
    let mut rngs: Vec<SplitMix64> = (0..harts as u64)
        .map(|h| SplitMix64::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(h + 1))))
        .collect();
    let mut steps_of: Vec<u32> = vec![0; harts];
    let mut scheduler = HartScheduler::fair(seed, harts);

    let mut total_cycles = 0u64;
    let mut accesses = 0u64;
    for _ in 0..spec.rounds {
        let hart = scheduler.next_hart();
        let h = usize::from(hart);
        steps_of[h] += 1;
        let tenant = &tenants[h];

        let machine = smp.machine(hart);
        for i in 0..spec.batch {
            let page = rngs[h].gen_range(0..tenant.pages);
            let va = VirtAddr::new(tenant.va_base.raw() + page * PAGE_SIZE);
            let kind = if i % 4 == 3 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let out = machine
                .access(&tenant.space, va, kind, PrivMode::User)
                .expect("tenant reaches its own memory");
            total_cycles += out.cycles;
            accesses += 1;
        }
        total_cycles += machine.run_compute(spec.compute);

        if spec.churn_every != 0 && steps_of[h].is_multiple_of(spec.churn_every) {
            // Grow-then-shrink: a GMS grant and revoke, each a shootdown.
            let (region, cycles) = smp.alloc_on(hart, tenant.domain, 64 * 1024, GmsLabel::Slow)?;
            total_cycles += cycles;
            total_cycles += smp.free_on(hart, tenant.domain, region.base)?;
        }
        if spec.switch_every != 0 && steps_of[h].is_multiple_of(spec.switch_every) {
            // Host round-trip: an ecall-style exit and re-entry.
            total_cycles += smp.switch_on(hart, DomainId::HOST)?;
            total_cycles += smp.switch_on(hart, tenant.domain)?;
        }
        if let Some(tl) = timeline.as_mut() {
            // Boundaries are checked on the deterministic simulated clock
            // at round granularity: slices are ≥ interval wide, and
            // byte-identical at any `--jobs`/interleaving seed.
            let now = smp.global_cycles();
            if tl.due(now) {
                tl.record(now, &smp.metrics_snapshot());
            }
        }
    }

    smp.flush_sinks();
    let snapshot = smp.metrics_snapshot();
    if let Some(tl) = timeline.as_mut() {
        // The tail slice closes against the exact snapshot returned below,
        // so re-summing every slice reproduces it byte-for-byte.
        tl.finish(smp.global_cycles(), &snapshot);
    }
    let spans = telemetry.span_capacity.map(|_| smp.take_spans());
    let outcome = SmpOutcome {
        harts: harts as u32,
        total_cycles,
        accesses,
        ipis_delivered: snapshot.value("smp.ipis_delivered"),
    };
    Ok((
        outcome,
        snapshot,
        smp.into_sinks(),
        SmpTelemetry { timeline, spans },
    ))
}

/// As [`run_smp`] but with one sink per hart, returning the sinks.
///
/// # Errors
///
/// As [`run_smp`].
pub fn run_smp_with_sinks<S: TraceSink>(
    flavor: TeeFlavor,
    core: CoreKind,
    seed: u64,
    spec: SmpWorkloadSpec,
    sinks: Vec<S>,
) -> Result<(SmpOutcome, Snapshot, Vec<S>), MonitorError> {
    let machines = sinks
        .into_iter()
        .map(|sink| Machine::with_sink(config_for(core), sink))
        .collect();
    run_smp_machines(machines, flavor, seed, spec)
}

/// The `hpmpsim` workload names that have SMP shapes, in report order.
pub const SMP_WORKLOADS: [&str; 7] = [
    "serverless",
    "redis",
    "gap",
    "rv8",
    "lmbench",
    "virtapp",
    "tenancy",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_name_has_a_spec() {
        for name in SMP_WORKLOADS {
            assert!(spec_for(name).is_some(), "{name} has no SMP spec");
        }
        assert!(spec_for("nonesuch").is_none());
    }

    #[test]
    fn runs_deterministically() {
        let spec = spec_for("tenancy").unwrap();
        let (a, snap_a) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 42, spec).unwrap();
        let (b, snap_b) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 42, spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(snap_a.to_json(), snap_b.to_json());
        let (c, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 43, spec).unwrap();
        assert_ne!(a.total_cycles, c.total_cycles, "seed must matter");
    }

    #[test]
    fn churny_workload_shoots_down_remote_harts() {
        let spec = spec_for("tenancy").unwrap();
        let (out, snap) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 4, 7, spec).unwrap();
        assert!(out.ipis_delivered > 0, "churn must trigger shootdowns");
        for hart in 0..4 {
            assert!(
                snap.value(&format!("hart.{hart}.ipis_received")) > 0,
                "hart {hart} never received an IPI"
            );
        }
        // Every hart did real memory work.
        for hart in 0..4 {
            assert!(snap.value(&format!("hart.{hart}.machine.accesses")) > 0);
        }
    }

    #[test]
    fn telemetry_slices_resum_to_the_final_snapshot() {
        use hpmp_machine::MachineConfig;

        let spec = spec_for("tenancy").unwrap();
        let telemetry = SmpTelemetrySpec {
            snapshot_interval: Some(20_000),
            span_capacity: Some(1 << 16),
        };
        let machines = (0..2)
            .map(|_| Machine::new(MachineConfig::rocket()))
            .collect();
        let (_, snapshot, _, out) =
            run_smp_telemetry(machines, TeeFlavor::PenglaiHpmp, 42, spec, telemetry).unwrap();
        let timeline = out.timeline.expect("requested");
        assert!(timeline.slices().len() > 1, "run spans several slices");
        assert_eq!(
            timeline.resum().to_json_versioned(),
            snapshot.to_json_versioned(),
            "slice deltas must re-sum to the final snapshot byte-for-byte"
        );
        let spans = out.spans.expect("requested");
        assert!(!spans.is_empty(), "tenancy churns: ops must be spanned");
        assert_eq!(spans.dropped(), 0);
    }

    #[test]
    fn telemetry_is_pure_observation_and_deterministic() {
        use hpmp_machine::MachineConfig;

        let spec = spec_for("tenancy").unwrap();
        let run = |telemetry| {
            let machines = (0..2)
                .map(|_| Machine::new(MachineConfig::rocket()))
                .collect();
            run_smp_telemetry(machines, TeeFlavor::PenglaiHpmp, 42, spec, telemetry).unwrap()
        };
        let telemetry = SmpTelemetrySpec {
            snapshot_interval: Some(25_000),
            span_capacity: Some(1 << 16),
        };
        let (out_plain, _, _, _) = run(SmpTelemetrySpec::default());
        let (out_a, _, _, tel_a) = run(telemetry);
        let (out_b, _, _, tel_b) = run(telemetry);
        assert_eq!(out_plain, out_a, "telemetry must not perturb the run");

        let render = |tel: &SmpTelemetry| {
            let mut bytes = Vec::new();
            tel.timeline
                .as_ref()
                .unwrap()
                .write_jsonl(&mut bytes)
                .unwrap();
            tel.spans.as_ref().unwrap().write_jsonl(&mut bytes).unwrap();
            bytes
        };
        assert_eq!(out_a, out_b);
        assert_eq!(
            render(&tel_a),
            render(&tel_b),
            "telemetry artifacts must be byte-identical across runs"
        );
    }

    #[test]
    fn churn_rate_orders_shootdown_traffic() {
        // gap performs no monitor ops after setup, so its IPI count is the
        // fixed setup cost; tenancy churns continually and must exceed it.
        let gap = spec_for("gap").unwrap();
        let tenancy = spec_for("tenancy").unwrap();
        let (quiet, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 7, gap).unwrap();
        let (churny, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 7, tenancy).unwrap();
        assert!(
            churny.ipis_delivered > quiet.ipis_delivered,
            "churn must add shootdowns: {} vs {}",
            churny.ipis_delivered,
            quiet.ipis_delivered
        );
    }
}
