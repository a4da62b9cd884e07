//! Calibration loops: host time per call of each layer's public function,
//! measured from outside on state shaped like the workload.
//!
//! The outer calls (`Machine::access`, `VirtMachine::access`, the
//! `SmpSystem` monitor ops) are timed inline by the workloads. The inner
//! layers are private fields of the machines, so each gets a loop here
//! over a copy built with the same configuration and driven by the
//! workload's own addresses. Every traced run measures every layer; a
//! workload that bypasses a layer measures it on a small stand-in, and its
//! count of that layer's operations is zero, so the stand-in adds nothing
//! to the workload's cost model.

use std::hint::black_box;
use std::time::Instant;

use hpmp_core::{FillPolicy, LeafPmpte, PmpRegion, PmpTable, PmptwCache, PmptwCacheConfig};
use hpmp_machine::{
    IsolationScheme, Machine, MachineConfig, SystemBuilder, VirtMachine, VirtScheme,
};
use hpmp_memsim::{
    AccessKind, FrameAllocator, MemSystem, Perms, PhysAddr, PhysMem, PrivMode, SplitMix64,
    VirtAddr, PAGE_SIZE,
};
use hpmp_modelcheck::{fail_closed_violation, MonitorOp, ScheduledOp};
use hpmp_paging::{
    nested_walk, walk, AddressSpace, GuestView, NestedPageTable, Tlb, TlbEntry, TranslationMode,
    WalkCache,
};
use hpmp_penglai::{DomainId, GmsLabel, SmpSystem, TeeFlavor};
use hpmp_trace::TraceSink;

use crate::report::Report;
use crate::stats::Samples;
use crate::Timings;

/// Batches per calibration loop: enough that the tail is a p99.
const BATCHES: usize = 1000;
/// Calls per batch; one sample is the mean over a batch, so the clock's
/// own cost is amortised.
const PER_BATCH: usize = 32;

/// Times `BATCHES` batches of `PER_BATCH` calls to `op(i)` and returns the
/// mean ns per call of each batch.
fn per_call_ns(mut op: impl FnMut(usize) -> u64) -> Samples {
    let mut samples = Samples::default();
    let mut sink = 0u64;
    let mut i = 0;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..PER_BATCH {
            sink = sink.wrapping_add(op(black_box(i)));
            i += 1;
        }
        samples.push(t.elapsed().as_nanos() as f64 / PER_BATCH as f64);
    }
    black_box(sink);
    samples
}

/// Adds `samples` to timing site `site`.
fn add(timings: &mut Timings, site: &'static str, samples: Samples) {
    timings.entry(site).or_default().merge(samples);
}

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Times the native inner layers (TLB, PWC, walker, checker, PMPTW-Cache,
/// PMP Table, cache hierarchy, PhysMem) on copies shaped like `machine`,
/// driven by the workload's virtual addresses `vas` in `space`.
pub fn native_layers<S: TraceSink>(
    machine: &Machine<S>,
    space: &AddressSpace,
    vas: &[VirtAddr],
    timings: &mut Timings,
) {
    assert!(!vas.is_empty(), "calibration needs addresses");
    let config = MachineConfig::rocket();
    let mem = machine.phys();
    let va = |i: usize| vas[i % vas.len()];

    // Translations, PT-page addresses and data addresses of the workload,
    // taken once so the loops below time only the layer under test.
    let mut pwc = WalkCache::new(config.pwc);
    let mut data_pas = Vec::new();
    let mut pt_pas = Vec::new();
    for &v in vas.iter().take(4096) {
        let w = walk(mem, space, &mut pwc, v);
        pt_pas.extend(w.pt_refs.iter().map(|r| r.addr));
        if let Some(t) = w.translation {
            data_pas.push(t.paddr);
        }
    }
    assert!(
        !data_pas.is_empty() && !pt_pas.is_empty(),
        "workload addresses must translate"
    );

    let mut tlb = Tlb::new(config.tlb);
    for &v in vas.iter().take(4096) {
        tlb.fill(TlbEntry {
            asid: space.asid(),
            vpn: v.raw() / PAGE_SIZE,
            frame: PhysAddr::new(v.raw() & !(PAGE_SIZE - 1)),
            page_perms: Perms::RW,
            isolation_perms: Perms::RWX,
            user: true,
            epoch: tlb.epoch(),
        });
    }
    let asid = space.asid();
    add(
        timings,
        "paging.tlb.lookup",
        per_call_ns(|i| u64::from(tlb.lookup(asid, va(i)).is_some())),
    );

    let mode = space.mode();
    add(
        timings,
        "paging.pwc.lookup",
        per_call_ns(|i| u64::from(pwc.lookup(mode, asid, 1, va(i)).is_some())),
    );
    add(
        timings,
        "paging.walker.walk",
        per_call_ns(|i| walk(mem, space, &mut pwc, va(i)).ref_count() as u64),
    );

    let plan = machine.regs().plan();
    let mut cache = PmptwCache::new(*machine.pmptw_cache().config());
    let checked: Vec<PhysAddr> = data_pas.iter().chain(&pt_pas).copied().collect();
    add(
        timings,
        "core.checker.check",
        per_call_ns(|i| {
            let pa = checked[i % checked.len()];
            u64::from(
                plan.check(mem, &mut cache, pa, AccessKind::Read, PrivMode::User)
                    .allowed,
            )
        }),
    );

    let ram_base = 0x8000_0000u64;
    let mut pmptw = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
    for pa in data_pas.iter().take(8) {
        pmptw.insert_leaf(0, pa.raw() - ram_base, LeafPmpte::splat(Perms::RW));
    }
    add(
        timings,
        "core.pmptw_cache.lookup",
        per_call_ns(|i| {
            let pa = data_pas[i % data_pas.len()];
            u64::from(pmptw.lookup_leaf(0, pa.raw() - ram_base).is_some())
        }),
    );

    let (table_mem, table) = table_over(&data_pas);
    add(
        timings,
        "core.table.walk",
        per_call_ns(|i| {
            let pa = data_pas[i % data_pas.len()];
            table.walk(&table_mem, pa).refs.len() as u64
        }),
    );

    let mut hierarchy = MemSystem::new(config.mem);
    add(
        timings,
        "memsim.hierarchy.access",
        per_call_ns(|i| {
            let pa = if i % 2 == 0 {
                data_pas[(i / 2) % data_pas.len()]
            } else {
                pt_pas[(i / 2) % pt_pas.len()]
            };
            hierarchy.access(pa).cycles
        }),
    );
    add(
        timings,
        "memsim.physmem.read",
        per_call_ns(|i| mem.read_u64(pt_pas[i % pt_pas.len()])),
    );
}

/// A two-level PMP Table granting RW on every page spanned by `pas`, in
/// memory of its own — the shape the PMPT and HPMP monitors build.
fn table_over(pas: &[PhysAddr]) -> (PhysMem, PmpTable) {
    let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);
    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(PhysAddr::new(0x8040_0000), 8 << 20);
    let mut table = PmpTable::new(ram, &mut mem, &mut frames).expect("table root");
    let lo = pas.iter().map(|p| p.raw()).min().expect("addresses") & !(PAGE_SIZE - 1);
    let hi = pas.iter().map(|p| p.raw()).max().expect("addresses") | (PAGE_SIZE - 1);
    table
        .set_range_perm(
            &mut mem,
            &mut frames,
            PhysAddr::new(lo),
            hi + 1 - lo,
            Perms::RW,
            FillPolicy::PerPage,
        )
        .expect("table fill");
    (mem, table)
}

/// Times `nested_walk` over a guest of `guest_pages` pages mapped at guest
/// VA 0x20_0000, with an NPT behind it — the layout `VirtMachine` builds.
pub fn nested_layer(seed: u64, guest_pages: u64, timings: &mut Timings) {
    const GPA_PT_POOL: u64 = 0x1000_0000;
    const GPA_DATA: u64 = GPA_PT_POOL + (8 << 20);
    let mut phys = PhysMem::new();
    let mut npt_frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 8 << 20);
    let mut npt = NestedPageTable::new(&mut phys, &mut npt_frames).expect("NPT root");
    let backed = [
        (GPA_PT_POOL, 2048u64, 0x8200_0000u64),
        (GPA_DATA, guest_pages, 0x8400_0000),
    ];
    for (gpa, pages, hpa) in backed {
        for i in 0..pages {
            npt.map_page(
                &mut phys,
                &mut npt_frames,
                PhysAddr::new(gpa + i * PAGE_SIZE),
                PhysAddr::new(hpa + i * PAGE_SIZE),
                true,
            )
            .expect("NPT map");
        }
    }
    let mut guest_frames = FrameAllocator::new(PhysAddr::new(GPA_PT_POOL), 8 << 20);
    let mut view = GuestView::new(&mut phys, &npt);
    let mut guest = AddressSpace::new(TranslationMode::Sv39, 5, &mut view, &mut guest_frames)
        .expect("guest root");
    for i in 0..guest_pages {
        guest
            .map_page(
                &mut view,
                &mut guest_frames,
                VirtAddr::new(0x20_0000 + i * PAGE_SIZE),
                PhysAddr::new(GPA_DATA + i * PAGE_SIZE),
                Perms::RW,
                true,
            )
            .expect("guest map");
    }
    let config = MachineConfig::rocket();
    let mut gtlb = Tlb::new(config.tlb);
    let mut gpwc = WalkCache::new(config.pwc);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let gvas: Vec<VirtAddr> = (0..4096)
        .map(|_| VirtAddr::new(0x20_0000 + rng.gen_range(0..guest_pages) * PAGE_SIZE))
        .collect();
    add(
        timings,
        "paging.nested.walk",
        per_call_ns(|i| {
            let gva = gvas[i % gvas.len()];
            nested_walk(&phys, &guest, &npt, &mut gtlb, &mut gpwc, gva)
                .refs
                .len() as u64
        }),
    );
}

/// Per-access host time of `Machine::access`, bucketed by whether the
/// access hit the TLB or walked.
#[derive(Debug, Default)]
pub struct AccessTimers {
    /// TLB hits, ns.
    pub hit: Samples,
    /// Walks, ns.
    pub walk: Samples,
}

/// Stand-in for workloads without a native machine: an HPMP system with
/// `pages` mapped pages, half its accesses on 16 hot pages so both the
/// hit and the walk bucket fill. Times `Machine::access` inline, then the
/// native inner layers on the same state.
pub fn native_stand_in(seed: u64, pages: u64, timings: &mut Timings) {
    let base = 0x10_0000u64;
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp).build();
    sys.map_range(VirtAddr::new(base), pages, Perms::RW);
    sys.sync_pt_grants();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let vas: Vec<VirtAddr> = (0..1 << 14)
        .map(|_| {
            let page = if rng.gen_bool(0.5) {
                rng.gen_range(0..16)
            } else {
                rng.gen_range(0..pages)
            };
            VirtAddr::new(base + page * PAGE_SIZE)
        })
        .collect();
    let mut t = AccessTimers::default();
    for &va in &vas {
        let start = Instant::now();
        let out = sys
            .machine
            .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor);
        let ns = start.elapsed().as_nanos() as f64;
        match out {
            Ok(o) if o.tlb_hit.is_some() => t.hit.push(ns),
            _ => t.walk.push(ns),
        }
    }
    add(timings, "machine.access.hit", t.hit);
    add(timings, "machine.access.walk", t.walk);
    native_layers(&sys.machine, &sys.space, &vas, timings);
}

/// Stand-in for workloads without a guest: `VirtMachine::access` walk
/// times on an HPMP-GPT guest of 4096 pages, plus the nested walker.
pub fn virt_stand_in(seed: u64, timings: &mut Timings) {
    let pages = 4096;
    let mut vm = VirtMachine::new(MachineConfig::rocket(), VirtScheme::HpmpGpt, pages);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut walks = Samples::default();
    for _ in 0..1 << 13 {
        let gva = VirtAddr::new(0x20_0000 + rng.gen_range(0..pages) * PAGE_SIZE);
        let start = Instant::now();
        let out = vm.access(gva, AccessKind::Read);
        let ns = start.elapsed().as_nanos() as f64;
        if !matches!(out, Ok(o) if o.tlb_hit) {
            walks.push(ns);
        }
    }
    add(timings, "machine.virt_access.walk", walks);
    nested_layer(seed, pages, timings);
}

/// A freshly booted two-hart system with 128 MiB of RAM, the shape the
/// bounded model checker searches from.
pub fn boot_smp(flavor: TeeFlavor) -> SmpSystem {
    let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), 128 << 20);
    SmpSystem::boot(MachineConfig::rocket(), flavor, ram, 2).expect("two-hart boot")
}

/// Stand-in for workloads whose monitor sits idle: times each `SmpSystem`
/// monitor op over a balanced create → alloc → switch → switch back →
/// free → destroy cycle on `smp`, leaving it as it found it.
pub fn monitor_stand_in(smp: &mut SmpSystem, rep: &mut Report, timings: &mut Timings) {
    let mut t: [Samples; 5] = Default::default();
    for _ in 0..200 {
        let start = Instant::now();
        let created = smp.create_domain_on(0, 1 << 20, GmsLabel::Slow);
        t[3].push(us_since(start));
        let Ok((domain, _)) = created else {
            rep.check(false, || "stand-in create_domain_on failed".into());
            return;
        };
        let start = Instant::now();
        let region = smp.alloc_on(0, domain, 1 << 20, GmsLabel::Slow);
        t[1].push(us_since(start));
        let start = Instant::now();
        let there = smp.switch_on(1, domain);
        let back = smp.switch_on(1, DomainId::HOST);
        t[0].push(us_since(start) / 2.0);
        let mut ok = region.is_ok() && there.is_ok() && back.is_ok();
        if let Ok((region, _)) = region {
            let start = Instant::now();
            ok &= smp.free_on(0, domain, region.base).is_ok();
            t[2].push(us_since(start));
        }
        let start = Instant::now();
        ok &= smp.destroy_domain_on(0, domain).is_ok();
        t[4].push(us_since(start));
        rep.check(ok, || "stand-in monitor op failed".into());
    }
    let [switch, alloc, free, create, destroy] = t;
    add(timings, "penglai.monitor.switch", switch);
    add(timings, "penglai.monitor.alloc", alloc);
    add(timings, "penglai.monitor.free", free);
    add(timings, "penglai.monitor.create", create);
    add(timings, "penglai.monitor.destroy", destroy);
}

/// One op of a seeded random walk over `smp`'s current state, drawn from
/// the same kinds of op the bounded model checker enumerates.
pub fn random_op(smp: &SmpSystem, rng: &mut SplitMix64) -> ScheduledOp {
    let hart = rng.gen_range(0..smp.harts() as u64) as u16;
    let enclaves: Vec<DomainId> = smp
        .monitor()
        .domain_ids()
        .into_iter()
        .filter(|&d| d != DomainId::HOST)
        .collect();
    let op = if enclaves.len() < 2 || rng.gen_bool(0.2) {
        MonitorOp::Create
    } else {
        let d = enclaves[rng.gen_range(0..enclaves.len() as u64) as usize];
        let regions = smp.monitor().regions_of(d).map(<[_]>::len).unwrap_or(0);
        let free_here = (0..smp.harts() as u16).all(|h| h == hart || smp.scheduled(h) != d);
        match rng.gen_range(0..5) {
            0 if enclaves.len() > 2 => MonitorOp::Destroy(d.0),
            1 if regions > 1 => MonitorOp::Free {
                domain: d.0,
                slot: regions - 1,
            },
            2 if free_here && smp.scheduled(hart) != d => MonitorOp::Switch(d.0),
            3 if smp.scheduled(hart) != DomainId::HOST => MonitorOp::Switch(DomainId::HOST.0),
            _ => MonitorOp::Alloc {
                domain: d.0,
                label: if rng.gen_bool(0.5) {
                    GmsLabel::Fast
                } else {
                    GmsLabel::Slow
                },
                pressure: false,
            },
        }
    };
    ScheduledOp { hart, op }
}

/// Host time of the model checker's four per-transition steps — fork
/// (`SmpSystem::clone`), op apply, `state_fingerprint` and the oracle
/// probe — over a seeded random walk of `steps` transitions from `root`.
/// The walk restarts from `root` every eight transitions so the state
/// stays as small as a bounded search's.
pub fn fork_layers(
    root: &SmpSystem,
    seed: u64,
    steps: usize,
    rep: &mut Report,
    timings: &mut Timings,
) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut t: [Samples; 4] = Default::default();
    let mut state = root.clone();
    for step in 0..steps {
        if step % 8 == 0 {
            state = root.clone();
        }
        let op = random_op(&state, &mut rng);
        let start = Instant::now();
        let mut fork = state.clone();
        t[0].push(us_since(start));
        let start = Instant::now();
        let applied = hpmp_modelcheck::schedule::apply(&mut fork, op);
        t[1].push(us_since(start));
        let start = Instant::now();
        black_box(fork.state_fingerprint());
        t[2].push(us_since(start));
        let start = Instant::now();
        let violation = fail_closed_violation(&mut fork);
        t[3].push(us_since(start));
        rep.check(applied.is_ok(), || {
            format!("random op `{op}` could not be issued")
        });
        rep.check(violation.is_none(), || {
            format!("fast path over-grants after `{op}`: {violation:?}")
        });
        state = fork;
    }
    let [clone, apply, fingerprint, oracle] = t;
    add(timings, "modelcheck.clone", clone);
    add(timings, "modelcheck.apply", apply);
    add(timings, "modelcheck.fingerprint", fingerprint);
    add(timings, "modelcheck.oracle", oracle);
}

/// Host time of taking one metrics snapshot through `snap`.
pub fn snapshot_layer(timings: &mut Timings, mut snap: impl FnMut() -> usize) {
    let mut s = Samples::default();
    for _ in 0..200 {
        let start = Instant::now();
        black_box(snap());
        s.push(us_since(start));
    }
    add(timings, "trace.snapshot", s);
}
