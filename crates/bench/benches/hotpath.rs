//! Microbenches for the simulator's per-access hot path: flat page-directory
//! reads/writes, cache-hierarchy references (L1-resident and DRAM-bound),
//! TLB/PWC/PMPTW-cache lookups, the 3-D nested walk, the planned HPMP
//! check of a table-mode entry, a 16 MiB PMP Table range fill,
//! interned-counter bumps, and the SMP monitor's create, destroy, switch,
//! cross-hart shootdown, state fork and fingerprint — plus
//! end-to-end page-walk and 4-hart tenancy sweeps whose throughput
//! declarations turn the timing into the suite's walks-per-second
//! headline (printed to stderr after the run).
//!
//! These are the operations every simulated memory reference pays, so their
//! per-op cost bounds full-experiment wall clock. Emit a machine-readable
//! report for `hpmp-analyze gate` with:
//!
//! ```text
//! cargo bench --bench hotpath -- --bench-out BENCH_hotpath.json
//! ```

use hpmp_bench::{criterion_group, criterion_main, Criterion, Throughput};
use hpmp_core::{
    FillPolicy, HpmpRegFile, LeafPmpte, PmpRegion, PmpTable, PmptwCache, PmptwCacheConfig,
    TableLevels,
};
use hpmp_machine::{IsolationScheme, MachineConfig, SystemBuilder};
use hpmp_memsim::{
    AccessKind, FrameAllocator, MemSystem, MemSystemConfig, Perms, PhysAddr, PhysMem, PrivMode,
    SplitMix64, VirtAddr, LINE_SIZE, PAGE_SIZE,
};
use hpmp_paging::{
    nested_walk, AddressSpace, GuestView, NestedPageTable, Tlb, TlbConfig, TlbEntry,
    TranslationMode, WalkCache, WalkCacheConfig,
};
use hpmp_trace::{walks_in_snapshot, MetricsRegistry};
use std::hint::black_box;

/// Operations per timed iteration, so per-op noise amortises.
const OPS: u64 = 1024;

const RAM_BASE: u64 = 0x8000_0000;

fn physmem(c: &mut Criterion) {
    let mut group = c.benchmark_group("physmem");
    group.sample_size(200);

    // Pages spread over several directory chunks, as a walk's pointer
    // chases are.
    let stride = 37 * PAGE_SIZE;
    let mut mem = PhysMem::new();
    for i in 0..OPS {
        mem.write_u64(PhysAddr::new(RAM_BASE + i * stride), i);
    }
    group.bench_function("read_u64", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for i in 0..OPS {
                sum =
                    sum.wrapping_add(mem.read_u64(black_box(PhysAddr::new(RAM_BASE + i * stride))));
            }
            sum
        })
    });
    group.bench_function("write_u64", |b| {
        b.iter(|| {
            for i in 0..OPS {
                mem.write_u64(black_box(PhysAddr::new(RAM_BASE + i * stride + 8)), i);
            }
        })
    });
    group.finish();
}

fn hierarchy(c: &mut Criterion) {
    let mut group = c.benchmark_group("memsim");
    group.sample_size(200);

    // 128 lines = half the Rocket L1: after the warm-up call every
    // reference hits L1.
    let mut mem = MemSystem::new(MemSystemConfig::rocket());
    group.bench_function("hierarchy_l1_hot", |b| {
        b.iter(|| {
            let mut cycles = 0u64;
            for i in 0..OPS {
                let pa = PhysAddr::new(RAM_BASE + (i % 128) * LINE_SIZE);
                cycles += mem.access(black_box(pa)).cycles;
            }
            cycles
        })
    });

    // A line-stride stream over 64 MiB, 16× the LLC: every reference
    // misses every level and pays the DRAM model.
    const SPAN_LINES: u64 = (64 << 20) / LINE_SIZE;
    let mut mem = MemSystem::new(MemSystemConfig::rocket());
    let mut line = 0u64;
    group.bench_function("hierarchy_dram", |b| {
        b.iter(|| {
            let mut cycles = 0u64;
            for _ in 0..OPS {
                let pa = PhysAddr::new(RAM_BASE + line * LINE_SIZE);
                cycles += mem.access(black_box(pa)).cycles;
                line = (line + 1) % SPAN_LINES;
            }
            cycles
        })
    });
    group.finish();
}

fn lookups(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup");
    group.sample_size(200);

    let mut tlb = Tlb::new(TlbConfig::default());
    for vpn in 0..32u64 {
        tlb.fill(TlbEntry {
            asid: 1,
            vpn,
            frame: PhysAddr::new(RAM_BASE + vpn * PAGE_SIZE),
            page_perms: Perms::RW,
            isolation_perms: Perms::RWX,
            user: false,
            epoch: 0,
        });
    }
    group.bench_function("tlb_hit", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..OPS {
                let va = VirtAddr::new((i % 32) * PAGE_SIZE);
                hits += tlb.lookup(1, black_box(va)).is_some() as u64;
            }
            hits
        })
    });

    let mut pwc = WalkCache::new(WalkCacheConfig::default());
    for i in 0..8u64 {
        let va = VirtAddr::new(i << 30);
        pwc.insert(
            TranslationMode::Sv39,
            1,
            2,
            va,
            PhysAddr::new(RAM_BASE + i * PAGE_SIZE),
        );
    }
    group.bench_function("pwc_hit", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..OPS {
                let va = VirtAddr::new((i % 8) << 30);
                hits += pwc
                    .lookup(TranslationMode::Sv39, 1, 2, black_box(va))
                    .is_some() as u64;
            }
            hits
        })
    });

    let mut pmptw = PmptwCache::new(PmptwCacheConfig::ENABLED_8);
    for i in 0..8u64 {
        pmptw.insert_leaf(0, i << 16, LeafPmpte::splat(Perms::RW));
    }
    group.bench_function("pmptw_cache_hit", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..OPS {
                hits += pmptw.lookup_leaf(0, black_box((i % 8) << 16)).is_some() as u64;
            }
            hits
        })
    });
    group.finish();
}

/// The 3-D nested walk alone, in the `walk_virt` shape: an Sv39 guest of
/// 4096 data pages at guest VA 0x20_0000 over an Sv39x4 nested table,
/// walked at uniformly random pages with the G-stage TLB and guest PWC
/// warm (the Rocket geometry; the harness's warm-up call fills them).
fn nested(c: &mut Criterion) {
    const GUEST_PAGES: u64 = 4096;
    const GUEST_BASE: u64 = 0x20_0000;
    const GPA_PT_POOL: u64 = 0x1000_0000;
    const GPA_DATA: u64 = 0x1080_0000;

    let mut group = c.benchmark_group("paging");
    group.sample_size(200);

    let mut mem = PhysMem::new();
    let mut npt_frames = FrameAllocator::new(PhysAddr::new(RAM_BASE), 64 * PAGE_SIZE);
    let mut npt = NestedPageTable::new(&mut mem, &mut npt_frames).expect("NPT root");
    let mut host = FrameAllocator::new(PhysAddr::new(RAM_BASE + (1 << 24)), 1 << 26);
    for i in 0..64 {
        let gpa = PhysAddr::new(GPA_PT_POOL + i * PAGE_SIZE);
        let hpa = host.alloc().expect("host frame");
        npt.map_page(&mut mem, &mut npt_frames, gpa, hpa, true)
            .expect("NPT map");
    }
    for i in 0..GUEST_PAGES {
        let gpa = PhysAddr::new(GPA_DATA + i * PAGE_SIZE);
        let hpa = host.alloc().expect("host frame");
        npt.map_page(&mut mem, &mut npt_frames, gpa, hpa, true)
            .expect("NPT map");
    }
    let mut guest_frames = FrameAllocator::new(PhysAddr::new(GPA_PT_POOL), 64 * PAGE_SIZE);
    let mut view = GuestView::new(&mut mem, &npt);
    let mut guest = AddressSpace::new(TranslationMode::Sv39, 5, &mut view, &mut guest_frames)
        .expect("guest root");
    for i in 0..GUEST_PAGES {
        let gva = VirtAddr::new(GUEST_BASE + i * PAGE_SIZE);
        let gpa = PhysAddr::new(GPA_DATA + i * PAGE_SIZE);
        guest
            .map_page(&mut view, &mut guest_frames, gva, gpa, Perms::RW, true)
            .expect("guest map");
    }

    let config = MachineConfig::rocket();
    let mut gtlb = Tlb::new(config.tlb);
    let mut gpwc = WalkCache::new(config.pwc);
    let mut rng = SplitMix64::seed_from_u64(1);
    let gvas: Vec<VirtAddr> = (0..OPS)
        .map(|_| VirtAddr::new(GUEST_BASE + rng.gen_range(0..GUEST_PAGES) * PAGE_SIZE))
        .collect();
    group.bench_function("nested_walk", |b| {
        b.iter(|| {
            let mut refs = 0;
            for &gva in &gvas {
                let result = nested_walk(&mem, &guest, &npt, &mut gtlb, &mut gpwc, black_box(gva));
                refs += result.refs.len();
            }
            refs
        })
    });
    group.finish();
}

/// The planned HPMP check of a table-mode entry with the PMPTW-Cache off:
/// every check reads a root and a leaf pmpte.
fn checks(c: &mut Criterion) {
    let mut group = c.benchmark_group("check");
    group.sample_size(200);

    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(PhysAddr::new(RAM_BASE), 64 * PAGE_SIZE);
    let region = PmpRegion::new(PhysAddr::new(RAM_BASE + (1 << 28)), 1 << 28);
    let mut table = PmpTable::new(region, &mut mem, &mut frames).expect("table");
    for i in 0..OPS {
        let page = PhysAddr::new(region.base.raw() + i * PAGE_SIZE);
        table
            .set_page_perm(&mut mem, &mut frames, page, Perms::RW)
            .expect("table fill");
    }
    let mut regs = HpmpRegFile::new();
    regs.configure_table(0, region, table.root(), TableLevels::Two)
        .expect("table entry");
    let plan = regs.plan();
    let mut cache = PmptwCache::disabled();
    assert_eq!(
        plan.check(
            &mem,
            &mut cache,
            region.base,
            AccessKind::Read,
            PrivMode::Supervisor
        )
        .refs
        .len(),
        2,
        "a table-mode check without the cache reads two pmptes"
    );
    // A 16 MiB per-page fill of the same table, as the monitor grants a
    // region one nibble per page: 4096 pages, 256 leaf pmptes.
    let mut perms = Perms::RW;
    let fill_base = PhysAddr::new(region.base.raw() + (32 << 20));
    group.bench_function("set_range_16mib", |b| {
        b.iter(|| {
            perms = if perms == Perms::RW {
                Perms::RX
            } else {
                Perms::RW
            };
            table
                .set_range_perm(
                    &mut mem,
                    &mut frames,
                    black_box(fill_base),
                    16 << 20,
                    perms,
                    FillPolicy::PerPage,
                )
                .expect("16 MiB fill")
        })
    });

    group.bench_function("entry_plan_table", |b| {
        b.iter(|| {
            let mut allowed = 0u64;
            for i in 0..OPS {
                let pa = PhysAddr::new(region.base.raw() + i * PAGE_SIZE);
                allowed += plan
                    .check(
                        &mem,
                        &mut cache,
                        black_box(pa),
                        AccessKind::Read,
                        PrivMode::Supervisor,
                    )
                    .allowed as u64;
            }
            allowed
        })
    });
    group.finish();
}

fn registry(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry");
    group.sample_size(200);

    let mut reg = MetricsRegistry::new();
    let id = reg.counter("machine.refs.pt_reads");
    group.bench_function("bump_interned", |b| {
        b.iter(|| {
            for i in 0..OPS {
                reg.bump(black_box(id), i & 1);
            }
            reg.get(id)
        })
    });
    group.bench_function("add_by_name", |b| {
        b.iter(|| {
            for i in 0..OPS {
                reg.add(black_box("machine.refs.pt_reads"), i & 1);
            }
            reg.get(id)
        })
    });
    group.finish();
}

/// End-to-end page walks through a full HPMP machine: a cyclic read sweep
/// over 1024 mapped pages — 32× the TLB — so every access misses and pays
/// the whole walker + isolation-check pipeline. The group declares its
/// measured walk count as throughput, so this benchmark carries the
/// suite's walks-per-second headline.
fn walks(c: &mut Criterion) {
    let mut group = c.benchmark_group("walk");
    group.sample_size(50);

    let base = 0x10_0000u64;
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Hpmp).build();
    sys.map_range(VirtAddr::new(base), OPS, Perms::RW);
    sys.sync_pt_grants();

    let sweep = |sys: &mut hpmp_machine::System| {
        let mut hits = 0u64;
        for i in 0..OPS {
            let va = VirtAddr::new(base + i * PAGE_SIZE);
            hits += sys
                .machine
                .access(
                    &sys.space,
                    black_box(va),
                    AccessKind::Read,
                    PrivMode::Supervisor,
                )
                .is_ok() as u64;
        }
        hits
    };

    // Calibrate the throughput declaration against the machine's own walk
    // counter rather than assuming one walk per access.
    let before = walks_in_snapshot(&sys.machine.metrics_snapshot());
    assert_eq!(sweep(&mut sys), OPS, "sweep must stay fault-free");
    let walks = walks_in_snapshot(&sys.machine.metrics_snapshot()) - before;
    assert!(walks > 0, "the sweep must page-walk");
    group.throughput(Throughput::Elements(walks));

    group.bench_function("hpmp_read_sweep", |b| b.iter(|| sweep(&mut sys)));
    group.finish();
}

/// End-to-end SMP walk throughput: the fixed-seed tenancy shape at 4
/// harts, with throughput calibrated against the run's own walk counter.
fn smp_tenancy(c: &mut Criterion) {
    use hpmp_memsim::CoreKind;
    use hpmp_penglai::TeeFlavor;
    use hpmp_workloads::smp::{run_smp, spec_for};

    /// The `hpmpsim` SMP seed, so the bench measures the run
    /// `hpmpsim --harts 4 --workload tenancy` reports.
    const SMP_SEED: u64 = 0x4850_4d50;
    const HARTS: usize = 4;

    let mut group = c.benchmark_group("smp");
    group.sample_size(20);
    let spec = spec_for("tenancy").expect("tenancy has an SMP shape");
    let run = || {
        run_smp(
            TeeFlavor::PenglaiHpmp,
            CoreKind::Rocket,
            HARTS,
            SMP_SEED,
            spec,
        )
        .expect("tenancy runs clean")
    };

    let (_, snap) = run();
    let walks = walks_in_snapshot(&snap);
    assert!(walks > 0, "the SMP sweep must page-walk");
    group.throughput(Throughput::Elements(walks));
    group.bench_function("tenancy_x4", |b| b.iter(|| black_box(run()).0.accesses));
    group.finish();
}

/// Monitor-level SMP operations on a booted 2-hart HPMP system:
/// `smp/fork` clones and drops it, as `hpmp-verify bmc` does for every op
/// it tries, and `smp/fork_enclave` does the same once an enclave holds
/// two regions. `smp/create` creates one enclave per iteration from hart
/// 0 and `smp/destroy` then destroys them, newest first; `smp/switch`
/// moves hart 0 between an enclave and the host, one switch per
/// iteration. Then, with an enclave scheduled on hart 0, `smp/shootdown`
/// is one `alloc_on` + `free_on` pair from hart 0 (a GMS grant and
/// revoke, each delivering a cross-hart shootdown to hart 1), and
/// `smp/fingerprint` is the model checker's `state_fingerprint`.
fn smp_ops(c: &mut Criterion) {
    use hpmp_penglai::{DomainId, GmsLabel, SmpSystem, TeeFlavor};

    /// Enclaves `smp/create` makes: its warm-up call plus its samples.
    const CREATES: usize = 100;

    let mut group = c.benchmark_group("smp");
    group.sample_size(200);
    let ram = PmpRegion::new(PhysAddr::new(RAM_BASE), 128 << 20);
    let mut smp = SmpSystem::boot(MachineConfig::rocket(), TeeFlavor::PenglaiHpmp, ram, 2)
        .expect("2-hart HPMP boot");
    group.bench_function("fork", |b| b.iter(|| drop(black_box(smp.clone()))));

    let (enclave, _) = smp
        .create_domain_on(0, 256 * 1024, GmsLabel::Fast)
        .expect("enclave create");
    {
        let mut smp = smp.clone();
        for label in [GmsLabel::Fast, GmsLabel::Slow] {
            smp.alloc_on(0, enclave, 64 * 1024, label).expect("grant");
        }
        group.bench_function("fork_enclave", |b| b.iter(|| drop(black_box(smp.clone()))));
    }

    {
        let ram = PmpRegion::new(PhysAddr::new(RAM_BASE), 1 << 30);
        let mut smp = SmpSystem::boot(MachineConfig::rocket(), TeeFlavor::PenglaiHpmp, ram, 2)
            .expect("2-hart HPMP boot");
        let mut created = Vec::with_capacity(CREATES);
        group.sample_size(CREATES - 1);
        group.bench_function("create", |b| {
            b.iter(|| {
                let (id, cycles) = smp
                    .create_domain_on(0, 64 * 1024, GmsLabel::Slow)
                    .expect("enclave create");
                created.push(id);
                cycles
            })
        });
        group.bench_function("destroy", |b| {
            b.iter(|| {
                let id = created.pop().expect("an enclave left to destroy");
                smp.destroy_domain_on(0, id).expect("enclave destroy")
            })
        });
        assert!(created.is_empty(), "destroy undoes every create");
        group.sample_size(200);
    }

    let mut target = enclave;
    group.bench_function("switch", |b| {
        b.iter(|| {
            let cycles = smp.switch_on(0, target).expect("switch");
            target = if target == enclave {
                DomainId::HOST
            } else {
                enclave
            };
            cycles
        })
    });

    if smp.scheduled(0) != enclave {
        smp.switch_on(0, enclave).expect("schedule the enclave");
    }
    let shootdowns = |smp: &mut SmpSystem| smp.metrics_snapshot().value("hart.1.shootdowns");
    let before = shootdowns(&mut smp);
    group.bench_function("shootdown", |b| {
        b.iter(|| {
            let (region, alloc) = smp
                .alloc_on(0, enclave, 64 * 1024, GmsLabel::Slow)
                .expect("grant");
            alloc + smp.free_on(0, enclave, region.base).expect("revoke")
        })
    });
    assert!(
        shootdowns(&mut smp) > before,
        "grant and revoke must shoot down hart 1"
    );
    group.bench_function("fingerprint", |b| {
        b.iter(|| black_box(&smp).state_fingerprint())
    });
    group.finish();
}

criterion_group!(
    benches,
    physmem,
    hierarchy,
    lookups,
    nested,
    checks,
    registry,
    walks,
    smp_tenancy,
    smp_ops
);
criterion_main!(benches);
