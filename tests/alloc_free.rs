//! The warm access path allocates nothing.
//!
//! Every walk's reference lists (PTE reads, pmpte reads, nested-PT and
//! guest-PT reads) are fixed-capacity inline lists, so once the modelled
//! caches and page tables are warm, a walking `Machine::access` or
//! `VirtMachine::access` with the null trace sink performs no heap
//! allocation at all. This binary installs a counting global allocator
//! (which is why it is a test binary of its own) and pins that.
//!
//! It also pins the cost of forking a booted multi-hart system, which the
//! bounded model checker does for every op it tries: interned counter
//! names are shared between forks and an unfilled TLB holds no L2 array,
//! so a fork copies little more than the machine state that differs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hpmp_suite::machine::{MachineConfig, VirtMachine, VirtScheme};
use hpmp_suite::memsim::{AccessKind, CoreKind, PrivMode, VirtAddr, PAGE_SIZE};
use hpmp_suite::modelcheck::bmc::boot_system;
use hpmp_suite::modelcheck::BmcConfig;
use hpmp_suite::penglai::TeeFlavor;
use hpmp_suite::workloads::arena::UserArena;
use hpmp_suite::workloads::{TeeBench, FLAVORS};

thread_local! {
    /// Allocations made by the current thread. Per-thread, so tests the
    /// harness runs in parallel do not count each other's allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: defers every allocation to `System` unchanged; the counter is a
// const-initialised thread-local cell that never allocates itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` because the allocator also runs during thread teardown.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Pages touched: four times the 1024-entry L2 TLB, which a sequential
/// sweep then misses on every access.
const PAGES: u64 = 4096;
/// Sweeps that warm the caches, page tables and PMPTW-Cache first.
const WARM_SWEEPS: u64 = 2;
/// Sweeps measured: 12,288 walking accesses.
const MEASURED_SWEEPS: u64 = 3;

/// Byte offset of the `i`-th access: page `i mod PAGES`, at a line that
/// moves between sweeps; reads and writes alternate.
fn step(i: u64) -> (u64, AccessKind) {
    let offset = (i % PAGES) * PAGE_SIZE + (i / PAGES * 64) % PAGE_SIZE;
    let kind = if i.is_multiple_of(2) {
        AccessKind::Read
    } else {
        AccessKind::Write
    };
    (offset, kind)
}

/// Runs `sweeps` sweeps starting at step `first` through `access`, which
/// reports whether the access walked. Returns `(walks, allocations)`.
fn sweep(first: u64, sweeps: u64, mut access: impl FnMut(u64, AccessKind) -> bool) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let mut walks = 0;
    for i in first..first + sweeps * PAGES {
        let (offset, kind) = step(i);
        walks += u64::from(access(offset, kind));
    }
    (walks, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn warm_native_walks_allocate_nothing() {
    for flavor in FLAVORS {
        let mut tee = TeeBench::boot(flavor, CoreKind::Rocket);
        let arena = UserArena::create(&mut tee.os, &mut tee.machine, PAGES).expect("arena fits");
        let TeeBench { machine, os, .. } = &mut tee;
        let space = os.space_of(arena.pid).expect("arena process");
        let mut access = |offset, kind| {
            let out = machine
                .access(space, arena.va(offset), kind, PrivMode::User)
                .unwrap_or_else(|fault| panic!("{flavor:?}: {fault:?}"));
            out.tlb_hit.is_none()
        };
        sweep(0, WARM_SWEEPS, &mut access);
        let (walks, allocations) = sweep(WARM_SWEEPS * PAGES, MEASURED_SWEEPS, &mut access);
        assert!(walks >= 10_000, "{flavor:?}: only {walks} walks");
        assert_eq!(
            allocations, 0,
            "{flavor:?}: {allocations} heap allocations in {walks} warm walks"
        );
    }
}

#[test]
fn warm_nested_walks_allocate_nothing() {
    /// Guest VA of the first data page in the `VirtMachine` layout.
    const GUEST_BASE: u64 = 0x20_0000;
    for scheme in [
        VirtScheme::Pmp,
        VirtScheme::PmpTable,
        VirtScheme::Hpmp,
        VirtScheme::HpmpGpt,
    ] {
        let mut vm = VirtMachine::new(MachineConfig::rocket(), scheme, PAGES);
        let mut access = |offset, kind| {
            let out = vm
                .access(VirtAddr::new(GUEST_BASE + offset), kind)
                .unwrap_or_else(|fault| panic!("{scheme}: {fault:?}"));
            !out.tlb_hit
        };
        sweep(0, WARM_SWEEPS, &mut access);
        let (walks, allocations) = sweep(WARM_SWEEPS * PAGES, MEASURED_SWEEPS, &mut access);
        assert!(walks >= 10_000, "{scheme}: only {walks} walks");
        assert_eq!(
            allocations, 0,
            "{scheme}: {allocations} heap allocations in {walks} warm walks"
        );
    }
}

/// Most heap allocations one fork of a booted 2-hart system may make.
const FORK_ALLOCATION_BUDGET: u64 = 32;

#[test]
fn forking_a_booted_system_stays_within_budget() {
    for flavor in [
        TeeFlavor::PenglaiPmp,
        TeeFlavor::PenglaiPmpt,
        TeeFlavor::PenglaiHpmp,
    ] {
        let smp = boot_system(&BmcConfig {
            flavor,
            ..BmcConfig::default()
        });
        let before = ALLOCATIONS.with(Cell::get);
        let fork = smp.clone();
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(fork.state_fingerprint(), smp.state_fingerprint());
        assert!(
            allocations <= FORK_ALLOCATION_BUDGET,
            "{flavor}: a fork made {allocations} heap allocations \
             (budget {FORK_ALLOCATION_BUDGET})"
        );
    }
}
