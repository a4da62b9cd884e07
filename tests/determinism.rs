//! Determinism: the simulator has no hidden global state — identical
//! configurations and seeds produce identical cycle counts, which is what
//! makes the reproduction's figures exactly re-derivable (and `repro`'s
//! parallel fan-out sound).

use hpmp_suite::machine::{IsolationScheme, VirtScheme};
use hpmp_suite::memsim::{AccessKind, CoreKind};
use hpmp_suite::penglai::TeeFlavor;
use hpmp_suite::workloads::latency::{measure, measure_virt, TestCase, VirtCase};
use hpmp_suite::workloads::smp::{run_smp, spec_for};
use hpmp_suite::workloads::{gap, lmbench, multi_tenant, redis, serverless};

#[test]
fn microbenchmarks_are_deterministic() {
    for case in [TestCase::Tc1, TestCase::Tc2, TestCase::Tc3, TestCase::Tc4] {
        let a = measure(
            CoreKind::Rocket,
            IsolationScheme::Hpmp,
            AccessKind::Read,
            case,
        );
        let b = measure(
            CoreKind::Rocket,
            IsolationScheme::Hpmp,
            AccessKind::Read,
            case,
        );
        assert_eq!(a, b, "{case}");
    }
    let a = measure_virt(CoreKind::Boom, VirtScheme::PmpTable, VirtCase::Tc1);
    let b = measure_virt(CoreKind::Boom, VirtScheme::PmpTable, VirtCase::Tc1);
    assert_eq!(a, b);
}

#[test]
fn workloads_are_deterministic() {
    let graph = gap::KronGraph::generate(10, 4, 77);
    let a = gap::run_gap(
        TeeFlavor::PenglaiPmpt,
        CoreKind::Rocket,
        gap::GapKernel::Pr,
        &graph,
        1_000,
    )
    .unwrap();
    let b = gap::run_gap(
        TeeFlavor::PenglaiPmpt,
        CoreKind::Rocket,
        gap::GapKernel::Pr,
        &graph,
        1_000,
    )
    .unwrap();
    assert_eq!(a, b, "GAP");

    let a = serverless::measure_function(
        TeeFlavor::PenglaiHpmp,
        CoreKind::Rocket,
        serverless::Function::Matmul,
        2,
    )
    .unwrap();
    let b = serverless::measure_function(
        TeeFlavor::PenglaiHpmp,
        CoreKind::Rocket,
        serverless::Function::Matmul,
        2,
    )
    .unwrap();
    assert_eq!(a, b, "serverless");

    let a = lmbench::measure_syscall(
        TeeFlavor::PenglaiPmp,
        CoreKind::Boom,
        lmbench::Syscall::Stat,
        5,
    )
    .unwrap();
    let b = lmbench::measure_syscall(
        TeeFlavor::PenglaiPmp,
        CoreKind::Boom,
        lmbench::Syscall::Stat,
        5,
    )
    .unwrap();
    assert_eq!(a, b, "lmbench");

    let mut s1 = redis::RedisServer::start(TeeFlavor::PenglaiPmpt, CoreKind::Rocket, 512).unwrap();
    let mut s2 = redis::RedisServer::start(TeeFlavor::PenglaiPmpt, CoreKind::Rocket, 512).unwrap();
    for _ in 0..50 {
        assert_eq!(
            s1.serve(redis::RedisCommand::Get).unwrap(),
            s2.serve(redis::RedisCommand::Get).unwrap(),
            "redis"
        );
    }

    let a = multi_tenant::run_tenancy(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 8, 2).unwrap();
    let b = multi_tenant::run_tenancy(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 8, 2).unwrap();
    assert_eq!(a, b, "tenancy");
}

/// The SMP runner is single-threaded behind a seeded interleaver, so its
/// outcome, metrics snapshot and per-hart counters must be byte-stable for
/// a fixed (seed, harts) pair — for the churn-heavy, switch-only and
/// monitor-quiet shapes, at every hart count, across all flavours.
/// This is the invariant that makes `hpmpsim --harts N` artifacts
/// identical whatever `--jobs` is.
#[test]
fn smp_runs_are_deterministic_at_every_hart_count() {
    // tenancy churns and switches, lmbench only switches, gap issues no
    // monitor op after setup.
    for workload in ["tenancy", "lmbench", "gap"] {
        let spec = spec_for(workload).expect("workload has an SMP shape");
        for flavor in [
            TeeFlavor::PenglaiPmp,
            TeeFlavor::PenglaiPmpt,
            TeeFlavor::PenglaiHpmp,
        ] {
            // Eight tenants exceed the PMP baseline's register file.
            let hart_counts: &[usize] = if flavor == TeeFlavor::PenglaiPmp {
                &[1, 2, 4]
            } else {
                &[1, 2, 4, 8]
            };
            for &harts in hart_counts {
                let (a, snap_a) = run_smp(flavor, CoreKind::Rocket, harts, 0xd5, spec).unwrap();
                let (b, snap_b) = run_smp(flavor, CoreKind::Rocket, harts, 0xd5, spec).unwrap();
                assert_eq!(a, b, "{workload}: {flavor} outcome at {harts} harts");
                assert_eq!(
                    snap_a.to_json(),
                    snap_b.to_json(),
                    "{workload}: {flavor} snapshot at {harts} harts"
                );
            }
        }
    }
    let spec = spec_for("tenancy").expect("tenancy has an SMP shape");
    // Different seeds and hart counts must actually change the run.
    let (one, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 0xd5, spec).unwrap();
    let (other_seed, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 2, 0xd6, spec).unwrap();
    assert_ne!(one.total_cycles, other_seed.total_cycles);
    let (more_harts, _) = run_smp(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 4, 0xd5, spec).unwrap();
    assert_ne!(one.total_cycles, more_harts.total_cycles);
}

#[test]
fn graph_generation_is_seed_stable() {
    let a = gap::KronGraph::generate(11, 6, 0xfeed);
    let b = gap::KronGraph::generate(11, 6, 0xfeed);
    assert_eq!(a.edges, b.edges);
    assert_eq!(a.offsets, b.offsets);
    let c = gap::KronGraph::generate(11, 6, 0xfeee);
    assert_ne!(a.edges, c.edges);
}
