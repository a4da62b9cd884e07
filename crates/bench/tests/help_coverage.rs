//! Usage-text drift guard: every flag a binary's parser accepts must
//! appear in its `--help` output, and unknown flags/experiments must be
//! rejected loudly (exit 2) instead of being silently swallowed — the
//! failure mode that let the usage text rot behind the parsers in the
//! first place.

use std::process::Command;

/// Run a binary with `args`, returning (exit code, stderr).
fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let output = Command::new(bin).args(args).output().expect("spawn binary");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Every flag `hpmpsim`'s parser matches on. Adding a parser arm without
/// updating `usage()` (or this list) fails the test.
const HPMPSIM_FLAGS: [&str; 22] = [
    "--flavor",
    "--core",
    "--workload",
    "--scenario",
    "--churn-ops",
    "--harts",
    "--jobs",
    "--pwc",
    "--pmptw-cache",
    "--no-tlb-inlining",
    "--encryption",
    "--epmp",
    "--trace-out",
    "--metrics-out",
    "--bench-out",
    "--snapshot-interval",
    "--timeline-out",
    "--spans-out",
    "--fault-campaign",
    "--fault-seed",
    "--campaign-out",
    "--host-profile-out",
];

/// Every flag `repro`'s parser matches on.
const REPRO_FLAGS: [&str; 9] = [
    "--serial",
    "--jobs",
    "--trace-out",
    "--metrics-out",
    "--bench-out",
    "--snapshot-interval",
    "--timeline-out",
    "--spans-out",
    "--host-profile-out",
];

/// Every experiment `repro` dispatches on (sans the `all` alias).
const REPRO_EXPERIMENTS: [&str; 19] = [
    "table1",
    "fig2",
    "fig10",
    "table3",
    "fig11",
    "fig12ac",
    "fig12de",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "table4",
    "fig3",
    "svsweep",
    "virtapp",
    "tenancy",
    "encryption",
    "multihart",
];

#[test]
fn hpmpsim_help_lists_every_flag() {
    let (code, help) = run(env!("CARGO_BIN_EXE_hpmpsim"), &["--help"]);
    assert_eq!(code, 2, "--help exits with the usage status");
    for flag in HPMPSIM_FLAGS {
        assert!(help.contains(flag), "{flag} missing from hpmpsim --help");
    }
}

#[test]
fn repro_help_lists_every_flag_and_experiment() {
    let (code, help) = run(env!("CARGO_BIN_EXE_repro"), &["--help"]);
    assert_eq!(code, 2, "--help exits with the usage status");
    for flag in REPRO_FLAGS {
        assert!(help.contains(flag), "{flag} missing from repro --help");
    }
    for experiment in REPRO_EXPERIMENTS {
        assert!(
            help.contains(experiment),
            "{experiment} missing from repro --help"
        );
    }
    assert!(help.contains("all"), "the all alias must be documented");
}

#[test]
fn backend_flag_is_unknown_to_both_binaries() {
    // The SMP model has one execution path; there is nothing to select.
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_hpmpsim"),
            &["--harts", "2", "--backend", "threaded"][..],
        ),
        (env!("CARGO_BIN_EXE_repro"), &["--backend", "deterministic"]),
    ] {
        let (code, err) = run(bin, args);
        assert_eq!(code, 2, "{bin} {args:?}: {err}");
        assert!(
            err.contains("unknown") && err.contains("--backend"),
            "{err}"
        );
    }
}

#[test]
fn hpmpsim_rejects_bad_scenario_combinations() {
    let (code, err) = run(env!("CARGO_BIN_EXE_hpmpsim"), &["--scenario", "bogus"]);
    assert_eq!(code, 2);
    assert!(err.contains("bogus"), "{err}");
    // --churn-ops only means something inside the aging scenario.
    let (code, err) = run(env!("CARGO_BIN_EXE_hpmpsim"), &["--churn-ops", "10"]);
    assert_eq!(code, 2);
    assert!(err.contains("--scenario"), "{err}");
    // Timeline artifacts live on the workload path, not the scenario path.
    let (code, err) = run(
        env!("CARGO_BIN_EXE_hpmpsim"),
        &[
            "--scenario",
            "aging",
            "--harts",
            "2",
            "--snapshot-interval",
            "1000",
        ],
    );
    assert_eq!(code, 2);
    assert!(err.contains("aging"), "{err}");
    // The host profile times workload runs; the scenario would write none.
    let (code, err) = run(
        env!("CARGO_BIN_EXE_hpmpsim"),
        &["--scenario", "aging", "--host-profile-out", "host.json"],
    );
    assert_eq!(code, 2);
    assert!(err.contains("--host-profile-out"), "{err}");
}

#[test]
fn hpmpsim_rejects_flags_the_fault_campaign_would_ignore() {
    const CAMPAIGN: [&str; 2] = ["--fault-campaign", "faults=10,shards=1"];
    // Workload-path artifacts and the scenario switch: a campaign writes
    // none of them. Machine-shape flags: the campaign's spec fixes the
    // machine, so they would change nothing.
    for extra in [
        &["--trace-out", "w.jsonl"][..],
        &["--bench-out", "BENCH_x.json"],
        &["--timeline-out", "t.jsonl"],
        &["--spans-out", "s.jsonl"],
        &["--snapshot-interval", "1000"],
        &["--host-profile-out", "host.json"],
        &["--scenario", "aging"],
        &["--core", "boom"],
        &["--harts", "2"],
        &["--pwc", "16"],
        &["--pmptw-cache", "8"],
        &["--no-tlb-inlining"],
        &["--encryption", "40"],
        &["--epmp"],
        &["--workload", "redis"],
    ] {
        let args = [&CAMPAIGN[..], extra].concat();
        let (code, err) = run(env!("CARGO_BIN_EXE_hpmpsim"), &args);
        assert_eq!(code, 2, "{args:?}: {err}");
        assert!(err.contains(extra[0]), "{args:?}: {err}");
        assert!(err.contains("--fault-campaign"), "{args:?}: {err}");
    }
    // Campaign-only flags without a campaign.
    for extra in [&["--fault-seed", "7"][..], &["--campaign-out", "c.jsonl"]] {
        let (code, err) = run(env!("CARGO_BIN_EXE_hpmpsim"), extra);
        assert_eq!(code, 2, "{extra:?}: {err}");
        assert!(err.contains(extra[0]), "{extra:?}: {err}");
        assert!(err.contains("needs --fault-campaign"), "{extra:?}: {err}");
    }
}

#[test]
fn hpmpsim_rejects_unknown_flags() {
    let (code, err) = run(env!("CARGO_BIN_EXE_hpmpsim"), &["--no-such-flag"]);
    assert_eq!(code, 2);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn repro_rejects_unknown_flags() {
    let (code, err) = run(env!("CARGO_BIN_EXE_repro"), &["--no-such-flag"]);
    assert_eq!(code, 2);
    assert!(err.contains("--no-such-flag"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn repro_rejects_unknown_experiments() {
    // Before the usage fix a typo here silently ran *nothing* — it has to
    // be a hard error.
    let (code, err) = run(env!("CARGO_BIN_EXE_repro"), &["fig99"]);
    assert_eq!(code, 2);
    assert!(err.contains("fig99"), "{err}");
}
