//! Tests of the benchmark's own code: failure counting, the metric
//! catalog against `BENCHMARK.json`, and every metric in every workload's
//! output. The workload runs are slow unoptimised; run with
//! `cargo test --release`.

use hpmp_modelcheck::{run_bmc, BmcConfig, Plant};
use hpmp_penglai::TeeFlavor;
use hpmp_perfbench::report::{self, Report};
use hpmp_perfbench::workloads::bmc;
use hpmp_perfbench::{check_digests, run, BmcCounts, Ctx, WORKLOADS};

/// Reads `BENCHMARK.json` from the repository root.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"name": …, "unit": …[, "better": …]` objects of JSON array `key`,
/// as `(name, unit, better)`. A deliberately small reader: the file is
/// written by hand, one object per line.
fn entries(json: &str, key: &str) -> Vec<(String, String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start
        ..json[start..]
            .find(']')
            .map(|e| start + e)
            .expect("array end")];
    let field = |line: &str, f: &str| {
        let tag = format!("\"{f}\": \"");
        line.find(&tag).map(|i| {
            let rest = &line[i + tag.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
    };
    let mut out = Vec::new();
    let mut current: Vec<String> = Vec::new();
    for line in body.lines() {
        current.push(line.to_string());
        if line.trim_start().starts_with('}') {
            let joined = current.join(" ");
            if let Some(name) = field(&joined, "name") {
                out.push((
                    name,
                    field(&joined, "unit").unwrap_or_default(),
                    field(&joined, "better").unwrap_or_default(),
                ));
            }
            current.clear();
        }
    }
    out
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let json = benchmark_json();
    let per_layer: Vec<(String, String, String)> = report::per_layer()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    assert_eq!(entries(&json, "per_layer"), per_layer);
    let e2e: Vec<(String, String)> = entries(&json, "end_to_end")
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    let catalog: Vec<(String, String)> = report::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, catalog);
    let workloads: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|(n, _, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn the_driver_script_searches_at_the_benchmark_depth() {
    let script =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/run.py")).expect("run.py");
    assert!(
        script.contains(&format!("BMC_DEPTH = {}\n", bmc::DEPTH)),
        "run.py must run hpmp-verify at depth {}",
        bmc::DEPTH
    );
}

#[test]
fn a_planted_counterexample_counts_as_a_failure() {
    let report = run_bmc(BmcConfig {
        flavor: TeeFlavor::PenglaiPmp,
        depth: 2,
        plant: Plant::SuppressShootdowns,
        ..BmcConfig::default()
    });
    let mut rep = Report::default();
    bmc::check_report(&report, None, &mut rep);
    assert_eq!(rep.failed(), 1);
    assert!(rep.fail_ratio() > 0.0);
}

#[test]
fn search_counts_that_differ_from_hpmp_verify_count_as_a_failure() {
    let report = run_bmc(BmcConfig {
        depth: 1,
        ..BmcConfig::default()
    });
    let printed = BmcCounts {
        explored: report.states_explored,
        pruned: report.states_pruned,
        transitions: report.transitions,
    };
    let mut rep = Report::default();
    bmc::check_report(&report, Some(&printed), &mut rep);
    assert_eq!((rep.attempted(), rep.failed()), (2, 0));
    let off_by_one = BmcCounts {
        transitions: printed.transitions + 1,
        ..printed
    };
    bmc::check_report(&report, Some(&off_by_one), &mut rep);
    assert_eq!((rep.attempted(), rep.failed()), (4, 1));
}

#[test]
fn a_tampered_counter_digest_counts_as_a_failure() {
    let mut rep = Report::default();
    check_digests(&[7, 7, 7], &mut rep);
    assert_eq!(rep.failed(), 0);
    check_digests(&[7, 7 ^ 1, 7], &mut rep);
    assert_eq!(rep.failed(), 1);
    assert_eq!(rep.attempted(), 6);
}

#[test]
fn a_missing_metric_is_an_error_not_a_silent_gap() {
    let mut rep = Report::default();
    rep.put("ops_per_s", 1.0);
    let err = rep.render(&report::wanted(false)).unwrap_err();
    assert!(err.contains("setup_s"), "{err}");
}

/// The last output line's metrics as `(name, unit)`, in output order.
fn json_metrics(text: &str) -> Vec<(String, String)> {
    let last = text.lines().last().expect("output");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, ")
        .map(|m| {
            let name = m.split('"').nth(1).expect("name").to_string();
            let unit = m.split("\"unit\": \"").nth(1).expect("unit");
            (name, unit[..unit.find('"').expect("unit end")].to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for &workload in WORKLOADS {
        for traced in [false, true] {
            let ctx = Ctx {
                seed: 3,
                seconds: 0.2,
                traced,
                expect_bmc: Default::default(),
            };
            let rep = run(workload, &ctx).expect("known workload");
            assert_eq!(rep.failed(), 0, "{workload}: a correctness check failed");
            let wanted = report::wanted(traced);
            let text = rep.render(&wanted).expect("every metric measured");
            for (name, unit) in &wanted {
                assert!(
                    text.lines().any(|l| l.starts_with(&format!("{name} = "))
                        && l.ends_with(&format!(" {unit}"))),
                    "{workload}: no `{name} = … {unit}` line"
                );
            }
            let printed = json_metrics(&text);
            let expected: Vec<(String, String)> = wanted
                .iter()
                .map(|(n, u)| (n.clone(), u.to_string()))
                .collect();
            assert_eq!(printed, expected, "{workload} traced={traced}");
        }
    }
}
