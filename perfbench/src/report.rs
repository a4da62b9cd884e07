//! The metric catalog and the report every run prints.
//!
//! The catalog is the single list of metric names and units: the output
//! must carry every end-to-end metric on an untraced run and every
//! per-layer metric on a traced one, and the crate's tests hold
//! `BENCHMARK.json` to the same list.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Samples;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cycles_per_op", "cycles"),
    ("sim_hpmp_overhead_pct", "%"),
];

/// Host-clock call sites of the traced run: `(site, unit, what it should
/// move)`. Each expands to `<site>.<unit>_p50`, `<site>.<unit>_tail` and
/// `<site>.n`.
pub const TIMED: &[(&str, &str, &str)] = &[
    ("machine.access.hit", "ns", "ops_per_s on smp_churn"),
    ("machine.access.walk", "ns", "ops_per_s on walk_native"),
    ("machine.virt_access.walk", "ns", "ops_per_s on walk_virt"),
    (
        "paging.tlb.lookup",
        "ns",
        "ops_per_s on smp_churn; barely walk_native",
    ),
    ("paging.pwc.lookup", "ns", "ops_per_s on walk_native"),
    ("paging.walker.walk", "ns", "ops_per_s on walk_native"),
    ("paging.nested.walk", "ns", "ops_per_s on walk_virt"),
    (
        "core.checker.check",
        "ns",
        "ops_per_s on walk_native and walk_virt",
    ),
    (
        "core.pmptw_cache.lookup",
        "ns",
        "ops_per_s on walk_native and walk_virt",
    ),
    (
        "core.table.walk",
        "ns",
        "ops_per_s on walk_native and walk_virt",
    ),
    (
        "memsim.hierarchy.access",
        "ns",
        "ops_per_s on walk_native and walk_virt",
    ),
    (
        "memsim.physmem.read",
        "ns",
        "ops_per_s on walk_native and walk_virt",
    ),
    ("penglai.monitor.switch", "us", "ops_per_s on smp_churn"),
    ("penglai.monitor.alloc", "us", "ops_per_s on smp_churn"),
    ("penglai.monitor.free", "us", "ops_per_s on smp_churn"),
    ("penglai.monitor.create", "us", "ops_per_s on smp_churn"),
    ("penglai.monitor.destroy", "us", "ops_per_s on smp_churn"),
    (
        "modelcheck.clone",
        "us",
        "ops_per_s and peak_rss_mib on bmc",
    ),
    ("modelcheck.apply", "us", "ops_per_s on bmc"),
    ("modelcheck.fingerprint", "us", "ops_per_s on bmc"),
    ("modelcheck.oracle", "us", "ops_per_s on bmc"),
    (
        "trace.snapshot",
        "us",
        "no end-to-end metric: untraced runs take no snapshot",
    ),
];

/// Counts, ratios and single figures of the traced run: `(name, unit,
/// better, what it should move)`.
pub const COUNTED: &[(&str, &str, &str, &str)] = &[
    (
        "machine.accesses",
        "count",
        "higher",
        "ops_per_s on the access workloads",
    ),
    (
        "paging.tlb.lookups",
        "count",
        "lower",
        "ops_per_s on smp_churn",
    ),
    (
        "paging.tlb.hit_ratio",
        "ratio",
        "higher",
        "ops_per_s on smp_churn",
    ),
    (
        "paging.pwc.lookups",
        "count",
        "lower",
        "ops_per_s on walk_native",
    ),
    (
        "paging.pwc.hit_ratio",
        "ratio",
        "higher",
        "ops_per_s on walk_native",
    ),
    (
        "paging.walker.walks",
        "count",
        "lower",
        "ops_per_s and sim_cycles_per_op on walk_native",
    ),
    (
        "paging.nested.walks",
        "count",
        "lower",
        "ops_per_s and sim_cycles_per_op on walk_virt",
    ),
    (
        "core.checker.checks",
        "count",
        "lower",
        "ops_per_s on walk_native and walk_virt",
    ),
    (
        "core.pmptw_cache.lookups",
        "count",
        "lower",
        "ops_per_s on walk_native and walk_virt",
    ),
    (
        "core.pmptw_cache.hit_ratio",
        "ratio",
        "higher",
        "sim_cycles_per_op on walk_native and walk_virt",
    ),
    (
        "core.table.walks",
        "count",
        "lower",
        "sim_cycles_per_op on walk_native and walk_virt",
    ),
    (
        "memsim.hierarchy.accesses",
        "count",
        "lower",
        "ops_per_s on walk_native and walk_virt",
    ),
    (
        "memsim.hierarchy.llc_miss_ratio",
        "ratio",
        "lower",
        "sim_cycles_per_op on walk_native and walk_virt",
    ),
    (
        "memsim.physmem.reads",
        "count",
        "lower",
        "ops_per_s on walk_native and walk_virt",
    ),
    (
        "penglai.monitor.ops",
        "count",
        "lower",
        "ops_per_s on smp_churn",
    ),
    (
        "penglai.smp.ipis_delivered",
        "count",
        "lower",
        "ops_per_s on smp_churn",
    ),
    (
        "penglai.smp.ipi_merge_ratio",
        "ratio",
        "higher",
        "ops_per_s on smp_churn",
    ),
    (
        "penglai.monitor.table_writes",
        "count",
        "lower",
        "ops_per_s on smp_churn",
    ),
    (
        "penglai.compact.passes",
        "count",
        "lower",
        "ops_per_s on smp_churn",
    ),
    (
        "penglai.compact.moved_pages",
        "count",
        "lower",
        "ops_per_s on smp_churn",
    ),
    (
        "penglai.degrade.max_stage",
        "count",
        "lower",
        "ops_per_s on smp_churn",
    ),
    (
        "penglai.monitor.busy_share",
        "ratio",
        "lower",
        "ops_per_s and sim_cycles_per_op on smp_churn",
    ),
    (
        "modelcheck.transitions",
        "count",
        "higher",
        "ops_per_s on bmc",
    ),
    (
        "modelcheck.states_explored",
        "count",
        "higher",
        "peak_rss_mib on bmc",
    ),
    (
        "modelcheck.states_pruned",
        "count",
        "higher",
        "ops_per_s on bmc",
    ),
    (
        "modelcheck.prune_ratio",
        "ratio",
        "higher",
        "ops_per_s on bmc",
    ),
    ("setup.boot_s", "s", "lower", "setup_s on every workload"),
    ("setup.map_s", "s", "lower", "setup_s on every workload"),
    (
        "trace.overhead_pct",
        "%",
        "lower",
        "no end-to-end metric: cost of the per-call timers",
    ),
    (
        "model.predicted_s",
        "s",
        "lower",
        "none: count x calibrated cost, summed over layers",
    ),
    (
        "model.measured_s",
        "s",
        "lower",
        "ops_per_s: host time inside the timed calls",
    ),
    (
        "model.residual_pct",
        "%",
        "lower",
        "none: a large residual names a missing layer",
    ),
];

/// Expands one timing site into its three metric names.
fn timing_names(site: &str, unit: &str) -> [String; 3] {
    [
        format!("{site}.{unit}_p50"),
        format!("{site}.{unit}_tail"),
        format!("{site}.n"),
    ]
}

/// Every per-layer metric as `(name, unit, better)`, in catalog order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for &(site, unit, _) in TIMED {
        let [p50, tail, n] = timing_names(site, unit);
        out.push((p50, unit, "lower"));
        out.push((tail, unit, "lower"));
        out.push((n, "count", "higher"));
    }
    for &(name, unit, better, _) in COUNTED {
        out.push((name.to_string(), unit, better));
    }
    out
}

/// Unit of a catalogued metric.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer().into_iter().map(|(n, u, _)| (n, u)))
        .find(|(n, _)| n == name)
        .map(|(_, u)| u)
}

/// Metrics, notes and the pass/fail tally of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the metrics.
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records catalogued metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalog does not list: a typo here would
    /// otherwise surface only as a missing metric.
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "metric `{name}` is not catalogued");
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.to_string(), value);
    }

    /// Records timing site `site` (median, tail and sample count).
    ///
    /// # Panics
    ///
    /// Panics on a site the catalog does not list.
    pub fn timing(&mut self, site: &str, samples: &Samples) {
        let &(_, unit, _) = TIMED
            .iter()
            .find(|(s, _, _)| *s == site)
            .unwrap_or_else(|| panic!("timing site `{site}` is not catalogued"));
        let [p50, tail, n] = timing_names(site, unit);
        let (pct, tail_value) = samples.tail();
        self.put(&p50, samples.median());
        self.put(&tail, tail_value);
        self.put(&n, samples.count() as f64);
        self.note(format!(
            "{site}: tail is p{pct} of {} samples",
            samples.count()
        ));
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Adds a human-readable line to the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one correctness check; a failing one is also noted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok));
        if !ok {
            self.note(format!("FAILED: {}", what()));
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed over attempted operations.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Renders the output: notes, one `name = value unit` line per metric,
    /// the fail ratio, and as the last line the JSON object holding the
    /// metrics named in `wanted`.
    ///
    /// # Errors
    ///
    /// Names a metric of `wanted` that the run did not record.
    pub fn render(&self, wanted: &[(String, &'static str)]) -> Result<String, String> {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        for (name, value) in &self.metrics {
            let unit = unit_of(name).unwrap_or("");
            let _ = writeln!(out, "{name} = {value} {unit}");
        }
        let _ = writeln!(
            out,
            "fail_ratio = {} ({} of {} operations failed)",
            self.fail_ratio(),
            self.failed,
            self.attempted
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        out.push_str(&json);
        Ok(out)
    }
}

/// The metrics a run must print: end-to-end ones untraced, per-layer ones
/// traced.
pub fn wanted(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}
