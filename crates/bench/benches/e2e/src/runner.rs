//! One benchmark run: repeat a workload at one seed until the run's time
//! is used, reduce the iterations to the metrics `BENCHMARK.json` names,
//! and render the result.

use crate::checks::Check;
use crate::host::Host;
use crate::json::Obj;
use crate::stats::{median, summarize};
use crate::trace::{self_seconds_by_layer, Span, Tracer};
use crate::workloads::{self, Extras, Outcome, Workload};
use crate::world::{self, Bench};
use std::collections::BTreeMap;
use std::io;

/// A metric's name and unit.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics, measured on untraced runs. Every workload reports
/// all of them; these are the ones `BENCHMARK.json` gates.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("zones_per_sec", "zones/s"),
    ("peak_rss_mb", "MiB"),
    ("queries_per_zone", "count"),
    ("virtual_makespan_h", "h"),
];

/// End-to-end metrics that exist on some workloads only. They are printed
/// with the rest but are not in the result line, which must carry the
/// same names on every workload.
pub const WORKLOAD_ONLY: &[(&str, &str, &[Workload])] = &[
    (
        "resume_s",
        "s",
        &[Workload::FabricJournaled, Workload::ContinuousChurn],
    ),
    (
        "datagrams_per_zone",
        "count",
        &[Workload::ScanCold, Workload::FabricJournaled],
    ),
    (
        "infra_datagrams_per_kzone",
        "count",
        &[Workload::ScanCold, Workload::FabricJournaled],
    ),
    ("zone_fail_ratio", "ratio", &Workload::ALL),
    ("skipped_epoch_ratio", "ratio", &[Workload::ContinuousChurn]),
];

/// The layers, named after the workspace crates, plus the harness itself.
pub const LAYERS: &[&str] = &[
    "dns-ecosystem",
    "bootscan",
    "dns-resolver",
    "netsim",
    "dns-server",
    "dns-wire",
    "scan-journal",
    "scan-fabric",
    "scan-continuous",
    "bench",
];

/// Per-layer metrics, measured on traced runs. A layer a workload does
/// not exercise reports 0 (and a distribution 0 samples).
pub const PER_LAYER: &[Metric] = &[
    ("dns-ecosystem.build_s", "s"),
    ("dns-ecosystem.seed_compile_s", "s"),
    ("dns-ecosystem.churn_s", "s"),
    ("dns-ecosystem.churned_zones", "count"),
    ("dns-ecosystem.self_s", "s"),
    ("bootscan.scanner_new_us", "us"),
    ("bootscan.report_s", "s"),
    ("bootscan.retries_per_kzone", "count"),
    ("bootscan.breaker_skips", "count"),
    ("bootscan.degraded_zones", "count"),
    ("bootscan.indeterminate_zones", "count"),
    ("bootscan.self_s", "s"),
    ("dns-resolver.resolve_cold_us.p50", "us"),
    ("dns-resolver.resolve_cold_us.p99", "us"),
    ("dns-resolver.resolve_cold_us.samples", "count"),
    ("dns-resolver.resolve_warm_us.p50", "us"),
    ("dns-resolver.resolve_warm_us.p99", "us"),
    ("dns-resolver.resolve_warm_us.samples", "count"),
    ("dns-resolver.queries_per_resolve.cold", "count"),
    ("dns-resolver.queries_per_resolve.warm", "count"),
    ("dns-resolver.validate_us.p50", "us"),
    ("dns-resolver.validate_us.p99", "us"),
    ("dns-resolver.validate_us.samples", "count"),
    ("dns-resolver.tcp_fallbacks", "count"),
    ("dns-resolver.self_s", "s"),
    ("netsim.datagrams", "count"),
    ("netsim.bytes_sent_per_zone", "bytes"),
    ("netsim.bytes_received_per_zone", "bytes"),
    ("netsim.exchange_us.p50", "us"),
    ("netsim.exchange_us.p99", "us"),
    ("netsim.exchange_us.samples", "count"),
    ("netsim.self_s", "s"),
    ("dns-server.answer_us.p50", "us"),
    ("dns-server.answer_us.p99", "us"),
    ("dns-server.answer_us.samples", "count"),
    ("dns-server.self_s", "s"),
    ("dns-wire.encode_us.p50", "us"),
    ("dns-wire.encode_us.p99", "us"),
    ("dns-wire.encode_us.samples", "count"),
    ("dns-wire.decode_us.p50", "us"),
    ("dns-wire.decode_us.p99", "us"),
    ("dns-wire.decode_us.samples", "count"),
    ("dns-wire.reply_bytes.mean", "bytes"),
    ("dns-wire.self_s", "s"),
    ("scan-journal.state_bytes_per_zone", "bytes"),
    ("scan-journal.files", "count"),
    ("scan-journal.encode_ns_per_event", "ns"),
    ("scan-journal.decode_ns_per_event", "ns"),
    ("scan-journal.recover_s", "s"),
    ("scan-journal.checkpoint_s", "s"),
    ("scan-journal.self_s", "s"),
    ("scan-fabric.shard_attempts", "count"),
    ("scan-fabric.reassignments", "count"),
    ("scan-fabric.lease_expiries", "count"),
    ("scan-fabric.peak_resident_zones", "count"),
    ("scan-fabric.largest_shard", "count"),
    ("scan-fabric.merge_sink_us", "us"),
    ("scan-fabric.self_s", "s"),
    ("scan-continuous.epochs_committed", "count"),
    ("scan-continuous.epochs_pipelined", "count"),
    ("scan-continuous.epochs_coalesced", "count"),
    ("scan-continuous.delta_share", "ratio"),
    ("scan-continuous.incremental_query_ratio", "ratio"),
    ("scan-continuous.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer metrics of the ungated `scan_cold` only: the intervals
/// between zones, which only its p1 scan exposes from outside. Printed
/// with the rest, not in the result line.
pub const SCAN_COLD_LAYER: &[Metric] = &[
    ("bootscan.zone_wall_us.p50", "us"),
    ("bootscan.zone_wall_us.p99", "us"),
    ("bootscan.zone_wall_us.samples", "count"),
];

/// Timing distributions: (span name, metric prefix). Reported as p50,
/// p99 (the rule's tail percentile, see `stats::summarize`) and samples.
const DISTRIBUTIONS: &[(&str, &str)] = &[
    ("zone", "bootscan.zone_wall_us"),
    ("resolve_cold", "dns-resolver.resolve_cold_us"),
    ("resolve_warm", "dns-resolver.resolve_warm_us"),
    ("validate", "dns-resolver.validate_us"),
    ("exchange", "netsim.exchange_us"),
    ("answer", "dns-server.answer_us"),
    ("encode", "dns-wire.encode_us"),
    ("decode", "dns-wire.decode_us"),
];

/// Single timings: (span name, metric, unit scale from seconds, reduce by
/// sum instead of median).
const TIMINGS: &[(&str, &str, f64, bool)] = &[
    ("build", "dns-ecosystem.build_s", 1.0, false),
    ("seed_compile", "dns-ecosystem.seed_compile_s", 1.0, false),
    ("churn_epoch", "dns-ecosystem.churn_s", 1.0, false),
    ("scanner_new", "bootscan.scanner_new_us", 1e6, false),
    ("report", "bootscan.report_s", 1.0, false),
    ("recover", "scan-journal.recover_s", 1.0, true),
    ("checkpoint", "scan-journal.checkpoint_s", 1.0, true),
    ("merge", "scan-fabric.merge_sink_us", 1e6, false),
];

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub iterations: usize,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Every applicable end-to-end metric (gated and workload-only), or
    /// every per-layer metric when traced.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub spans: Vec<Span>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.checks.iter().any(Check::failed)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }

    /// The result line: exactly the metrics `BENCHMARK.json` lists for
    /// this mode.
    pub fn json(&self) -> String {
        let table = if self.traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Obj::default();
        for &(name, unit) in table {
            let v = self.value(name).unwrap_or(0.0);
            metrics = metrics.raw(
                name,
                Obj::default().num("value", v).str("unit", unit).render(),
            );
        }
        Obj::default()
            .bool("correct", self.correct())
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .raw("metrics", metrics.render())
            .render()
    }
}

/// Refuse a configuration that would oversubscribe the host: numbers
/// measured with more threads than cores measure contention, not scaling.
pub fn refuse_oversubscription(bench: &Bench) -> io::Result<()> {
    let nproc = world::nproc();
    let parallelism = world::policy().parallelism;
    if bench.workers > nproc || parallelism > nproc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "oversubscribed: {} workers / parallelism {parallelism} on {nproc} cores",
                bench.workers
            ),
        ));
    }
    Ok(())
}

/// Run `w` at `seed` for about `seconds` of timed work: as many whole
/// iterations as fit, at least one. The checks and replays of an
/// iteration do not count against the time. Traced runs alternate
/// untraced and traced iterations and make at least one of each.
pub fn run(bench: &Bench, w: Workload, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut busy = 0.0;
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let (mut plain, mut traced): (Vec<Outcome>, Vec<Outcome>) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut checks: Vec<Check> = Vec::new();
    let mut first_det: Option<String> = None;
    for iter in 0u32.. {
        let is_traced = trace && iter % 2 == 1;
        let extras = Extras {
            checks: iter == 0,
            replays: is_traced && traced.is_empty(),
        };
        let t = if is_traced { &on } else { &off };
        attempted += 1;
        let last = match workloads::run(w, bench, seed, iter, t, extras) {
            Ok(o) => {
                let last = o.busy_s;
                let det = o.deterministic();
                let repeat = first_det.get_or_insert_with(|| det.clone()) == &det;
                if !repeat {
                    checks.push(Check::new(
                        "deterministic_repeat",
                        false,
                        format!("iteration {iter}: {det}, first: {first_det:?}"),
                    ));
                }
                if !repeat || o.checks.iter().any(Check::failed) {
                    failed += 1;
                }
                checks.extend(o.checks.iter().cloned());
                if is_traced {
                    traced.push(o);
                } else {
                    plain.push(o);
                }
                last
            }
            Err(e) => {
                failed += 1;
                checks.push(Check::new(
                    "iteration",
                    false,
                    format!("iteration {iter}: {e}"),
                ));
                break;
            }
        };
        // Stop before an iteration that would likely end past the run's
        // time (the last one's timed work is the estimate). A traced run
        // also needs one traced iteration.
        busy += last;
        let done = busy + last > seconds;
        if done && (!trace || !traced.is_empty()) {
            break;
        }
    }
    let spans = on.spans();
    let metrics = if trace {
        per_layer(w, &plain, &traced, &spans)
    } else {
        end_to_end(w, &plain)
    };
    RunResult {
        workload: w,
        seed,
        traced: trace,
        iterations: plain.len() + traced.len(),
        attempted,
        failed,
        checks,
        metrics,
        spans,
    }
}

fn med(outcomes: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    median(&outcomes.iter().map(f).collect::<Vec<_>>())
}

/// End-to-end metrics: medians over iterations for timings; the
/// deterministic costs repeat exactly, so the first iteration's stand.
fn end_to_end(w: Workload, runs: &[Outcome]) -> Vec<(&'static str, &'static str, f64)> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    let per_zone = |x: u64| x as f64 / first.fresh_zones.max(1) as f64;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("setup_s", med(runs, |o| o.setup_s));
    values.insert("wall_s", med(runs, |o| o.wall_s));
    values.insert(
        "zones_per_sec",
        med(runs, |o| o.fresh_zones as f64 / (o.wall_s - o.setup_s)),
    );
    // Later iterations start after the first one's checks, whose
    // canonical strings would count in the process's peak.
    values.insert("peak_rss_mb", first.peak_rss_mib);
    values.insert("queries_per_zone", per_zone(first.queries));
    values.insert("virtual_makespan_h", first.makespan_us as f64 / 3.6e9);
    values.insert("zone_fail_ratio", per_zone(first.failed_zones));
    if first.resume_s.is_some() {
        values.insert("resume_s", med(runs, |o| o.resume_s.unwrap_or(0.0)));
    }
    if let (Some(d), Some(i)) = (first.datagrams, first.infra_datagrams) {
        values.insert("datagrams_per_zone", per_zone(d));
        values.insert("infra_datagrams_per_kzone", per_zone(i) * 1000.0);
    }
    if let Some((coalesced, scheduled)) = first.epochs {
        values.insert(
            "skipped_epoch_ratio",
            f64::from(coalesced) / f64::from(scheduled.max(1)),
        );
    }
    let mut out: Vec<(&'static str, &'static str, f64)> =
        END_TO_END.iter().map(|&(n, u)| (n, u, values[n])).collect();
    for &(n, u, on) in WORKLOAD_ONLY {
        if on.contains(&w) {
            out.push((n, u, values.get(n).copied().unwrap_or(0.0)));
        }
    }
    out
}

/// Per-layer metrics: counters (median over traced iterations), timings
/// reduced from spans by name, self time per layer (median over traced
/// iterations, replays included in the iteration that ran them), and the
/// tracing overhead.
fn per_layer(
    w: Workload,
    plain: &[Outcome],
    traced: &[Outcome],
    spans: &[Span],
) -> Vec<(&'static str, &'static str, f64)> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut keys: Vec<&str> = traced
        .iter()
        .flat_map(|o| o.counters.keys().copied())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let v: Vec<f64> = traced
            .iter()
            .filter_map(|o| o.counters.get(key).copied())
            .collect();
        values.insert(key.to_string(), median(&v));
    }

    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let secs = s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
        by_name.entry(s.name).or_default().push(secs);
    }
    let none = Vec::new();
    for &(span, prefix) in DISTRIBUTIONS {
        let us: Vec<f64> = by_name
            .get(span)
            .unwrap_or(&none)
            .iter()
            .map(|s| s * 1e6)
            .collect();
        let sum = summarize(&us);
        values.insert(format!("{prefix}.p50"), sum.p50);
        values.insert(format!("{prefix}.p99"), sum.tail);
        values.insert(format!("{prefix}.samples"), sum.samples as f64);
    }
    for &(span, metric, scale, total) in TIMINGS {
        let v = by_name.get(span).unwrap_or(&none);
        let x = if total {
            v.iter().fold(0.0, |a, b| a + b)
        } else {
            median(v)
        };
        values.insert(metric.to_string(), x * scale);
    }

    let mut runs: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for s in spans {
        runs.entry(s.run).or_default().push(s.clone());
    }
    let self_times: Vec<BTreeMap<&str, f64>> =
        runs.values().map(|r| self_seconds_by_layer(r)).collect();
    for &layer in LAYERS {
        let v: Vec<f64> = self_times
            .iter()
            .map(|m| m.get(layer).copied().unwrap_or(0.0))
            .collect();
        values.insert(format!("{layer}.self_s"), median(&v));
    }
    // The first iteration also pays the process's warm-up; leave it out
    // when the run made another.
    let warm = plain.get(1..).filter(|w| !w.is_empty()).unwrap_or(plain);
    values.insert(
        "trace.overhead_ratio".to_string(),
        med(traced, |o| o.wall_s) / med(warm, |o| o.wall_s),
    );

    let own: &[Metric] = if w == Workload::ScanCold {
        SCAN_COLD_LAYER
    } else {
        &[]
    };
    PER_LAYER
        .iter()
        .chain(own)
        .map(|&(n, u)| (n, u, values.get(n).copied().unwrap_or(0.0)))
        .collect()
}

/// The human-readable report printed before the result line.
pub fn render(result: &RunResult, host: &Host) -> String {
    let mut out = String::new();
    out.push_str(&format!("host {}\n", host.json()));
    out.push_str(&format!(
        "workload {} seed {} {} iterations, {} attempted, {} failed\n",
        result.workload.name(),
        result.seed,
        result.iterations,
        result.attempted,
        result.failed
    ));
    for c in &result.checks {
        let verdict = match c.passed {
            Some(true) => "pass",
            Some(false) => "FAIL",
            None => "n/a ",
        };
        out.push_str(&format!("check {verdict} {} {}\n", c.name, c.detail));
    }
    for &(name, unit, value) in &result.metrics {
        out.push_str(&format!("metric {name:<42} {value:>16.6} {unit}\n"));
    }
    out
}
