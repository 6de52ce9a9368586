//! The three workloads. Each call runs one whole study on the world of
//! one seed, times it from outside, and returns what a user would see
//! (timings, deterministic costs) plus correctness checks and, when
//! traced, per-layer counters.

use crate::checks::{self, Check};
use crate::host::peak_rss_mib;
use crate::replay::{self, Counters};
use crate::trace::Tracer;
use crate::world::{self, Bench, ScannerParts};
use bootscan::{ProgressSink, ScanResults, Scanner, ZoneEvent, ZoneScan};
use dns_ecosystem::{apply_churn, build, ChurnConfig, ChurnPlan, Ecosystem};
use dns_wire::Name;
use netsim::{SimMicros, StatsSnapshot};
use scan_continuous::{render_decisions, run_continuous, Admission, ContinuousConfig};
use scan_fabric::{run_fabric, CollectSink, FabricConfig, FabricFaultPlan, MergeSink};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanCold,
    FabricJournaled,
    ContinuousChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScanCold,
        Workload::FabricJournaled,
        Workload::ContinuousChurn,
    ];

    /// The workloads `BENCHMARK.json` lists. `scan_cold` stays runnable
    /// but is not gated: its single-threaded wall time drifts by up to
    /// 2x over minutes on a shared 2-core host (see the README).
    pub const GATED: [Workload; 2] = [Workload::FabricJournaled, Workload::ContinuousChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCold => "scan_cold",
            Workload::FabricJournaled => "fabric_journaled",
            Workload::ContinuousChurn => "continuous_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one iteration of a workload extra does besides the timed study.
#[derive(Debug, Clone, Copy)]
pub struct Extras {
    /// Run the correctness checks on this iteration's outputs.
    pub checks: bool,
    /// Replay the layer sample and the journal read path (traced runs).
    pub replays: bool,
}

/// One iteration's results.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub wall_s: f64,
    /// The iteration's timed work: `wall_s` plus any set-up timed apart
    /// from it, without the checks and replays. A run's time budget
    /// counts this.
    pub busy_s: f64,
    pub resume_s: Option<f64>,
    /// Zones scanned afresh (not carried forward or folded from a journal).
    pub fresh_zones: u64,
    pub queries: u64,
    pub datagrams: Option<u64>,
    pub infra_datagrams: Option<u64>,
    pub makespan_us: u64,
    /// Fresh zones that ended degraded or `Indeterminate`.
    pub failed_zones: u64,
    /// The process's peak RSS when the study ended, before any check
    /// (which builds large canonical strings) ran.
    pub peak_rss_mib: f64,
    /// (coalesced, scheduled) epochs.
    pub epochs: Option<(u32, u32)>,
    pub checks: Vec<Check>,
    pub counters: Counters,
}

impl Outcome {
    /// The deterministic part, which must repeat exactly at one seed.
    pub fn deterministic(&self) -> String {
        format!(
            "fresh={} queries={} datagrams={:?} infra={:?} makespan={} failed={} epochs={:?}",
            self.fresh_zones,
            self.queries,
            self.datagrams,
            self.infra_datagrams,
            self.makespan_us,
            self.failed_zones,
            self.epochs
        )
    }
}

/// Run one iteration of `w` at `seed`. `iter` numbers the iteration,
/// which keeps its state root apart from every other.
pub fn run(
    w: Workload,
    bench: &Bench,
    seed: u64,
    iter: u32,
    t: &Tracer,
    extras: Extras,
) -> io::Result<Outcome> {
    t.set_run(iter);
    t.span(None, "bench", w.name(), |root| match w {
        Workload::ScanCold => scan_cold(bench, seed, t, root, extras),
        Workload::FabricJournaled => fabric_journaled(bench, seed, iter, t, root, extras),
        Workload::ContinuousChurn => continuous_churn(bench, seed, iter, t, root, extras),
    })
}

fn artefact_ops(bench: &Bench, seed: u64) -> Vec<String> {
    checks::transient_badsig_operators(&bench.config(seed))
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// A pass-through sink that closes one span per zone: the interval since
/// the previous zone (or the scan's start) finished.
struct ZoneClock<'a> {
    t: &'a Tracer,
    parent: Option<u64>,
    last: Mutex<Instant>,
}

impl ProgressSink for ZoneClock<'_> {
    fn on_zone(&self, _event: &ZoneEvent) -> bool {
        let now = Instant::now();
        let mut last = self.last.lock().expect("zone clock lock");
        self.t.record(self.parent, "bootscan", "zone", *last, now);
        *last = now;
        true
    }
}

/// A pass-through merge sink that records the streaming merge as one span
/// from the first zone it delivers to the last.
struct MergeClock<'a> {
    inner: CollectSink,
    first: Option<Instant>,
    last: Option<Instant>,
    t: &'a Tracer,
    parent: Option<u64>,
}

impl MergeSink for MergeClock<'_> {
    fn on_zone(&mut self, zone: &ZoneScan) {
        if self.t.enabled() {
            let now = Instant::now();
            self.first.get_or_insert(now);
            self.last = Some(now);
        }
        self.inner.on_zone(zone);
    }
}

impl MergeClock<'_> {
    fn finish(self) -> CollectSink {
        if let (Some(first), Some(last)) = (self.first, self.last) {
            self.t
                .record(self.parent, "scan-fabric", "merge", first, last);
        }
        self.inner
    }
}

/// Per-zone counters of the scanner and resolver layers.
fn zone_counters(zones: &[&ZoneScan], out: &mut Counters) {
    let n = zones.len().max(1) as f64;
    let sum = |f: fn(&ZoneScan) -> u64| zones.iter().map(|z| f(z)).sum::<u64>() as f64;
    out.insert(
        "bootscan.retries_per_kzone",
        sum(|z| u64::from(z.retry_stats.retries)) * 1000.0 / n,
    );
    out.insert(
        "bootscan.breaker_skips",
        sum(|z| u64::from(z.retry_stats.breaker_skips)),
    );
    out.insert("bootscan.degraded_zones", sum(|z| u64::from(z.degraded)));
    out.insert(
        "bootscan.indeterminate_zones",
        sum(|z| u64::from(z.dnssec == bootscan::DnssecClass::Indeterminate)),
    );
    out.insert(
        "dns-resolver.tcp_fallbacks",
        sum(|z| u64::from(z.retry_stats.tcp_fallbacks)),
    );
}

/// Network counters from a snapshot of a world's `NetStats` after a scan.
fn net_counters(eco: &Ecosystem, snap: &StatsSnapshot, zones: u64, o: &mut Outcome) {
    let infra = world::infra_addrs(eco);
    o.datagrams = Some(snap.queries);
    o.infra_datagrams = Some(
        snap.per_dest
            .iter()
            .filter(|(addr, _)| infra.contains(addr))
            .map(|(_, n)| *n)
            .sum(),
    );
    let n = zones.max(1) as f64;
    o.counters.insert("netsim.datagrams", snap.queries as f64);
    o.counters
        .insert("netsim.bytes_sent_per_zone", snap.bytes_sent as f64 / n);
    o.counters.insert(
        "netsim.bytes_received_per_zone",
        snap.bytes_received as f64 / n,
    );
}

/// The layer replays over the world a workload scanned. Runs after every
/// count has been read, because the replays send traffic of their own.
/// `sample` is the seed-derived zone sample (`replay::sample`).
fn replay_layers(
    eco: &Ecosystem,
    results: &ScanResults,
    sample: &[Name],
    t: &Tracer,
    root: Option<u64>,
    o: &mut Outcome,
) {
    t.span(root, "bench", "replay", |id| {
        replay::reports(eco, results, t, id);
        replay::network_layers(eco, sample, t, id, &mut o.counters);
    });
}

fn scan_cold(
    bench: &Bench,
    seed: u64,
    t: &Tracer,
    root: Option<u64>,
    extras: Extras,
) -> io::Result<Outcome> {
    let mut o = Outcome::default();
    let t0 = Instant::now();
    let (eco, seeds) = world::setup(bench, seed, t, root);
    o.setup_s = secs(t0);
    let results = t.span(root, "bootscan", "scan_all", |scan| {
        let parts = ScannerParts::of(&eco);
        let scanner = t.span(scan, "bootscan", "scanner_new", |_| parts.scanner());
        if t.enabled() {
            let sink = ZoneClock {
                t,
                parent: scan,
                last: Mutex::new(Instant::now()),
            };
            scanner.scan_all_with(&seeds, Some(&sink), None)
        } else {
            scanner.scan_all(&seeds)
        }
    });
    o.wall_s = secs(t0);
    o.busy_s = o.wall_s;
    o.peak_rss_mib = peak_rss_mib();

    let zones = results.zones.len() as u64;
    o.fresh_zones = zones;
    o.queries = results.total_queries;
    o.makespan_us = results.simulated_duration;
    o.failed_zones = results
        .zones
        .iter()
        .filter(|z| world::zone_failed(z))
        .count() as u64;
    net_counters(&eco, &eco.net.stats().snapshot(), zones, &mut o);
    if extras.checks {
        let ops = artefact_ops(bench, seed);
        o.checks.extend(checks::evidence(
            &eco,
            &bench.label(),
            seed,
            "evidence",
            &results.zones,
            &ops,
        ));
        o.checks
            .push(checks::truth_agrees(&eco, &results.zones, &ops));
    }
    if t.enabled() {
        zone_counters(&results.zones.iter().collect::<Vec<_>>(), &mut o.counters);
    }
    if extras.replays {
        let sample = replay::sample(&seeds, seed, bench.sample);
        replay_layers(&eco, &results, &sample, t, root, &mut o);
    }
    Ok(o)
}

/// A fresh, empty state root for one iteration.
fn state_root(bench: &Bench, w: Workload, iter: u32) -> io::Result<PathBuf> {
    let dir = bench
        .state_base
        .join(format!("{}-{}-{iter}", w.name(), std::process::id()));
    match std::fs::remove_dir_all(&dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Removes a state root when dropped, whether the iteration succeeded or
/// not.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fabric_config(bench: &Bench) -> FabricConfig {
    FabricConfig {
        workers: bench.workers,
        shards: bench.shards,
        ..FabricConfig::default()
    }
}

fn fabric_journaled(
    bench: &Bench,
    seed: u64,
    iter: u32,
    t: &Tracer,
    root: Option<u64>,
    extras: Extras,
) -> io::Result<Outcome> {
    let mut o = Outcome::default();
    let dir = state_root(bench, Workload::FabricJournaled, iter)?;
    let _cleanup = RemoveOnDrop(dir.clone());
    let cfg = fabric_config(bench);
    let run_id = bench.run_id(seed);

    let t0 = Instant::now();
    let (eco, seeds) = world::setup(bench, seed, t, root);
    o.setup_s = secs(t0);
    let parts = ScannerParts::of(&eco);
    let attempts = AtomicU64::new(0);
    // The fabric calls this once per shard attempt, from its workers.
    let fabric = |name: &'static str| {
        t.span(root, "scan-fabric", name, |id| {
            let factory = || -> Arc<Scanner> {
                attempts.fetch_add(1, Ordering::Relaxed);
                t.span(id, "bootscan", "scanner_new", |_| parts.scanner())
            };
            let mut sink = MergeClock {
                inner: CollectSink::default(),
                first: None,
                last: None,
                t,
                parent: id,
            };
            let out = run_fabric(
                &factory,
                &seeds,
                &dir,
                run_id,
                &cfg,
                &FabricFaultPlan::none(),
                &mut sink,
            )?;
            let collected = sink.finish();
            let results = collected.into_results(&out.report);
            Ok::<_, io::Error>((out, results))
        })
    };
    let (first, results) = fabric("run_fabric")?;
    let snap = eco.net.stats().snapshot();
    let first_attempts = attempts.load(Ordering::Relaxed);
    let tr = Instant::now();
    let (second, _) = fabric("resume")?;
    o.resume_s = Some(secs(tr));
    o.wall_s = secs(t0);
    o.busy_s = o.wall_s;
    o.peak_rss_mib = peak_rss_mib();

    let zones = first.report.zones_total;
    o.fresh_zones = zones;
    o.queries = first.report.total_queries;
    o.makespan_us = first.report.virtual_makespan_us;
    o.failed_zones = results
        .zones
        .iter()
        .filter(|z| world::zone_failed(z))
        .count() as u64;
    let resent = eco.net.stats().snapshot().queries - snap.queries;
    net_counters(&eco, &snap, zones, &mut o);
    if extras.checks {
        let ops = artefact_ops(bench, seed);
        o.checks.extend(checks::evidence(
            &eco,
            &bench.label(),
            seed,
            "fabric_evidence",
            &results.zones,
            &ops,
        ));
        o.checks
            .push(checks::truth_agrees(&eco, &results.zones, &ops));
        let a = serde_json::to_string(&first.report).unwrap_or_default();
        let b = serde_json::to_string(&second.report).unwrap_or_default();
        o.checks.push(Check::new(
            "resume_identical",
            a == b && !a.is_empty(),
            format!("merged report {} bytes, resume equal: {}", a.len(), a == b),
        ));
        o.checks.push(Check::new(
            "resume_rescans_nothing",
            resent == 0,
            format!("{resent} datagrams sent by the resume run"),
        ));
    }
    if t.enabled() {
        zone_counters(&results.zones.iter().collect::<Vec<_>>(), &mut o.counters);
        let ops = &first.ops;
        let c = &mut o.counters;
        c.insert("scan-fabric.shard_attempts", first_attempts as f64);
        c.insert("scan-fabric.reassignments", f64::from(ops.reassignments));
        c.insert("scan-fabric.lease_expiries", f64::from(ops.lease_expiries));
        c.insert(
            "scan-fabric.peak_resident_zones",
            ops.peak_resident_zones as f64,
        );
        c.insert("scan-fabric.largest_shard", ops.largest_shard as f64);
    }
    if extras.replays {
        let sample = replay::sample(&seeds, seed, bench.sample);
        replay_layers(&eco, &results, &sample, t, root, &mut o);
        t.span(root, "bench", "journal_replay", |id| {
            replay::journal_layer(&dir, zones, t, id, &mut o.counters)
        })?;
    }
    Ok(o)
}

fn continuous_config(bench: &Bench, seed: u64) -> ContinuousConfig {
    let mut cfg = ContinuousConfig::new(bench.epochs, seed);
    cfg.run_id = bench.run_id(seed);
    cfg.epoch_spacing = bench.epoch_spacing;
    cfg.max_pipeline_depth = 1;
    cfg.fabric = fabric_config(bench);
    cfg
}

fn continuous_churn(
    bench: &Bench,
    seed: u64,
    iter: u32,
    t: &Tracer,
    root: Option<u64>,
    extras: Extras,
) -> io::Result<Outcome> {
    let mut o = Outcome::default();
    let dir = state_root(bench, Workload::ContinuousChurn, iter)?;
    let _cleanup = RemoveOnDrop(dir.clone());
    let cfg = continuous_config(bench, seed);

    // `run_continuous` builds its own world; set-up is timed on a
    // separate build of the same config, dropped before the study starts.
    let ts = Instant::now();
    let seeds = world::setup(bench, seed, t, root).1;
    o.setup_s = secs(ts);

    let t0 = Instant::now();
    let first = t.span(root, "scan-continuous", "run_continuous", |_| {
        run_continuous(bench.config(seed), world::policy(), &cfg, &dir)
    })?;
    let tr = Instant::now();
    let second = t.span(root, "scan-continuous", "resume", |_| {
        run_continuous(bench.config(seed), world::policy(), &cfg, &dir)
    })?;
    o.resume_s = Some(secs(tr));
    o.wall_s = secs(t0);
    o.busy_s = o.wall_s + o.setup_s;
    o.peak_rss_mib = peak_rss_mib();

    let series = &first.series;
    let epoch_zero_queries = series.epochs.first().map_or(0, |e| e.queries);
    let mut fresh: Vec<&ZoneScan> = Vec::new();
    for e in &series.epochs {
        o.queries += e.queries;
        fresh.extend(e.zones.iter().filter(|z| {
            e.fresh
                .binary_search_by(|f| f.canonical_cmp(&z.name))
                .is_ok()
        }));
    }
    o.fresh_zones = fresh.len() as u64;
    o.failed_zones = fresh.iter().filter(|z| world::zone_failed(z)).count() as u64;
    // The final drain clock: the last admitted epoch's start plus its
    // makespan.
    let mut drain: SimMicros = 0;
    for d in &first.decisions {
        if let Admission::Pipeline { start, .. } = d.admission {
            let span = series
                .epochs
                .iter()
                .find(|e| e.epoch == d.epoch)
                .map_or(0, |e| e.simulated_duration);
            drain = start.saturating_add(span);
        }
    }
    o.makespan_us = drain;
    o.epochs = Some((series.skipped.len() as u32, bench.epochs));

    if extras.checks {
        let label = bench.label();
        let bytes = series.canonical_bytes();
        let decisions = render_decisions(&first.decisions);
        o.checks
            .push(checks::against_recorded(&label, seed, "series", &bytes));
        o.checks.push(checks::against_recorded(
            &label,
            seed,
            "decisions",
            &decisions,
        ));
        let same = second.series.canonical_bytes() == bytes
            && render_decisions(&second.decisions) == decisions;
        o.checks.push(Check::new(
            "resume_identical",
            same,
            format!("series {} bytes, resume equal: {same}", bytes.len()),
        ));
        let rescanned: u32 = second.ops.attempts.iter().sum();
        o.checks.push(Check::new(
            "resume_rescans_nothing",
            rescanned == 0,
            format!("{rescanned} shard attempts by the resume run"),
        ));
    }
    if extras.checks || extras.replays {
        let last_epoch = series.epochs.last().map_or(0, |e| e.epoch);
        let (eco, churned) = churned_world(bench, seed, last_epoch, t, root, &cfg.churn);
        let last = series
            .epochs
            .last()
            .map(|e| e.zones.as_slice())
            .unwrap_or(&[]);
        if extras.checks {
            o.checks
                .push(checks::truth_agrees(&eco, last, &artefact_ops(bench, seed)));
        }
        o.counters.insert(
            "dns-ecosystem.churned_zones",
            churned as f64 / f64::from(last_epoch.max(1)),
        );
        if extras.replays {
            let parts = ScannerParts::of(&eco);
            t.span(root, "bench", "replay", |id| {
                for _ in 0..16 {
                    t.span(id, "bootscan", "scanner_new", |_| parts.scanner());
                }
            });
            let results = ScanResults {
                zones: last.to_vec(),
                simulated_duration: o.makespan_us,
                total_queries: o.queries,
            };
            let sample = replay::sample(&seeds, seed, bench.sample);
            replay_layers(&eco, &results, &sample, t, root, &mut o);
        }
    }
    if t.enabled() {
        zone_counters(&fresh, &mut o.counters);
        let ops = &first.ops;
        let committed = series.epochs.len();
        let pipelined = first
            .decisions
            .iter()
            .filter(
                |d| matches!(d.admission, Admission::Pipeline { start, .. } if start > d.arrival),
            )
            .count();
        let later: Vec<_> = series.epochs.iter().filter(|e| e.epoch > 0).collect();
        let n_later = later.len().max(1) as f64;
        let delta_share = later
            .iter()
            .map(|e| e.fresh.len() as f64 / seeds.len().max(1) as f64)
            .sum::<f64>()
            / n_later;
        let later_queries = later.iter().map(|e| e.queries as f64).sum::<f64>() / n_later;
        let c = &mut o.counters;
        c.insert("scan-continuous.epochs_committed", committed as f64);
        c.insert("scan-continuous.epochs_pipelined", pipelined as f64);
        c.insert(
            "scan-continuous.epochs_coalesced",
            series.skipped.len() as f64,
        );
        c.insert("scan-continuous.delta_share", delta_share);
        c.insert(
            "scan-continuous.incremental_query_ratio",
            later_queries / (epoch_zero_queries.max(1) as f64),
        );
        c.insert(
            "scan-fabric.shard_attempts",
            f64::from(ops.attempts.iter().sum::<u32>()),
        );
        c.insert("scan-fabric.reassignments", f64::from(ops.reassignments));
        c.insert("scan-fabric.lease_expiries", f64::from(ops.lease_expiries));
        c.insert(
            "scan-fabric.peak_resident_zones",
            ops.peak_resident_zones as f64,
        );
        c.insert("scan-fabric.largest_shard", ops.largest_shard as f64);
    }
    if extras.replays {
        t.span(root, "bench", "journal_replay", |id| {
            replay::journal_layer(&dir, o.fresh_zones, t, id, &mut o.counters)
        })?;
    }
    Ok(o)
}

/// The world as committed epoch `through` saw it: a fresh build with the
/// churn of every epoch up to it replayed (coalesced epochs included, as
/// the world does not wait for the scanner). Returns the zones churned.
fn churned_world(
    bench: &Bench,
    seed: u64,
    through: u32,
    t: &Tracer,
    root: Option<u64>,
    churn: &ChurnConfig,
) -> (Ecosystem, usize) {
    let mut eco = t.span(root, "dns-ecosystem", "build", |_| {
        build(bench.config(seed))
    });
    let mut churned = 0;
    t.span(root, "bench", "churn_replay", |id| {
        for epoch in 1..=through {
            let log = t.span(id, "dns-ecosystem", "churn_epoch", |_| {
                let plan = ChurnPlan::generate(&eco, churn, seed, epoch);
                apply_churn(&mut eco, &plan)
            });
            churned += log.churned_zones().len();
        }
    });
    (eco, churned)
}
