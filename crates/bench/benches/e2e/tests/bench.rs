//! The benchmark's own behaviour, on the tiny world: seeds plumb through
//! to the world and nothing else does, the checks hold, and the metric
//! names the benchmark prints are exactly those `BENCHMARK.json` lists.

use e2e_bench::runner::{self, RunResult, END_TO_END, PER_LAYER};
use e2e_bench::workloads::Workload;
use e2e_bench::world::{Bench, World};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// A state base of its own per call: tests run in parallel threads.
fn bench() -> Bench {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "e2e-bench-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("state base");
    Bench::new(World::Tiny, dir)
}

/// The metrics that repeat exactly at one seed (everything but timings
/// and memory).
fn deterministic(r: &RunResult) -> Vec<(&'static str, f64)> {
    const TIMED: &[&str] = &[
        "setup_s",
        "wall_s",
        "zones_per_sec",
        "peak_rss_mb",
        "resume_s",
    ];
    r.metrics
        .iter()
        .filter(|m| !TIMED.contains(&m.0))
        .map(|m| (m.0, m.2))
        .collect()
}

fn checks_pass(r: &RunResult) {
    assert!(r.correct(), "{:?}", r.checks);
    assert!(r.attempted >= 1);
    assert!(r
        .checks
        .iter()
        .any(|c| c.name == "truth" && c.passed == Some(true)));
}

#[test]
fn same_seed_repeats_deterministic_metrics_on_every_workload() {
    let b = bench();
    for w in Workload::ALL {
        let first = runner::run(&b, w, 7, 0.0, false);
        let second = runner::run(&b, w, 7, 0.0, false);
        checks_pass(&first);
        assert_eq!(
            deterministic(&first),
            deterministic(&second),
            "{}",
            w.name()
        );
        assert!(first.value("queries_per_zone").is_some_and(|q| q > 0.0));
    }
    assert!(std::fs::read_dir(&b.state_base)
        .expect("state base")
        .next()
        .is_none());
}

#[test]
fn different_seed_gives_a_different_world() {
    let b = bench();
    let world = |seed| {
        let eco = dns_ecosystem::build(b.config(seed));
        let mut names: Vec<String> = eco.truth.iter().map(|t| t.name.to_string()).collect();
        names.sort();
        (
            names,
            eco.truth
                .iter()
                .map(|t| format!("{:?}", t.dnssec))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(world(7), world(7));
    assert_ne!(world(7), world(8));
    let a = runner::run(&b, Workload::ScanCold, 7, 0.0, false);
    let c = runner::run(&b, Workload::ScanCold, 8, 0.0, false);
    assert_ne!(deterministic(&a), deterministic(&c));
}

#[test]
fn recorded_digests_hold_on_the_tiny_world() {
    let b = bench();
    for w in Workload::ALL {
        let r = runner::run(&b, w, 1, 0.0, false);
        let digests: Vec<_> = r
            .checks
            .iter()
            .filter(|c| c.name.ends_with("_digest"))
            .collect();
        assert!(!digests.is_empty(), "{}", w.name());
        for c in digests {
            assert_eq!(c.passed, Some(true), "{}: {c:?}", w.name());
        }
    }
}

#[test]
fn continuous_churn_coalesces_and_pipelines() {
    let b = bench();
    let r = runner::run(&b, Workload::ContinuousChurn, 1, 0.0, true);
    checks_pass(&r);
    let coalesced = r.value("scan-continuous.epochs_coalesced").unwrap_or(0.0);
    let pipelined = r.value("scan-continuous.epochs_pipelined").unwrap_or(0.0);
    assert!(
        coalesced >= 1.0 && pipelined >= 1.0,
        "{coalesced} {pipelined}"
    );
}

/// `(name, unit)` pairs of one array of `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("value") + 1;
        let close = open + rest[open..].find('"').expect("value end");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = listed_names(&json, "workloads");
    let ours: Vec<String> = Workload::GATED
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, ours);

    // What a run prints in its result line, for both modes.
    let b = bench();
    for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
        let line = runner::run(&b, Workload::ScanCold, 3, 0.0, trace).json();
        let metrics = &line[line.find("\"metrics\"").expect("metrics")..];
        // Each metric's name is the last string before its `{"value"`.
        let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
        let printed: Vec<&str> = chunks[..chunks.len() - 1]
            .iter()
            .filter_map(|chunk| chunk.rsplit('"').nth(1))
            .collect();
        let want: Vec<&str> = table.iter().map(|m| m.0).collect();
        assert_eq!(printed, want);
    }
}

fn listed_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect()
}
