//! `e2e-bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload at one seed for the given time, prints the host
//! block, the checks and every metric with its unit, and as the last
//! line of standard output the result object `BENCHMARK.json` defines.
//! Exits 1 when a correctness check fails, 2 on bad arguments.

#![forbid(unsafe_code)]

use e2e_bench::host::Host;
use e2e_bench::json::Obj;
use e2e_bench::runner::{self, RunResult};
use e2e_bench::workloads::Workload;
use e2e_bench::world::{Bench, World};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Journal state roots and result files live in the directory the
/// benchmark is run from (the repository root).
const STATE_DIR: &str = ".bench_state";
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("e2e-bench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    match run_one(workload, &args) {
        Ok(result) if result.correct() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run_one(workload: Workload, args: &Args) -> std::io::Result<RunResult> {
    let state = PathBuf::from(STATE_DIR);
    std::fs::create_dir_all(&state)?;
    let bench = Bench::new(World::Paper, state.clone());
    runner::refuse_oversubscription(&bench)?;
    let host = Host::probe(bench.label(), args.seed, bench.workers, &state);
    let result = runner::run(&bench, workload, args.seed, args.seconds, args.trace);
    let _ = std::fs::remove_dir(&state);

    print!("{}", runner::render(&result, &host));
    let line = result.json();
    write_out(workload, args, &host, &result, &line)?;
    println!("{line}");
    Ok(result)
}

/// Keep the host block, result line and (traced) spans of the run.
fn write_out(
    workload: Workload,
    args: &Args,
    host: &Host,
    result: &RunResult,
    line: &str,
) -> std::io::Result<()> {
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = Obj::default()
        .raw("host", host.json())
        .raw("result", line.to_string())
        .render();
    std::fs::write(out.join(format!("{stem}.json")), record + "\n")?;
    if args.trace {
        e2e_bench::trace::write_tsv(&result.spans, &out.join(format!("{stem}.spans.tsv")))?;
    }
    Ok(())
}

/// Every workload, each in a process of its own (peak memory is per
/// process), then one summary line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut summary = Obj::default();
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let Ok(out) = out else {
            eprintln!("e2e-bench: could not run {}", w.name());
            return ExitCode::from(1);
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let last = text.lines().last().unwrap_or("{}").to_string();
        correct &= out.status.success() && last.contains("\"correct\": true");
        attempted += field(&last, "attempted");
        failed += field(&last, "failed");
        summary = summary.raw(w.name(), last);
    }
    println!(
        "{}",
        Obj::default()
            .bool("correct", correct)
            .num("attempted", attempted)
            .num("failed", failed)
            .raw("workloads", summary.render())
            .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A top-level integer field of a result line.
fn field(line: &str, key: &str) -> f64 {
    line.split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}
