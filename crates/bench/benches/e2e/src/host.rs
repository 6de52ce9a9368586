//! The host block recorded with every result, so a number is never read
//! apart from the machine, build and inputs that produced it.

use crate::json::Obj;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub profile: &'static str,
    pub rustc: &'static str,
    pub commit: &'static str,
    pub world: String,
    pub seed: u64,
    pub workers: usize,
    pub state_fs: String,
}

impl Host {
    pub fn probe(world: String, seed: u64, workers: usize, state_base: &Path) -> Host {
        Host {
            nproc: crate::world::nproc(),
            cpu_model: cpu_model(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: env!("E2E_BENCH_RUSTC"),
            commit: env!("E2E_BENCH_COMMIT"),
            world,
            seed,
            workers,
            state_fs: fs_type(state_base),
        }
    }

    pub fn json(&self) -> String {
        Obj::default()
            .num("nproc", self.nproc as f64)
            .str("cpu_model", &self.cpu_model)
            .str("profile", self.profile)
            .str("rustc", self.rustc)
            .str("commit", self.commit)
            .str("world", &self.world)
            .num("seed", self.seed as f64)
            .num("workers", self.workers as f64)
            .str("state_fs", &self.state_fs)
            .render()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in the mount table).
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
