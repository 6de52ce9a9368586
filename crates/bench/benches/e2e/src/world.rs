//! The fixed benchmark settings and the calls every workload shares:
//! world set-up, scanner construction, and the counters read off a set
//! of zone records.

use crate::trace::Tracer;
use bootscan::{DnssecClass, OperatorTable, ScanPolicy, Scanner, ZoneScan};
use dns_crypto::UnixTime;
use dns_ecosystem::{build, Ecosystem, EcosystemConfig};
use dns_wire::rdata::RData;
use dns_wire::record::RecordType;
use dns_wire::Name;
use netsim::{Addr, SimMicros};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Scale divisor of the `paper_default` world: 18 533 zones at seed 0,
/// large enough that one cold scan takes seconds and every timing
/// distribution has over a thousand samples.
pub const PAPER_SCALE: u64 = 40_000;

/// Which generated world a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// `EcosystemConfig::paper_default(PAPER_SCALE)`, the benchmark world.
    Paper,
    /// `EcosystemConfig::tiny`, for the benchmark's own tests.
    Tiny,
}

/// Everything a workload run is parameterised by besides its seed.
#[derive(Debug, Clone)]
pub struct Bench {
    pub world: World,
    /// Fabric workers and continuous fleet size (at most `nproc`).
    pub workers: usize,
    /// Zone-space shards of the fabric and the continuous fleet.
    pub shards: u32,
    /// Scheduled epochs of `continuous_churn`, epoch 0 included.
    pub epochs: u32,
    /// Virtual time between epoch arrivals of `continuous_churn`. Fixed
    /// per world so that epoch 0's makespan (M0) lands in
    /// `[3 × spacing, 4 × spacing)` at pipeline depth 1: epoch 1 arrives
    /// two spacings behind and is coalesced, epochs 2 and 3 are
    /// admitted late (pipelined).
    pub epoch_spacing: SimMicros,
    /// Zones in the seed-derived sample the layer replays run over.
    pub sample: usize,
    /// Directory under which each run makes (and removes) its journal
    /// state roots.
    pub state_base: PathBuf,
}

impl Bench {
    pub fn new(world: World, state_base: PathBuf) -> Bench {
        let (epoch_spacing, sample) = match world {
            World::Paper => (PAPER_SPACING, 1024),
            World::Tiny => (TINY_SPACING, 64),
        };
        Bench {
            world,
            workers: nproc(),
            shards: 32,
            epochs: 4,
            epoch_spacing,
            sample,
            state_base,
        }
    }

    /// The world config for `seed`: the seed is the only input that
    /// varies between runs.
    pub fn config(&self, seed: u64) -> EcosystemConfig {
        let mut cfg = match self.world {
            World::Paper => EcosystemConfig::paper_default(PAPER_SCALE),
            World::Tiny => EcosystemConfig::tiny(seed),
        };
        cfg.seed = seed;
        cfg
    }

    /// Label of the world in recorded digests and the host block.
    pub fn label(&self) -> String {
        match self.world {
            World::Paper => format!("paper_default/{PAPER_SCALE}"),
            World::Tiny => "tiny".to_string(),
        }
    }

    /// Journal run id of a study at `seed`, as `run_study_fabric` derives it.
    pub fn run_id(&self, seed: u64) -> u64 {
        let cfg = self.config(seed);
        cfg.seed ^ cfg.scale
    }
}

/// Epoch spacing of the paper world (µs of virtual time); see
/// [`Bench::epoch_spacing`].
const PAPER_SPACING: SimMicros = 70_000_000;
/// Epoch spacing of the tiny world; M0 lands in `[3, 4)` spacings at
/// seed 1 (the seed the benchmark's tests run continuous churn at).
const TINY_SPACING: SimMicros = 1_300_000;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The in-scanner parallelism every workload uses: one thread, so that
/// counts and virtual time repeat exactly.
pub fn policy() -> ScanPolicy {
    ScanPolicy {
        parallelism: 1,
        ..ScanPolicy::default()
    }
}

/// Build the world and compile its seed list, each call in its own span.
pub fn setup(bench: &Bench, seed: u64, t: &Tracer, parent: Option<u64>) -> (Ecosystem, Vec<Name>) {
    let eco = t.span(parent, "dns-ecosystem", "build", |_| {
        build(bench.config(seed))
    });
    let seeds = t.span(parent, "dns-ecosystem", "seed_compile", |_| {
        eco.seeds.compile(&eco.psl)
    });
    (eco, seeds)
}

/// Everything `Scanner::new` needs, detached from the `Ecosystem` so a
/// factory can outlive borrows of it.
#[derive(Clone)]
pub struct ScannerParts {
    net: Arc<netsim::Network>,
    roots: Vec<Addr>,
    anchors: Vec<dns_wire::rdata::DsData>,
    table: OperatorTable,
    now: UnixTime,
}

impl ScannerParts {
    pub fn of(eco: &Ecosystem) -> ScannerParts {
        ScannerParts {
            net: Arc::clone(&eco.net),
            roots: eco.roots.clone(),
            anchors: eco.anchors.clone(),
            table: OperatorTable::from_operators(
                eco.operators
                    .iter()
                    .map(|o| (o.name.as_str(), o.hosts.as_slice())),
            ),
            now: eco.now,
        }
    }

    pub fn scanner(&self) -> Arc<Scanner> {
        Arc::new(Scanner::new(
            Arc::clone(&self.net),
            self.roots.clone(),
            self.anchors.clone(),
            self.table.clone(),
            self.now,
            policy(),
        ))
    }
}

/// A zone that ended without a substantive classification: degraded
/// evidence or `Indeterminate`.
pub fn zone_failed(z: &ZoneScan) -> bool {
    z.degraded || z.dnssec == DnssecClass::Indeterminate
}

/// Root and registry (TLD) server addresses: the infrastructure the
/// delegation cache shields. Registry servers are `ns1.nic.<suffix>`.
pub fn infra_addrs(eco: &Ecosystem) -> HashSet<Addr> {
    let mut set: HashSet<Addr> = eco.roots.iter().copied().collect();
    for (suffix, store) in &eco.registry_stores {
        let Ok(ns) = suffix
            .prepend_label(b"nic")
            .and_then(|n| n.prepend_label(b"ns1"))
        else {
            continue;
        };
        let Some(zone) = store.get(suffix) else {
            continue;
        };
        for rt in [RecordType::A, RecordType::Aaaa] {
            for rd in zone.rrset(&ns, rt).iter().flat_map(|s| s.rdatas.iter()) {
                match rd {
                    RData::A(a) => {
                        set.insert(Addr::V4(*a));
                    }
                    RData::Aaaa(a) => {
                        set.insert(Addr::V6(*a));
                    }
                    _ => {}
                }
            }
        }
    }
    set
}
