//! Correctness checks on a workload's outputs. A failed check fails the
//! run and counts its iteration as a failed operation.

use crate::stats::fnv64;
use bootscan::{CdsClass, DnssecClass, ZoneScan};
use dns_ecosystem::{CdsState, DnssecState, Ecosystem, EcosystemConfig, ZoneTruth};
use dns_wire::Name;
use scan_epochs::canonical_evidence;
use std::collections::{HashMap, HashSet};

/// One check's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: String,
    /// `None` when the check could not apply (no digest recorded for this
    /// world and seed); such a check neither passes nor fails the run.
    pub passed: Option<bool>,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, passed: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.to_string(),
            passed: Some(passed),
            detail: detail.into(),
        }
    }

    pub fn failed(&self) -> bool {
        self.passed == Some(false)
    }
}

/// Digests of canonical outputs, recorded per world and seed.
const RECORDED: &str = include_str!("../expected/digests.txt");

/// The recorded digest of `kind` (`evidence`, `series`, `decisions`) for
/// `world` at `seed`.
fn recorded(world: &str, seed: u64, kind: &str) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, k, d) = (f.next()?, f.next()?, f.next()?, f.next()?);
        (w == world && s.parse::<u64>().ok()? == seed && k == kind)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Compare the digest of `text` with the one recorded for (world, seed).
pub fn against_recorded(world: &str, seed: u64, kind: &str, text: &str) -> Check {
    let got = fnv64(text.as_bytes());
    let name = format!("{kind}_digest");
    match recorded(world, seed, kind) {
        Some(want) => Check::new(
            &name,
            want == got,
            format!("got {got:016x}, recorded {want:016x}"),
        ),
        None => Check {
            name,
            passed: None,
            detail: format!("got {got:016x}; nothing recorded for {world} seed {seed}"),
        },
    }
}

fn expect_dnssec(truth: &ZoneTruth) -> DnssecClass {
    match truth.dnssec {
        DnssecState::Unsigned => DnssecClass::Unsigned,
        DnssecState::Secured => DnssecClass::Secured,
        DnssecState::Invalid => DnssecClass::Invalid,
        DnssecState::Island => DnssecClass::Island,
    }
}

fn expect_cds(truth: &ZoneTruth) -> CdsClass {
    match truth.cds {
        CdsState::None => CdsClass::Absent,
        CdsState::Valid => CdsClass::Valid,
        CdsState::Delete => CdsClass::Delete,
        CdsState::MismatchesDnskey => CdsClass::MismatchesDnskey,
        CdsState::BadSignature => CdsClass::BadSignature,
        CdsState::Inconsistent => CdsClass::Inconsistent,
    }
}

/// Operators whose servers corrupt signatures at random
/// (`transient_badsig`): the paper's transient artefacts, planted in the
/// servers rather than in the truth table.
pub fn transient_badsig_operators(cfg: &EcosystemConfig) -> Vec<String> {
    cfg.operators
        .iter()
        .filter(|o| o.quirks.transient_badsig > 0.0)
        .map(|o| o.name.clone())
        .collect()
}

/// The evidence checks of a workload that scans every seed once. `kind`
/// names the digest recorded for this workload's whole evidence plane.
/// `benign_evidence` is the digest of the zones that no nameserver of an
/// operator in `artefact_ops` serves, and `scan_cold` and
/// `fabric_journaled` share it. Zones of those operators stay out of the
/// shared digest. A zone meets a transiently corrupted signature only
/// when its own query draws one, such as the fetch of a key that zones
/// share. Which zone's walk makes that fetch depends on cache state, and
/// cache state differs between one long scan and per-shard scans. The
/// repository pins equivalence with the in-memory scan on benign worlds
/// only (DESIGN.md §9).
pub fn evidence(
    eco: &Ecosystem,
    world: &str,
    seed: u64,
    kind: &str,
    zones: &[ZoneScan],
    artefact_ops: &[String],
) -> [Check; 2] {
    let hosts: HashSet<&Name> = eco
        .operators
        .iter()
        .filter(|o| artefact_ops.contains(&o.name))
        .flat_map(|o| o.hosts.iter())
        .collect();
    let benign: Vec<ZoneScan> = zones
        .iter()
        .filter(|z| !z.ns_names.iter().any(|ns| hosts.contains(ns)))
        .cloned()
        .collect();
    [
        against_recorded(world, seed, kind, &canonical_evidence(zones)),
        against_recorded(world, seed, "benign_evidence", &canonical_evidence(&benign)),
    ]
}

/// Every non-degraded zone's DNSSEC and CDS class agrees with the planted
/// truth, by the rule of the repository's end-to-end test: zones behind
/// legacy nameservers must instead surface CDS query failures. A zone of
/// an operator in `artefact_ops` that reads as `Invalid` or with a bad
/// CDS signature is a transient artefact of its servers, counted apart.
pub fn truth_agrees(eco: &Ecosystem, zones: &[ZoneScan], artefact_ops: &[String]) -> Check {
    let truth: HashMap<&Name, &ZoneTruth> = eco.truth.iter().map(|t| (&t.name, t)).collect();
    let (mut checked, mut artefacts) = (0usize, 0usize);
    let mut wrong: Vec<String> = Vec::new();
    for z in zones.iter().filter(|z| !crate::world::zone_failed(z)) {
        checked += 1;
        let Some(t) = truth.get(&z.name) else {
            wrong.push(format!("{}: not in truth table", z.name));
            continue;
        };
        if t.legacy_ns {
            if !z.cds_query_failures() {
                wrong.push(format!("{}: legacy NS without CDS query failures", z.name));
            }
        } else if z.dnssec != expect_dnssec(t) || z.cds != expect_cds(t) {
            let operator = eco.operators.get(t.operator).map(|o| o.name.as_str());
            let badsig = z.dnssec == DnssecClass::Invalid || z.cds == CdsClass::BadSignature;
            if badsig && artefact_ops.iter().any(|o| Some(o.as_str()) == operator) {
                artefacts += 1;
                continue;
            }
            wrong.push(format!(
                "{}: {:?}/{:?}, planted {:?}/{:?}",
                z.name, z.dnssec, z.cds, t.dnssec, t.cds
            ));
        }
    }
    let shown: Vec<&str> = wrong.iter().take(3).map(String::as_str).collect();
    Check::new(
        "truth",
        wrong.is_empty() && checked > 0,
        format!(
            "{checked} zones checked, {artefacts} transient bad-signature artefacts, {} disagree {shown:?}",
            wrong.len()
        ),
    )
}
