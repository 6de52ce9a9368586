//! Per-layer replays: a fixed, seed-derived sample of zones is pushed
//! through each layer's public API on its own, so the layer's cost can be
//! timed without spans inside the program. Each call is one span; the
//! metrics are reduced from the spans by name.

use crate::stats::fnv64;
use crate::trace::Tracer;
use bootscan::{report, ScanResults};
use dns_ecosystem::Ecosystem;
use dns_resolver::{validate_resolution, DnsClient, QueryMeter, Resolution, Resolver, RootHints};
use dns_server::AuthServer;
use dns_wire::record::RecordType;
use dns_wire::{Message, Name};
use netsim::Transport;
use scan_journal::{
    decode_event, encode_event, read_journal, recover, write_checkpoint, JournalSink, JOURNAL_FILE,
};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Counters a replay or a workload adds to the per-layer metrics.
pub type Counters = BTreeMap<&'static str, f64>;

/// The replay sample: the `n` seed zones that hash lowest under `seed`,
/// in canonical order. Fixed for a world and seed.
pub fn sample(seeds: &[Name], seed: u64, n: usize) -> Vec<Name> {
    let mut keyed: Vec<(u64, &Name)> = seeds
        .iter()
        .map(|z| {
            let mut key = seed.to_le_bytes().to_vec();
            key.extend_from_slice(&z.to_wire());
            (fnv64(&key), z)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.canonical_cmp(b.1)));
    let mut out: Vec<Name> = keyed.into_iter().take(n).map(|(_, z)| z.clone()).collect();
    out.sort_by(|a, b| a.canonical_cmp(b));
    out
}

/// Resolver, validator, network, server and wire replays over `sample`.
pub fn network_layers(
    eco: &Ecosystem,
    sample: &[Name],
    t: &Tracer,
    parent: Option<u64>,
    out: &mut Counters,
) {
    let client = Arc::new(DnsClient::new(Arc::clone(&eco.net)));
    let hints = RootHints {
        addrs: eco.roots.clone(),
    };

    // Cold: a fresh resolver (empty caches) per resolve.
    let (mut cold_queries, mut cold_ok) = (0u64, 0u64);
    for (i, zone) in sample.iter().enumerate() {
        let resolver = Resolver::new(Arc::clone(&client), hints.clone());
        let meter = QueryMeter::new(i as u64);
        let res = t.span(parent, "dns-resolver", "resolve_cold", |_| {
            resolver.resolve_at_with(Some(&meter), 0, zone, RecordType::Dnskey)
        });
        if res.is_ok() {
            cold_ok += 1;
            cold_queries += meter.logical_queries();
        }
    }

    // Warm: one resolver shared by the sample, after an untimed pass has
    // cached every cut the sample crosses.
    let warm = Resolver::new(Arc::clone(&client), hints);
    for zone in sample {
        let _ = warm.resolve(zone, RecordType::Dnskey);
    }
    let mut warm_queries = 0u64;
    let mut resolved: Vec<(&Name, Resolution)> = Vec::new();
    for (i, zone) in sample.iter().enumerate() {
        let meter = QueryMeter::new(i as u64);
        let res = t.span(parent, "dns-resolver", "resolve_warm", |_| {
            warm.resolve_at_with(Some(&meter), 0, zone, RecordType::Dnskey)
        });
        if let Ok(res) = res {
            warm_queries += meter.logical_queries();
            resolved.push((zone, res));
        }
    }
    for (_, res) in &resolved {
        t.span(parent, "dns-resolver", "validate", |_| {
            validate_resolution(&client, &eco.anchors, &eco.roots, res, eco.now)
        });
    }
    let per = |q: u64, n: u64| if n == 0 { 0.0 } else { q as f64 / n as f64 };
    out.insert(
        "dns-resolver.queries_per_resolve.cold",
        per(cold_queries, cold_ok),
    );
    out.insert(
        "dns-resolver.queries_per_resolve.warm",
        per(warm_queries, resolved.len() as u64),
    );

    // Network, server and wire: the DNSKEY and CDS queries the scanner
    // sends each zone, replayed against its first server.
    let servers: Vec<AuthServer> = eco
        .operator_stores
        .iter()
        .flatten()
        .map(|s| AuthServer::new(Arc::clone(s)))
        .collect();
    let mut reply_bytes: Vec<f64> = Vec::new();
    for (i, (zone, res)) in resolved.iter().enumerate() {
        let server = servers.iter().find(|s| s.store().get(zone).is_some());
        for qtype in [RecordType::Dnskey, RecordType::Cds] {
            let query = Message::query(i as u16, (*zone).clone(), qtype, true);
            if let Some(&addr) = res.zone_servers.first() {
                let payload = query.to_bytes();
                let _ = t.span(parent, "netsim", "exchange", |_| {
                    eco.net.query_at(0, addr, &payload, Transport::Udp)
                });
            }
            let Some(server) = server else { continue };
            let reply = t.span(parent, "dns-server", "answer", |_| server.answer(&query));
            let bytes = t.span(parent, "dns-wire", "encode", |_| reply.to_bytes());
            let _ = t.span(parent, "dns-wire", "decode", |_| {
                Message::from_bytes(&bytes)
            });
            reply_bytes.push(bytes.len() as f64);
        }
    }
    let mean = reply_bytes.iter().sum::<f64>() / reply_bytes.len().max(1) as f64;
    out.insert("dns-wire.reply_bytes.mean", mean);
}

/// Every `report::*` builder over one set of results, in one span.
pub fn reports(eco: &Ecosystem, results: &ScanResults, t: &Tracer, parent: Option<u64>) {
    let swiss: Vec<String> = eco
        .operators
        .iter()
        .filter(|o| o.swiss)
        .map(|o| o.name.clone())
        .collect();
    t.span(parent, "bootscan", "report", |_| {
        std::hint::black_box((
            report::figure1(results),
            report::table1(results, 20),
            report::table2(results, 20, &swiss),
            report::table3(results, &["Cloudflare", "deSEC", "Glauca Digital"]),
            report::cds_census(results),
            report::ab_potential(results),
            report::degradation(results),
        ));
    });
}

/// Files under `root`, recursively, with their sizes.
fn files_under(root: &Path, out: &mut Vec<(PathBuf, u64)>) -> io::Result<()> {
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            files_under(&entry.path(), out)?;
        } else {
            out.push((entry.path(), meta.len()));
        }
    }
    Ok(())
}

/// Size of a journal state root, then the journal read path replayed on
/// it: `recover` per journal directory, `encode_event`/`decode_event`
/// over the recovered events, and `write_checkpoint` of those events
/// into a scratch directory under `root`.
pub fn journal_layer(
    root: &Path,
    zones: u64,
    t: &Tracer,
    parent: Option<u64>,
    out: &mut Counters,
) -> io::Result<()> {
    let mut files = Vec::new();
    files_under(root, &mut files)?;
    let bytes: u64 = files.iter().map(|(_, len)| len).sum();
    out.insert("scan-journal.files", files.len() as f64);
    out.insert(
        "scan-journal.state_bytes_per_zone",
        bytes as f64 / zones.max(1) as f64,
    );

    let mut dirs: Vec<PathBuf> = files
        .iter()
        .filter(|(p, _)| p.file_name().is_some_and(|n| n == JOURNAL_FILE))
        .filter_map(|(p, _)| p.parent().map(Path::to_path_buf))
        .collect();
    dirs.sort();
    // Inside the root, which the caller removes; made after the walk
    // above, so it is not counted.
    let scratch = root.join("checkpoint-replay");
    let (mut events, mut encode_ns, mut decode_ns) = (0u64, 0u64, 0u64);
    for dir in &dirs {
        let Some(header) = read_journal(&dir.join(JOURNAL_FILE))?.header else {
            continue;
        };
        let recovery = t.span(parent, "scan-journal", "recover", |_| recover(dir, header))?;
        let start = std::time::Instant::now();
        let encoded: Vec<Vec<u8>> = recovery
            .events
            .iter()
            .map(|(_, e)| encode_event(e))
            .collect();
        let mid = std::time::Instant::now();
        for bytes in &encoded {
            decode_event(bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        }
        let end = std::time::Instant::now();
        t.record(parent, "scan-journal", "encode_events", start, mid);
        t.record(parent, "scan-journal", "decode_events", mid, end);
        encode_ns += (mid - start).as_nanos() as u64;
        decode_ns += (end - mid).as_nanos() as u64;
        events += recovery.events.len() as u64;
        std::fs::create_dir_all(&scratch)?;
        t.span(parent, "scan-journal", "checkpoint", |_| {
            write_checkpoint(
                &scratch,
                header,
                &recovery.events,
                JournalSink::DEFAULT_SHARDS,
            )
        })?;
    }
    out.insert(
        "scan-journal.encode_ns_per_event",
        encode_ns as f64 / events.max(1) as f64,
    );
    out.insert(
        "scan-journal.decode_ns_per_event",
        decode_ns as f64 / events.max(1) as f64,
    );
    Ok(())
}
