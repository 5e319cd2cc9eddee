//! End-to-end benchmark of the OODB server at the 100k-object tier.
//!
//! ```text
//! cargo run --release --manifest-path bench100k/Cargo.toml -- \
//!     --workload <analytic|frontend|spill> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload replays a fixed request sequence generated from the
//! seed (its length set by `--seconds`, calibrated so that a run
//! measures about that long on a 2-vCPU machine) against
//! `generate(GenConfig::scaled(100_000))` with the same seed, through
//! `net::serve` and `wire::WireClient` over loopback TCP. Every response
//! is checked (see `check.rs`).
//!
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` a second, traced replay of the same
//! sequence wraps each layer's public entry point in a span, write
//! rounds on the server's shared state follow (see `writes.rs`), and the
//! line carries the per-layer metrics. Spans are written to
//! `bench100k/out/` when the run ends. Lines before the last start
//! with `#` and record the configuration and the tail percentiles.
//! `METRICS.md` gives the reason for each workload and which end-to-end
//! metric each per-layer metric should move.

mod check;
mod layers;
mod rng;
mod seq;
mod summary;
mod tcp;
mod trace;
mod writes;

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use oodb_catalog::Database;
use oodb_datagen::{generate, GenConfig};
use oodb_server::net::{self, ServeHandle};
use oodb_server::{CacheMetrics, QueryServer, ServerConfig, ServerShared};

use check::Chain;
use layers::{EngineCounts, Served};
use seq::{Request, Sizes, Skew, Template};
use summary::{latency, median, Sample, Tally};
use tcp::{Client, ClientRun, Outcome, Shadow};
use trace::Trace;
use writes::Writes;

/// Objects in the generated database (`GenConfig::scaled`).
const SCALE: usize = 100_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Per-query memory budget and global cap of `spill`: the cap admits
/// one query at a time.
const SPILL_BUDGET: usize = 256 * 1024;
/// Connections of the two-client workloads.
const CLIENTS: usize = 2;
/// Requests a frontend connection serves before it is replaced. A
/// placeholder: no measured connection lifetime backs the value.
const FRONTEND_RECYCLE: usize = 25;

/// Sequence-length calibration: measured seconds per unit of sequence
/// on a 2-vCPU machine.
const ANALYTIC_CYCLE_S: f64 = 4.1;
/// Per cycle on both connections of `spill`.
const SPILL_CYCLE_S: f64 = 12.2;
/// Per request on one frontend connection.
const FRONTEND_REQUEST_S: f64 = 0.15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Analytic,
    Frontend,
    Spill,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "analytic" => Workload::Analytic,
            "frontend" => Workload::Frontend,
            "spill" => Workload::Spill,
            _ => return None,
        })
    }

    /// The shipped defaults with only this workload's fields overridden.
    fn config(self) -> ServerConfig {
        let mut c = ServerConfig::default();
        match self {
            Workload::Analytic => {
                c.planner.parallelism = 2;
                c.planner.memory_budget = 0;
                c.cache_results = false;
            }
            Workload::Frontend => c.planner.parallelism = 1,
            Workload::Spill => {
                c.planner.parallelism = 1;
                c.planner.memory_budget = SPILL_BUDGET;
                c.global_memory_bytes = SPILL_BUDGET;
                c.cache_results = false;
            }
        }
        c
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a run prints.
struct Report {
    notes: Vec<String>,
    tally: Tally,
    metrics: Vec<Metric>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.wrong == 0,
            self.tally.attempted,
            self.tally.failed(),
            metrics.join(", ")
        );
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// VmHWM of this process (client and server both live here), in MiB.
fn peak_rss_mb() -> f64 {
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

fn gen_config(seed: u64) -> GenConfig {
    GenConfig {
        seed,
        ..GenConfig::scaled(SCALE)
    }
}

fn sizes(db: &Database) -> Sizes {
    let len = |e: &str| db.table(e).map_or(0, |t| t.len());
    Sizes {
        parts: len("PART"),
        suppliers: len("SUPPLIER"),
        deliveries: len("DELIVERY"),
    }
}

fn units(seconds: f64, per_unit: f64, min: usize) -> usize {
    ((seconds / per_unit).round() as usize).max(min)
}

/// A TCP workload's requests per connection, its warm-ups (one per
/// template), its connection recycling, and whether the connections
/// step in lockstep.
struct Plan {
    per_client: Vec<Vec<Request>>,
    warmups: Vec<Request>,
    recycle: Option<usize>,
    lockstep: bool,
}

/// The first request of each template in `requests`: the warm-ups.
fn one_per_template(requests: &[Request]) -> Vec<Request> {
    let mut seen = std::collections::BTreeSet::new();
    requests
        .iter()
        .filter(|r| seen.insert(r.template))
        .cloned()
        .collect()
}

fn tcp_plan(w: Workload, seed: u64, seconds: f64, db: &Database, skew: &Skew) -> Plan {
    let suppliers = db.table("SUPPLIER").expect("generated extent");
    let has_parts = |i: usize| {
        suppliers
            .row(i)
            .and_then(|t| t.get("parts"))
            .and_then(|p| p.as_set().ok())
            .is_some_and(|s| !s.is_empty())
    };
    match w {
        Workload::Analytic => {
            let all = seq::analytic(
                seed,
                units(seconds, ANALYTIC_CYCLE_S, 2),
                skew.suppliers.len(),
                has_parts,
            );
            Plan {
                warmups: one_per_template(&all),
                per_client: vec![all],
                recycle: None,
                lockstep: false,
            }
        }
        // Both connections send the same request at each step. The cap
        // admits one, and the other queues for the whole of its
        // execution, so every step measures one unqueued and one queued
        // run of the same query. Unsynchronised connections pair each
        // request with whatever part of another query happens to be
        // running, and the same seed's p50 moved by 40% between runs.
        Workload::Spill => {
            let all = seq::analytic(
                seed,
                units(seconds, SPILL_CYCLE_S, 1),
                skew.suppliers.len(),
                has_parts,
            );
            Plan {
                warmups: one_per_template(&all),
                per_client: vec![all; CLIENTS],
                recycle: None,
                lockstep: true,
            }
        }
        Workload::Frontend => {
            let n = units(seconds, FRONTEND_REQUEST_S, 1);
            Plan {
                per_client: (0..CLIENTS)
                    .map(|c| seq::frontend(seed, c, n, skew))
                    .collect(),
                warmups: seq::FRONTEND.iter().map(|&t| skew.coldest(t)).collect(),
                recycle: Some(FRONTEND_RECYCLE),
                lockstep: false,
            }
        }
    }
}

/// A listening server with connected, warmed-up clients.
struct Live {
    handle: ServeHandle,
    clients: Vec<Client>,
    /// Connect to first answer, per client.
    connect_ns: Vec<u64>,
}

fn start(
    db: &Arc<Database>,
    config: &ServerConfig,
    clients: usize,
    warmups: &[Request],
) -> io::Result<Live> {
    let handle = net::serve(Arc::clone(db), config.clone(), "127.0.0.1:0")?;
    let mut live = Live {
        clients: Vec::with_capacity(clients),
        connect_ns: Vec::with_capacity(clients),
        handle,
    };
    for _ in 0..clients {
        let t0 = Instant::now();
        let mut c = tcp::connect(live.handle.addr())?;
        tcp::warm_up(std::slice::from_mut(&mut c), &[])?;
        live.connect_ns.push(t0.elapsed().as_nanos() as u64);
        live.clients.push(c);
    }
    tcp::warm_up(&mut live.clients, warmups)?;
    Ok(live)
}

/// Replays every connection's requests concurrently, one thread each.
fn pass(
    addr: SocketAddr,
    clients: Vec<Client>,
    plan: &Plan,
    shadow: Option<&Shadow<'_>>,
) -> io::Result<(Vec<ClientRun>, u64)> {
    let lockstep = plan.lockstep.then(|| Barrier::new(plan.per_client.len()));
    let lockstep = lockstep.as_ref();
    let t0 = Instant::now();
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&plan.per_client)
            .enumerate()
            .map(|(c, (client, reqs))| {
                s.spawn(move || {
                    let base = (c as u64) << 32;
                    tcp::run_client(addr, client, reqs, plan.recycle, lockstep, base, shadow)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok((runs, t0.elapsed().as_nanos() as u64))
}

/// Judges each outcome: `(errored, wrong)`.
fn judge(outcome: &Outcome, expected: Option<u64>, chain: Option<&Chain>) -> (bool, bool) {
    let errored = outcome.response.error.is_some();
    let wrong =
        !errored && (expected != Some(outcome.response.digest) || chain != Some(&Chain::Agrees));
    (errored, wrong)
}

/// Expected digests for every outcome of a TCP workload, plus the
/// nested-loop chain per template of the outcomes and of `more`.
fn expectations(
    w: Workload,
    seed: u64,
    db: &Database,
    config: &ServerConfig,
    outcomes: &[&Outcome],
    more: &[Request],
) -> (Vec<Option<u64>>, BTreeMap<Template, Chain>) {
    let requests: Vec<Request> = outcomes.iter().map(|o| o.request.clone()).collect();
    let templates: Vec<Request> = requests.iter().chain(more).cloned().collect();
    // The two references are independent: build them side by side.
    let (mut chain, expected) = std::thread::scope(|s| {
        let chain = s.spawn(|| check::naive_chain(seed, config, &templates));
        let expected = references(w, db, config, &requests);
        (chain.join().expect("nested-loop check panicked"), expected)
    });
    if let Some(differs) = expected.1 {
        chain.insert(differs, Chain::Differs);
    }
    (expected.0, chain)
}

/// Expected digests per request; for the frontend also a template
/// whose oracle disagrees with the serial server.
fn references(
    w: Workload,
    db: &Database,
    config: &ServerConfig,
    requests: &[Request],
) -> (Vec<Option<u64>>, Option<Template>) {
    if w == Workload::Frontend {
        let oracle = check::Oracle::new(db);
        // Once per template, the oracle itself is checked against the
        // serial server: the template's first request stands for it.
        let mut seen = BTreeMap::new();
        for r in requests {
            seen.entry(r.template).or_insert_with(|| r.clone());
        }
        let refs = check::session_references(db, config, seen.values());
        let differs = seen.iter().find_map(|(t, r)| {
            let oracle_digest = oracle.answer(r).map(|v| check::digest_value(&v));
            (refs.get(&r.text).and_then(|x| x.ok()) != oracle_digest).then_some(*t)
        });
        let expected = requests
            .iter()
            .map(|r| oracle.answer(r).map(|v| check::digest_value(&v)))
            .collect();
        (expected, differs)
    } else {
        let refs = check::session_references(db, config, requests);
        let expected = requests
            .iter()
            .map(|r| refs.get(&r.text).and_then(|x| x.ok()))
            .collect();
        (expected, None)
    }
}

/// Records every outcome in `tally`; returns which were answered with
/// the reference rows.
fn tally_outcomes(
    outcomes: &[&Outcome],
    expected: &[Option<u64>],
    chain: &BTreeMap<Template, Chain>,
    tally: &mut Tally,
) -> Vec<bool> {
    outcomes
        .iter()
        .zip(expected)
        .map(|(o, e)| {
            let (errored, wrong) = judge(o, *e, chain.get(&o.request.template));
            tally.record(errored, wrong);
            !errored && !wrong
        })
        .collect()
}

/// Median latency of each template's successful requests.
fn per_template(outcomes: &[&Outcome], ok: &[bool]) -> String {
    let mut by: BTreeMap<Template, Vec<f64>> = BTreeMap::new();
    for (o, _) in outcomes.iter().zip(ok).filter(|(_, &ok)| ok) {
        by.entry(o.request.template)
            .or_default()
            .push(ms(o.response.latency_ns));
    }
    let parts: Vec<String> = by
        .iter()
        .map(|(t, xs)| format!("{t:?} {:.1} ms (n={})", median(xs), xs.len()))
        .collect();
    format!("per-template p50: {}", parts.join(", "))
}

/// Latency, TTFB and failure samples of one pass. A failed request's
/// latency is the pass's wall time, so it ranks slowest.
fn samples(outcomes: &[&Outcome], ok: &[bool]) -> (Vec<Sample>, Vec<Sample>) {
    outcomes
        .iter()
        .zip(ok)
        .map(|(o, &ok)| {
            (
                Sample {
                    ms: ms(o.response.latency_ns),
                    ok,
                },
                Sample {
                    ms: ms(o.response.ttfb_ns),
                    ok,
                },
            )
        })
        .unzip()
}

/// The end-to-end metrics of a pass, in `BENCHMARK.json` order.
fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    lat: &[Sample],
    ttfb: &[Sample],
    wall_ns: u64,
    rss_mb: f64,
) {
    let tally = report.tally;
    let failed_ms = ms(wall_ns);
    let l = latency(lat, failed_ms);
    let t = latency(ttfb, failed_ms);
    let completed = lat.iter().filter(|s| s.ok).count();
    report.notes.push(format!(
        "query_tail_ms is p{} of {} requests ({} successes beyond it); query_p50_ms {:.3}; \
         failed_share {} ({} errored, {} wrong rows of {})",
        l.tail_pct,
        l.samples,
        l.tail_beyond,
        l.p50_ms,
        tally.failed_share(),
        tally.errored,
        tally.wrong,
        tally.attempted
    ));
    report.notes.push(format!(
        "setup_s runs {setup_s:?}; timed wall {:.3} s",
        wall_ns as f64 / 1e9
    ));
    report.metric("setup_s", median(setup_s), "s");
    report.metric("query_p50_ms", l.p50_ms, "ms");
    report.metric("query_tail_ms", l.tail_ms, "ms");
    report.metric("ttfb_p50_ms", t.p50_ms, "ms");
    report.metric(
        "throughput_qps",
        completed as f64 / (wall_ns as f64 / 1e9),
        "1/s",
    );
    report.metric("peak_rss_mb", rss_mb, "MiB");
    report.metric("ok_share", tally.ok_share(), "share");
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The median, or 0 when there is nothing to take it of.
fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Inputs of the per-layer metrics, gathered by a traced pass and the
/// write rounds after it.
struct LayerInputs {
    trace: Trace,
    engine: Vec<EngineCounts>,
    generate_s: f64,
    /// The TCP server's cache counters over the traced replay.
    cache: CacheMetrics,
    writes: Writes,
    high_water: usize,
    connect_ns: Vec<u64>,
    served: BTreeMap<u64, Served>,
    chunk_bytes: u64,
    rows: u64,
    traced: Vec<Sample>,
    /// Request ids of `traced`, in the same order.
    traced_ids: Vec<u64>,
    untraced: Vec<Sample>,
    failed_ms: f64,
}

fn per_layer(report: &mut Report, t: &LayerInputs) {
    let per = t.trace.per_request();
    type Spans<'a> = BTreeMap<&'a str, (u64, u64, u64)>;
    // A request's summed inclusive time in spans `name`, in ms.
    let incl = |m: &Spans<'_>, name: &str| m.get(name).map_or(0.0, |x| ms(x.0));
    // Median over the requests a span occurs in, of its summed
    // inclusive or self time, in ms.
    let med = |name: &str, self_time: bool| {
        let xs: Vec<f64> = per
            .values()
            .filter_map(|m| m.get(name))
            .map(|&(incl, own, _)| ms(if self_time { own } else { incl }))
            .collect();
        median_or_zero(&xs)
    };
    // Median over single spans (not summed per request).
    let span_med = |name: &str| {
        let xs: Vec<f64> = t
            .trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.dur_ns()))
            .collect();
        median_or_zero(&xs)
    };
    // The socket's share of a request: what its round trip leaves after
    // the mirror's server time and the client's decoding, clamped at
    // zero. A residual, so it cannot show that the accounting holds.
    let stall = |m: &Spans<'_>| {
        let rt = ms(m.get("net.roundtrip")?.0);
        Some(
            (rt - incl(m, "wire.decode") - incl(m, "server.open") - incl(m, "server.drain"))
                .max(0.0),
        )
    };
    let stalls: Vec<f64> = per.values().filter_map(stall).collect();
    // The engine layers the server ran for a request, timed on the
    // engine path. A request that failed to open ran all it got to.
    let engine_ms = |id: &u64, m: &Spans<'_>| -> f64 {
        let served = t.served.get(id).copied().unwrap_or(Served {
            plan_hit: false,
            result_hit: false,
        });
        served.engine_layers().iter().map(|n| incl(m, n)).sum()
    };
    // Per request the mirror served: its server time (encoding, timed
    // apart, left out) minus the engine layers that should make it up.
    let gaps: Vec<f64> = per
        .iter()
        .filter(|(id, _)| t.served.contains_key(id))
        .map(|(id, m)| {
            incl(m, "server.open") + incl(m, "server.drain")
                - incl(m, "wire.encode")
                - engine_ms(id, m)
        })
        .collect();
    // Each request rebuilt from its layers (stall, decoding, encoding,
    // engine layers), ranked like its latency. It differs from the
    // round trip by the request's gap, so it can miss the latency.
    let accounted_samples: Vec<Sample> = t
        .traced_ids
        .iter()
        .zip(&t.traced)
        .map(|(id, s)| {
            let ms = per.get(id).map_or(0.0, |m| {
                stall(m).unwrap_or(0.0)
                    + incl(m, "wire.decode")
                    + incl(m, "wire.encode")
                    + engine_ms(id, m)
            });
            Sample { ms, ok: s.ok }
        })
        .collect();
    let accounted = latency(&accounted_samples, t.failed_ms).p50_ms;
    let traced = latency(&t.traced, t.failed_ms);
    let untraced = latency(&t.untraced, t.failed_ms);
    let overhead = traced.p50_ms - untraced.p50_ms;
    let engine_mean = |f: fn(&EngineCounts) -> u64| {
        if t.engine.is_empty() {
            0.0
        } else {
            t.engine.iter().map(f).sum::<u64>() as f64 / t.engine.len() as f64
        }
    };
    let joinorder: Vec<f64> = t.engine.iter().map(|c| c.joinorder_us as f64).collect();
    let connect: Vec<f64> = t.connect_ns.iter().map(|&n| ms(n)).collect();

    report.metric("datagen.generate_s", t.generate_s, "s");
    report.metric("catalog.stats_ms", span_med("catalog.stats"), "ms");
    report.metric(
        "catalog.extent_clone_ms",
        med("catalog.extent_clone", false),
        "ms",
    );
    report.metric("catalog.insert_us", span_med("catalog.insert") * 1e3, "us");
    report.metric("oosql.parse_us", med("oosql.parse", false) * 1e3, "us");
    report.metric(
        "oosql.typecheck_us",
        med("oosql.typecheck", false) * 1e3,
        "us",
    );
    report.metric(
        "translate.translate_us",
        med("translate.translate", false) * 1e3,
        "us",
    );
    report.metric("core.rewrite_us", med("core.rewrite", false) * 1e3, "us");
    report.metric("engine.plan_us", med("engine.plan", false) * 1e3, "us");
    report.metric("engine.joinorder_us", median_or_zero(&joinorder), "us");
    report.metric("engine.exec_ms", med("engine.exec", false), "ms");
    report.metric(
        "engine.first_batch_ms",
        med("engine.first_batch", false),
        "ms",
    );
    report.metric("engine.work", engine_mean(|c| c.work), "count");
    report.metric(
        "engine.rows_scanned",
        engine_mean(|c| c.rows_scanned),
        "count",
    );
    report.metric("engine.batches", engine_mean(|c| c.batches), "count");
    report.metric(
        "engine.max_batch_rows",
        t.engine.iter().map(|c| c.max_batch_rows).max().unwrap_or(0) as f64,
        "count",
    );
    report.metric("spill.bytes", engine_mean(|c| c.spill_bytes), "bytes");
    report.metric(
        "spill.partitions",
        engine_mean(|c| c.spill_partitions),
        "count",
    );
    report.metric(
        "server.write_visible_ms",
        median_or_zero(&t.writes.write_ms),
        "ms",
    );
    report.metric("server.reread_ms", span_med("server.reread"), "ms");
    report.metric("server.open_ms", med("server.open", false), "ms");
    report.metric("server.drain_ms", med("server.drain", false), "ms");
    report.metric(
        "server.plan_hit_ratio",
        ratio(t.cache.plan_hits, t.cache.plan_hits + t.cache.plan_misses),
        "ratio",
    );
    report.metric(
        "server.result_hit_ratio",
        ratio(
            t.cache.result_hits,
            t.cache.result_hits + t.cache.result_misses,
        ),
        "ratio",
    );
    report.metric(
        "server.plan_invalidations",
        t.writes.cache.plan_invalidations as f64,
        "count",
    );
    report.metric(
        "server.budget_high_water_bytes",
        t.high_water as f64,
        "bytes",
    );
    report.metric("wire.encode_ms", med("wire.encode", false), "ms");
    report.metric("wire.decode_ms", med("wire.decode", false), "ms");
    report.metric("wire.bytes_per_row", ratio(t.chunk_bytes, t.rows), "bytes");
    report.metric("net.roundtrip_ms", med("net.roundtrip", false), "ms");
    report.metric("net.stall_ms", median_or_zero(&stalls), "ms");
    report.metric("net.connect_ms", median_or_zero(&connect), "ms");
    report.metric("trace.untraced_p50_ms", untraced.p50_ms, "ms");
    report.metric("trace.traced_p50_ms", traced.p50_ms, "ms");
    report.metric("trace.overhead_ms", overhead, "ms");
    report.metric("trace.accounted_ms", accounted, "ms");
    report.metric("trace.engine_gap_ms", median_or_zero(&gaps), "ms");

    // Self times and counts per layer, for the record.
    let mut names: Vec<&str> = t.trace.spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for n in names {
        let spans = t.trace.spans.iter().filter(|s| s.name == n).count();
        report.notes.push(format!(
            "layer {n}: {spans} spans, median per request {:.4} ms inclusive, {:.4} ms self",
            med(n, false),
            med(n, true)
        ));
    }
    let miss = (accounted - untraced.p50_ms).abs();
    report.notes.push(format!(
        "accounting {}: layers sum to {accounted:.3} ms at p50, {miss:.3} ms from the \
         untraced p50 {:.3} ms, against a tracing overhead of {overhead:.3} ms (traced p50 \
         {:.3} ms); server time minus engine layers per request, median {:.3} ms",
        if miss <= overhead.abs() {
            "holds"
        } else {
            "fails"
        },
        untraced.p50_ms,
        traced.p50_ms,
        median_or_zero(&gaps),
    ));
    report.notes.push(format!(
        "cache over the traced replay {:?}; over the write rounds {:?}",
        t.cache, t.writes.cache
    ));
}

/// Where spill files and the span dump go: inside the benchmark's own
/// directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_spans(args: &Args, trace: &Trace) -> io::Result<PathBuf> {
    let path = out_dir().join(format!(
        "spans-{}-seed{}.jsonl",
        format!("{:?}", args.workload).to_lowercase(),
        args.seed
    ));
    let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
    trace.write_jsonl(&mut f)?;
    io::Write::flush(&mut f)?;
    Ok(path)
}

/// What a traced replay gathered.
struct TracedPass {
    outcomes: Vec<Outcome>,
    trace: Trace,
    engine: Vec<EngineCounts>,
    served: BTreeMap<u64, Served>,
    connect_ns: Vec<u64>,
    /// The TCP server's shared state, kept for the write rounds.
    shared: Arc<ServerShared>,
    cache: CacheMetrics,
    high_water: usize,
}

/// Replays the sequence on a fresh server and connections, so it starts
/// from the same cache state as the untraced pass, and traces every
/// request: its TCP round trip, then its in-process mirror.
fn traced_pass(db: &Arc<Database>, config: &ServerConfig, plan: &Plan) -> io::Result<TracedPass> {
    let live = start(db, config, plan.per_client.len(), &plan.warmups)?;
    let shadow = Shadow {
        db: db.as_ref(),
        config: config.clone(),
        shared: ServerShared::new(config),
        epoch: Instant::now(),
    };
    {
        let server = QueryServer::with_shared(db, config.clone(), Arc::clone(&shadow.shared));
        let session = server.session();
        for r in &plan.warmups {
            let _ = session.run(&r.text);
        }
    }
    let shared = live.handle.shared();
    let before = shared.metrics();
    let (runs, _) = pass(live.handle.addr(), live.clients, plan, Some(&shadow))?;
    let cache = writes::cache_delta(before, shared.metrics());
    let high_water = shared.budget_pool().high_water();
    live.handle.shutdown();
    let mut traced = TracedPass {
        outcomes: Vec::new(),
        trace: Trace::new(shadow.epoch),
        engine: Vec::new(),
        served: BTreeMap::new(),
        connect_ns: live.connect_ns,
        shared,
        cache,
        high_water,
    };
    for r in runs {
        traced
            .trace
            .absorb(r.trace.expect("traced pass records spans"));
        traced.engine.extend(r.engine);
        traced.served.extend(r.served);
        traced.connect_ns.extend(r.connect_ns);
        traced.outcomes.extend(r.outcomes);
    }
    Ok(traced)
}

fn run(args: &Args, report: &mut Report) -> io::Result<()> {
    let w = args.workload;
    let config = w.config();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut generate_s = 0.0;
    let mut ready = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let db = Arc::new(generate(&gen_config(args.seed)));
        generate_s = t0.elapsed().as_secs_f64();
        let skew = Skew::new(args.seed, sizes(&db).suppliers, sizes(&db).parts);
        let plan = tcp_plan(w, args.seed, args.seconds, &db, &skew);
        let live = start(&db, &config, plan.per_client.len(), &plan.warmups)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 == reps {
            ready = Some((db, skew, plan, live));
        } else {
            drop(live.clients);
            live.handle.shutdown();
        }
    }
    let (db, skew, plan, live) = ready.expect("at least one set-up");
    let addr = live.handle.addr();
    let (runs, wall_ns) = pass(addr, live.clients, &plan, None)?;
    let rss = peak_rss_mb();
    live.handle.shutdown();
    let untraced: Vec<Outcome> = runs.into_iter().flat_map(|r| r.outcomes).collect();
    let mut traced = match args.trace {
        true => Some(traced_pass(&db, &config, &plan)?),
        false => None,
    };
    let traced_outcomes = traced
        .as_mut()
        .map(|t| std::mem::take(&mut t.outcomes))
        .unwrap_or_default();

    // Checks: every response of every pass against its reference, on
    // the generated database (the write rounds come after).
    let all: Vec<&Outcome> = untraced.iter().chain(&traced_outcomes).collect();
    let rereads = match args.trace {
        true => seq::rereads(&skew),
        false => Vec::new(),
    };
    let (expected, chain) = expectations(w, args.seed, &db, &config, &all, &rereads);
    let mut tally = Tally::default();
    let ok = tally_outcomes(&all, &expected, &chain, &mut tally);
    report.notes.push(format!(
        "nested-loop chain at scale {}: {chain:?}",
        check::NAIVE_SCALE
    ));
    let n = untraced.len();
    report.notes.push(per_template(&all[..n], &ok[..n]));
    let (lat, ttfb) = samples(&all[..n], &ok[..n]);
    let Some(traced) = traced else {
        report.tally = tally;
        end_to_end(report, &setup_s, &lat, &ttfb, wall_ns, rss);
        return Ok(());
    };

    let (traced_lat, _) = samples(&all[n..], &ok[n..]);
    let traced_ids = all[n..].iter().map(|o| o.id).collect();
    let (chunk_bytes, rows) = all[n..].iter().fold((0, 0), |(b, r), o| {
        (b + o.response.chunk_bytes, r + o.response.rows)
    });
    let TracedPass {
        mut trace,
        engine,
        served,
        connect_ns,
        shared,
        cache,
        high_water,
        ..
    } = traced;
    let mut db =
        Arc::try_unwrap(db).map_err(|_| io::Error::other("server still holds the database"))?;
    let sizes = sizes(&db);
    let writes = writes::rounds(
        &mut db, sizes, &config, &shared, args.seed, &skew, &mut trace,
    );
    for (o, wrong) in &writes.rereads {
        let errored = o.response.error.is_some();
        let wrong = *wrong || (!errored && chain.get(&o.request.template) != Some(&Chain::Agrees));
        tally.record(errored, wrong);
    }
    report.tally = tally;
    report.notes.push(format!(
        "write rounds on the TCP server's shared state: {:.3?} ms each; {} re-reads, {} wrong \
         against a fresh server",
        writes.write_ms,
        writes.rereads.len(),
        writes.rereads.iter().filter(|(_, wrong)| *wrong).count()
    ));
    let path = write_spans(args, &trace)?;
    report
        .notes
        .push(format!("spans written to {}", path.display()));
    per_layer(
        report,
        &LayerInputs {
            trace,
            engine,
            generate_s,
            cache,
            writes,
            high_water,
            connect_ns,
            served,
            chunk_bytes,
            rows,
            traced: traced_lat,
            traced_ids,
            untraced: lat,
            failed_ms: ms(wall_ns),
        },
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench100k: {e}");
            std::process::exit(2);
        }
    };
    // Measure the shipped defaults: no OODB_* override from the
    // environment reaches any configuration built below.
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("OODB_"))
        .collect();
    for k in &overrides {
        std::env::remove_var(k);
    }
    // Spill files stay inside the benchmark's directory.
    let tmp = out_dir().join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("bench100k: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", &tmp);

    let mut report = Report {
        notes: vec![
            format!(
                "workload {:?} seed {} seconds {} trace {} scale {SCALE} nproc {}",
                args.workload,
                args.seed,
                args.seconds,
                args.trace as u8,
                std::thread::available_parallelism().map_or(1, |n| n.get())
            ),
            format!("effective {:?}", args.workload.config()),
            format!("OODB_* variables removed from the environment: {overrides:?}"),
        ],
        tally: Tally::default(),
        metrics: Vec::new(),
    };
    let result = run(&args, &mut report);
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(()) => report.print(),
        Err(e) => {
            eprintln!("bench100k: {e}");
            std::process::exit(1);
        }
    }
}
