//! Write rounds on a server's shared state. The wire protocol is
//! read-only, so writes go through `Database::insert` and a
//! `QueryServer` rebuilt on the same `ServerShared`; the reads after
//! each round then find their cached plans and results invalidated and
//! replan. Every re-read is checked against a server on fresh shared
//! state.

use std::sync::Arc;
use std::time::Instant;

use oodb_catalog::Database;
use oodb_server::{CacheMetrics, QueryServer, ServerConfig, ServerShared, Session};
use oodb_value::Value;

use crate::check::{digest_rows, digest_value};
use crate::seq::{self, Sizes, Skew};
use crate::tcp::{Outcome, Response};
use crate::trace::Trace;

/// Write rounds a traced run times after its replay.
pub const ROUNDS: usize = 5;

/// Span request ids of the write rounds: above every replay's ids.
const ID_BASE: u64 = 1 << 62;

/// One read through the session's cursor API, timed like a TCP
/// request: latency from `open_stream` to the last chunk, time to
/// first chunk at the first `next_chunk` that yields.
pub fn read(session: &Session<'_, '_>, text: &str) -> Response {
    let start = Instant::now();
    let mut rows: Vec<Value> = Vec::new();
    let mut ttfb_ns = None;
    let (error, scalar) = match session.open_stream(text) {
        Err(e) => (Some((e.code().as_u16(), e.to_string())), false),
        Ok(mut cursor) => {
            let scalar = cursor.scalar();
            let error = loop {
                match cursor.next_chunk() {
                    Ok(Some(batch)) => {
                        ttfb_ns.get_or_insert(start.elapsed().as_nanos() as u64);
                        rows.extend(batch.into_values());
                    }
                    Ok(None) => break None,
                    Err(e) => break Some((e.code().as_u16(), e.to_string())),
                }
            };
            (error, scalar)
        }
    };
    let latency_ns = start.elapsed().as_nanos() as u64;
    Response {
        ttfb_ns: ttfb_ns.unwrap_or(latency_ns),
        first_frame_ns: ttfb_ns.unwrap_or(latency_ns),
        latency_ns,
        rows: rows.len() as u64,
        chunk_bytes: 0,
        digest: if error.is_none() {
            digest_rows(scalar, rows)
        } else {
            0
        },
        error,
    }
}

/// What the write rounds measured.
pub struct Writes {
    /// Inserts plus the rebuilt server, per round, in ms.
    pub write_ms: Vec<f64>,
    /// Every re-read, with `wrong` marking a result that differs from
    /// a fresh server's.
    pub rereads: Vec<(Outcome, bool)>,
    /// Cache counters of `shared` over the rounds.
    pub cache: CacheMetrics,
}

/// Runs [`ROUNDS`] write rounds on `db` (of extent sizes `sizes`)
/// against `shared`. Each round inserts a seeded batch (spans
/// `catalog.insert`), rebuilds the server on `shared` (`server.rebuild`,
/// which rescans the statistics) and re-reads [`seq::rereads`]
/// (`server.reread`, untraced inside).
pub fn rounds(
    db: &mut Database,
    sizes: Sizes,
    config: &ServerConfig,
    shared: &Arc<ServerShared>,
    seed: u64,
    skew: &Skew,
    trace: &mut Trace,
) -> Writes {
    let reads = seq::rereads(skew);
    let before = shared.metrics();
    let mut out = Writes {
        write_ms: Vec::with_capacity(ROUNDS),
        rereads: Vec::with_capacity(ROUNDS * reads.len()),
        cache: before,
    };
    for round in 0..ROUNDS {
        let round_id = ID_BASE + ((round as u64) << 8);
        let root = trace.begin("round", round_id, None);
        for (extent, tuple) in seq::write_batch(seed, round, sizes, skew) {
            trace
                .span("catalog.insert", round_id, Some(root), || {
                    db.insert(extent, tuple)
                })
                .expect("generated object conforms");
        }
        let db: &Database = db;
        let server = trace.span("server.rebuild", round_id, Some(root), || {
            QueryServer::with_shared(db, config.clone(), Arc::clone(shared))
        });
        trace.end(root);
        out.write_ms.push(trace.spans[root].dur_ns() as f64 / 1e6);
        let session = server.session();
        let responses: Vec<(u64, Response)> = reads
            .iter()
            .enumerate()
            .map(|(k, r)| {
                let id = round_id + k as u64 + 1;
                (
                    id,
                    trace.span("server.reread", id, None, || read(&session, &r.text)),
                )
            })
            .collect();
        // Untimed: the same reads on a server with fresh shared state.
        let fresh = QueryServer::with_config(db, config.clone());
        let session = fresh.session();
        for (r, (id, response)) in reads.iter().zip(responses) {
            let expected = session.run(&r.text).map(|o| digest_value(&o.result)).ok();
            let wrong = response.error.is_none() && expected != Some(response.digest);
            let outcome = Outcome {
                id,
                request: r.clone(),
                response,
            };
            out.rereads.push((outcome, wrong));
        }
    }
    out.cache = cache_delta(before, shared.metrics());
    out
}

/// The counters `after` gained over `before`.
pub fn cache_delta(before: CacheMetrics, after: CacheMetrics) -> CacheMetrics {
    CacheMetrics {
        plan_hits: after.plan_hits - before.plan_hits,
        plan_misses: after.plan_misses - before.plan_misses,
        plan_invalidations: after.plan_invalidations - before.plan_invalidations,
        result_hits: after.result_hits - before.result_hits,
        result_misses: after.result_misses - before.result_misses,
    }
}
