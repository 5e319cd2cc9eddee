//! The TCP workloads' client side: a plain `TcpStream` (no
//! `set_nodelay`, no buffering) wrapped in the shipped `WireClient`, so
//! the socket behaviour measured is the one the shipped client and
//! server produce.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use oodb_catalog::Database;
use oodb_engine::PlannerConfig;
use oodb_server::wire::{self, kind, verb, WireClient};
use oodb_server::{QueryServer, ServerConfig, ServerShared};
use oodb_value::Value;

use crate::check::digest_rows;
use crate::layers::{self, EngineCounts, Served};
use crate::seq::Request;
use crate::trace::Trace;

pub type Client = WireClient<TcpStream>;

pub fn connect(addr: SocketAddr) -> io::Result<Client> {
    Ok(WireClient::new(TcpStream::connect(addr)?))
}

/// One answered request, as the client saw it.
#[derive(Debug, Clone)]
pub struct Response {
    /// The ERROR frame's code and message, if the server failed it.
    pub error: Option<(u16, String)>,
    /// Send until the last row is decoded (or the ERROR frame arrives).
    pub latency_ns: u64,
    /// Send until the first CHUNK frame arrives (END when no rows).
    pub ttfb_ns: u64,
    /// Send until the first response frame of any kind arrives.
    pub first_frame_ns: u64,
    pub rows: u64,
    /// CHUNK body bytes received.
    pub chunk_bytes: u64,
    /// Canonical digest of the reassembled result.
    pub digest: u64,
}

/// Spans to record around a request, when tracing.
pub struct Traced<'t> {
    pub trace: &'t mut Trace,
    pub request: u64,
    pub parent: Option<usize>,
}

/// Sends one QUERY and reads its HEADER / CHUNK* / END (or ERROR)
/// response through the client's public frame API. The clock stops at
/// the last decoded row; the digest is taken after that.
pub fn query(
    client: &mut Client,
    tag: u32,
    text: &str,
    mut traced: Option<Traced<'_>>,
) -> io::Result<Response> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let roundtrip = traced
        .as_mut()
        .map(|t| t.trace.begin("net.roundtrip", t.request, t.parent));
    let start = Instant::now();
    client.send(tag, verb::QUERY, text.as_bytes())?;
    let mut rows: Vec<Value> = Vec::new();
    let (mut scalar, mut chunk_bytes) = (false, 0u64);
    let (mut first_frame_ns, mut ttfb_ns) = (None, None);
    let error = loop {
        let frame = client
            .read_frame()?
            .ok_or_else(|| bad("connection closed mid-response".into()))?;
        let now = start.elapsed().as_nanos() as u64;
        first_frame_ns.get_or_insert(now);
        if frame.tag != tag {
            return Err(bad(format!("response tag {} for request {tag}", frame.tag)));
        }
        match frame.kind {
            kind::HEADER => {
                scalar = frame
                    .body
                    .first()
                    .is_some_and(|f| f & wire::flags::SCALAR != 0)
            }
            kind::CHUNK => {
                ttfb_ns.get_or_insert(now);
                chunk_bytes += frame.body.len() as u64;
                let decoded = match traced.as_mut() {
                    Some(t) => t.trace.span("wire.decode", t.request, roundtrip, || {
                        wire::decode_chunk(&frame.body)
                    }),
                    None => wire::decode_chunk(&frame.body),
                };
                rows.extend(decoded.map_err(|e| bad(format!("bad chunk: {e}")))?);
            }
            kind::END => {
                let (end_rows, _) =
                    wire::decode_end(&frame.body).map_err(|e| bad(format!("bad END: {e}")))?;
                if end_rows != rows.len() as u64 {
                    return Err(bad(format!(
                        "END reports {end_rows} rows, {} received",
                        rows.len()
                    )));
                }
                ttfb_ns.get_or_insert(now);
                break None;
            }
            kind::ERROR => {
                break Some(
                    wire::decode_error(&frame.body).map_err(|e| bad(format!("bad ERROR: {e}")))?,
                );
            }
            other => return Err(bad(format!("unexpected frame kind {other}"))),
        }
    };
    let latency_ns = start.elapsed().as_nanos() as u64;
    if let (Some(t), Some(id)) = (traced.as_mut(), roundtrip) {
        t.trace.end(id);
    }
    let n = rows.len() as u64;
    Ok(Response {
        ttfb_ns: ttfb_ns.unwrap_or(latency_ns),
        first_frame_ns: first_frame_ns.unwrap_or(latency_ns),
        latency_ns,
        rows: n,
        chunk_bytes,
        digest: if error.is_none() {
            digest_rows(scalar, rows)
        } else {
            0
        },
        error,
    })
}

/// One request's record in a pass.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Request id: the span request id when traced.
    pub id: u64,
    pub request: Request,
    pub response: Response,
}

/// What one client thread did in a pass.
pub struct ClientRun {
    pub outcomes: Vec<Outcome>,
    /// Connect to first answer, per connection opened during the pass.
    pub connect_ns: Vec<u64>,
    pub trace: Option<Trace>,
    pub engine: Vec<EngineCounts>,
    /// Per traced request id, what the mirror server served from cache
    /// (absent when the request failed to open).
    pub served: Vec<(u64, Served)>,
}

/// The in-process mirror a traced pass runs each request through after
/// its TCP round trip: a server on separate shared state (so the TCP
/// server's caches are untouched) plus the layer-by-layer engine path.
pub struct Shadow<'db> {
    pub db: &'db Database,
    pub config: ServerConfig,
    pub shared: Arc<ServerShared>,
    pub epoch: Instant,
}

/// Replays `requests` on one connection in a closed loop. With
/// `recycle`, the connection is replaced after that many requests; the
/// first request on a new connection pays the server's per-connection
/// set-up. With `lockstep`, every connection sends its `i`-th request
/// only once all have received their `i - 1`-th response. With a
/// shadow, every request is traced.
pub fn run_client(
    addr: SocketAddr,
    mut client: Client,
    requests: &[Request],
    recycle: Option<usize>,
    lockstep: Option<&Barrier>,
    request_base: u64,
    shadow: Option<&Shadow<'_>>,
) -> io::Result<ClientRun> {
    let mut run = ClientRun {
        outcomes: Vec::with_capacity(requests.len()),
        connect_ns: Vec::new(),
        trace: shadow.map(|s| Trace::new(s.epoch)),
        engine: Vec::new(),
        served: Vec::new(),
    };
    // Per-thread mirror state, rebuilt when the connection is, as the
    // server rebuilds its per-connection state.
    let mirror = |trace: &mut Trace, request: u64| {
        shadow.map(|s| {
            let planner = layers::planner(s.db, &s.config.planner, trace, request, None);
            let server = QueryServer::with_shared(s.db, s.config.clone(), Arc::clone(&s.shared));
            (planner, server)
        })
    };
    let mut mirrored = match run.trace.as_mut() {
        Some(t) => mirror(t, request_base),
        None => None,
    };
    let mut on_connection = 0usize;
    let mut connect_start: Option<Instant> = None;
    // Dropped on any early return: releases the other connections.
    let mut steps = Lockstep {
        barrier: lockstep,
        left: requests.len(),
    };
    for (i, request) in requests.iter().enumerate() {
        steps.next();
        let id = request_base + i as u64;
        if recycle.is_some_and(|n| on_connection == n) {
            drop(client);
            connect_start = Some(Instant::now());
            client = connect(addr)?;
            on_connection = 0;
        }
        on_connection += 1;
        let root = run.trace.as_mut().map(|t| t.begin("request", id, None));
        let traced = run.trace.as_mut().map(|trace| Traced {
            trace,
            request: id,
            parent: root,
        });
        let response = query(
            &mut client,
            (i as u32).wrapping_add(1),
            &request.text,
            traced,
        )?;
        if let Some(t0) = connect_start.take() {
            let ns =
                t0.elapsed().as_nanos() as u64 - (response.latency_ns - response.first_frame_ns);
            run.connect_ns.push(ns);
            // Rebuilt after the round trip, so the mirror's own set-up
            // does not delay the request it mirrors.
            if let Some(t) = run.trace.as_mut() {
                mirrored = mirror(t, id);
            }
        }
        if let (Some(trace), Some((planner, server)), Some(s)) =
            (run.trace.as_mut(), mirrored.as_ref(), shadow)
        {
            if let Some(served) =
                layers::session_path(&server.session(), &request.text, trace, id, root)
            {
                run.served.push((id, served));
            }
            let counts = layers::engine_path(
                s.db,
                planner,
                &s.config.planner,
                &request.text,
                trace,
                id,
                root,
            );
            run.engine.push(counts);
            if let Some(r) = root {
                trace.end(r);
            }
        }
        run.outcomes.push(Outcome {
            id,
            request: request.clone(),
            response,
        });
    }
    Ok(run)
}

/// A connection's place in a lockstep pass.
struct Lockstep<'b> {
    barrier: Option<&'b Barrier>,
    /// Steps this connection has not reached yet.
    left: usize,
}

impl Lockstep<'_> {
    /// Waits until every connection reaches the next step.
    fn next(&mut self) {
        if let Some(b) = self.barrier {
            b.wait();
        }
        self.left -= 1;
    }
}

impl Drop for Lockstep<'_> {
    /// A connection that stops early still passes every remaining step,
    /// so the others are not left waiting for it.
    fn drop(&mut self) {
        while self.left > 0 {
            self.next();
        }
    }
}

/// Sends each warm-up request, or a STATS request on a connection with
/// none, so every connection's server side is set up before timing.
pub fn warm_up(clients: &mut [Client], warmups: &[Request]) -> io::Result<()> {
    let n = clients.len();
    for (c, client) in clients.iter_mut().enumerate() {
        let mine: Vec<&Request> = warmups.iter().skip(c).step_by(n).collect();
        if mine.is_empty() {
            client
                .text_request(1, verb::STATS, "")?
                .map_err(|(code, msg)| io::Error::other(format!("STATS failed: {code} {msg}")))?;
        }
        for r in mine {
            query(client, 1, &r.text, None)?;
        }
    }
    Ok(())
}

/// The planner configuration of the in-process reference: serial and
/// unbounded, otherwise as configured.
pub fn serial_unbounded(config: &ServerConfig) -> ServerConfig {
    ServerConfig {
        planner: PlannerConfig {
            parallelism: 1,
            memory_budget: 0,
            ..config.planner.clone()
        },
        global_memory_bytes: 0,
        cache_results: false,
        ..config.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_connection_that_stops_early_releases_the_others() {
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut steps = Lockstep {
                    barrier: Some(&barrier),
                    left: 5,
                };
                steps.next();
                // Stops after one step; dropping passes the other four.
            });
            let mut steps = Lockstep {
                barrier: Some(&barrier),
                left: 5,
            };
            for _ in 0..5 {
                steps.next();
            }
            assert_eq!(steps.left, 0);
        });
    }
}
