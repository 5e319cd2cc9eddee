//! The traced run's view of one request: calls into each layer's public
//! entry point, in pipeline order, each wrapped in a span. Nothing here
//! reaches inside a layer; what a layer does internally is only seen
//! through the time its entry point takes and the counters it returns.

use oodb_catalog::{CatalogStats, Database};
use oodb_core::Optimizer;
use oodb_engine::{MemoryBudget, Planner, PlannerConfig, ResultStream};
use oodb_server::{wire, Session};

use crate::trace::Trace;

/// Execution counters of one request, read from the engine's `Stats`
/// after the stream drains.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    pub work: u64,
    pub rows_scanned: u64,
    pub batches: u64,
    pub max_batch_rows: u64,
    pub spill_bytes: u64,
    pub spill_partitions: u64,
    pub joinorder_us: u64,
}

/// A planner over freshly collected statistics, recording the
/// collection as a `catalog.stats` span.
pub fn planner<'db>(
    db: &'db Database,
    config: &PlannerConfig,
    tr: &mut Trace,
    request: u64,
    parent: Option<usize>,
) -> Planner<'db> {
    let stats = tr.span("catalog.stats", request, parent, || {
        CatalogStats::from_database(db)
    });
    Planner::with_stats(db, config.clone(), stats)
}

/// Extents the plan scans, read off its EXPLAIN text (`Scan <EXTENT>`).
fn scanned_extents(explain: &str) -> Vec<String> {
    explain
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("Scan "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

/// Runs `text` through the engine's layers one public call at a time:
/// parse → typecheck → translate → rewrite → plan → extent clones →
/// execute (first batch, then drain). Stops at the first layer that
/// fails; its counters are then those gathered so far.
pub fn engine_path(
    db: &Database,
    planner: &Planner<'_>,
    config: &PlannerConfig,
    text: &str,
    tr: &mut Trace,
    request: u64,
    parent: Option<usize>,
) -> EngineCounts {
    let mut counts = EngineCounts::default();
    let Ok(query) = tr.span("oosql.parse", request, parent, || oodb_oosql::parse(text)) else {
        return counts;
    };
    let typed = tr.span("oosql.typecheck", request, parent, || {
        oodb_oosql::typecheck(&query, db.catalog())
    });
    if typed.is_err() {
        return counts;
    }
    let Ok(nested) = tr.span("translate.translate", request, parent, || {
        oodb_translate::translate(&query, db.catalog())
    }) else {
        return counts;
    };
    let Ok(optimized) = tr.span("core.rewrite", request, parent, || {
        Optimizer::default().optimize(&nested, db.catalog())
    }) else {
        return counts;
    };
    let Ok(plan) = tr.span("engine.plan", request, parent, || {
        planner.plan(&optimized.expr)
    }) else {
        return counts;
    };
    counts.joinorder_us = plan.joinorder_micros();
    for extent in scanned_extents(&plan.explain()) {
        tr.span("catalog.extent_clone", request, parent, || {
            drop(db.table(&extent).map(|t| t.as_set_value()))
        });
    }
    let exec = tr.begin("engine.exec", request, parent);
    let first = tr.begin("engine.first_batch", request, Some(exec));
    let mut stream = ResultStream::new(
        &plan.phys,
        db,
        MemoryBudget::bytes(config.memory_budget),
        config.batch_kind,
        config.vectorize,
        config.timing,
    );
    let mut pending_first = true;
    loop {
        let chunk = stream.next_chunk();
        if pending_first {
            tr.end(first);
            pending_first = false;
        }
        match chunk {
            Ok(Some(batch)) => {
                counts.batches += 1;
                counts.max_batch_rows = counts.max_batch_rows.max(batch.len() as u64);
            }
            Ok(None) | Err(_) => break,
        }
    }
    tr.end(exec);
    let stats = stream.stats();
    counts.work = stats.work();
    counts.rows_scanned = stats.rows_scanned;
    counts.spill_bytes = stats.spill_bytes;
    counts.spill_partitions = stats.spill_partitions;
    counts
}

/// Which engine layers the server ran for a request: it skips rewrite
/// and planning on a plan-cache hit, and execution on a result-cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    pub plan_hit: bool,
    pub result_hit: bool,
}

impl Served {
    /// The engine-path spans that stand for the server's own work on
    /// this request. `catalog.extent_clone` is left out: execution
    /// clones the scanned extents itself, so `engine.exec` covers it.
    pub fn engine_layers(self) -> Vec<&'static str> {
        let mut layers = vec!["oosql.parse", "oosql.typecheck", "translate.translate"];
        if !self.plan_hit {
            layers.extend(["core.rewrite", "engine.plan"]);
        }
        if !self.result_hit {
            layers.push("engine.exec");
        }
        layers
    }
}

/// What the server side of one request costs in-process: the session's
/// `open_stream` and `next_chunk` loop, with each chunk wire-encoded.
/// Returns what the cursor reported serving from cache, or `None` when
/// the request failed to open.
pub fn session_path(
    session: &Session<'_, '_>,
    text: &str,
    tr: &mut Trace,
    request: u64,
    parent: Option<usize>,
) -> Option<Served> {
    let open = tr.begin("server.open", request, parent);
    let cursor = session.open_stream(text);
    tr.end(open);
    let Ok(mut cursor) = cursor else {
        return None;
    };
    let served = Served {
        plan_hit: cursor.plan_hit(),
        result_hit: cursor.result_hit(),
    };
    let drain = tr.begin("server.drain", request, parent);
    let mut body = Vec::new();
    while let Ok(Some(batch)) = cursor.next_chunk() {
        tr.span("wire.encode", request, Some(drain), || {
            body.clear();
            wire::encode_chunk(&batch, &mut body);
        });
    }
    tr.end(drain);
    Some(served)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_skip_the_engine_layers_the_server_skips() {
        let all = Served {
            plan_hit: false,
            result_hit: false,
        };
        assert_eq!(all.engine_layers().len(), 6);
        let plan_hit = Served {
            plan_hit: true,
            ..all
        };
        assert!(!plan_hit.engine_layers().contains(&"engine.plan"));
        assert!(plan_hit.engine_layers().contains(&"engine.exec"));
        let replay = Served {
            plan_hit: true,
            result_hit: true,
        };
        assert_eq!(
            replay.engine_layers(),
            ["oosql.parse", "oosql.typecheck", "translate.translate"]
        );
    }

    #[test]
    fn scans_are_read_off_explain() {
        let explain = "Flatten (est_rows=20)\n  Map [s.ys]\n    HashNestJoin\n      \
                       Scan SUPPLIER (est_rows=5, est_cost=5)\n      Scan DELIVERY (est_rows=3)\n";
        assert_eq!(scanned_extents(explain), vec!["SUPPLIER", "DELIVERY"]);
    }
}
