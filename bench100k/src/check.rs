//! Output checks, following a chain of references:
//!
//! 1. every response equals the in-process, serial, unbounded
//!    `Session::run` result for its text on the same database (or, for
//!    point lookups, the value read straight off the extent, which that
//!    result is itself checked against once per template);
//! 2. for every template, that serial server result equals the
//!    nested-loop interpreter (`run_naive`) on a scale-1600 database.
//!
//! Results are compared by a digest of their canonical value.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use oodb_catalog::Database;
use oodb_datagen::{generate, GenConfig};
use oodb_server::{QueryServer, ServerConfig};
use oodb_value::{Set, Tuple, Value};

use crate::seq::{Param, Request, Template};

/// Digest of a canonical value.
pub fn digest_value(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Digest of a streamed result, reassembled as the engine assembles it:
/// a scalar passes through, anything else becomes a deduplicating set.
pub fn digest_rows(scalar: bool, rows: Vec<Value>) -> u64 {
    let value = if scalar {
        rows.into_iter().next().unwrap_or(Value::Null)
    } else {
        Value::Set(Set::from_values(rows))
    };
    digest_value(&value)
}

/// A reference result: the digest, or the error code the reference
/// run failed with.
pub type Reference = Result<u64, u16>;

/// Serial, unbounded `Session::run` results at 100k, one per distinct text.
pub fn session_references<'r>(
    db: &Database,
    config: &ServerConfig,
    requests: impl IntoIterator<Item = &'r Request>,
) -> HashMap<String, Reference> {
    let server = QueryServer::with_config(db, crate::tcp::serial_unbounded(config));
    let session = server.session();
    let mut out = HashMap::new();
    for r in requests {
        out.entry(r.text.clone()).or_insert_with(|| {
            session
                .run(&r.text)
                .map(|o| digest_value(&o.result))
                .map_err(|e| e.code().as_u16())
        });
    }
    out
}

/// Point-lookup answers read straight off the extents.
pub struct Oracle<'db> {
    suppliers: HashMap<String, &'db Tuple>,
    parts: HashMap<String, &'db Tuple>,
    deliveries: HashMap<Value, Vec<&'db Tuple>>,
}

impl<'db> Oracle<'db> {
    pub fn new(db: &'db Database) -> Oracle<'db> {
        let by_name = |extent: &str, attr: &str| {
            db.table(extent)
                .expect("generated extent")
                .rows()
                .map(|t| (t.get(attr).expect("name attribute").to_string(), t))
                .collect::<HashMap<_, _>>()
        };
        let mut deliveries: HashMap<Value, Vec<&Tuple>> = HashMap::new();
        for d in db.table("DELIVERY").expect("generated extent").rows() {
            deliveries
                .entry(d.get("supplier").expect("supplier attribute").clone())
                .or_default()
                .push(d);
        }
        Oracle {
            suppliers: by_name("SUPPLIER", "sname"),
            parts: by_name("PART", "pname"),
            deliveries,
        }
    }

    /// The expected result of a point lookup, `None` for other templates.
    pub fn answer(&self, r: &Request) -> Option<Value> {
        let quoted = |prefix: &str, i: usize| Value::str(&format!("{prefix}-{i}")).to_string();
        let rows: Vec<Value> = match (r.template, r.param) {
            (Template::SupplierParts, Param::Supplier(i)) => self
                .suppliers
                .get(&quoted("supplier", i))
                .map(|s| s.get("parts").expect("parts").clone())
                .into_iter()
                .collect(),
            (Template::PartPrice, Param::Part(i)) => self
                .parts
                .get(&quoted("part", i))
                .map(|p| p.get("price").expect("price").clone())
                .into_iter()
                .collect(),
            (Template::SupplierDeliveries, Param::Supplier(i)) => self
                .suppliers
                .get(&quoted("supplier", i))
                .and_then(|s| self.deliveries.get(s.get("eid").expect("eid")))
                .map(|ds| ds.iter().map(|d| Value::Tuple((*d).clone())).collect())
                .unwrap_or_default(),
            _ => return None,
        };
        Some(Value::Set(Set::from_values(rows)))
    }
}

/// How a template fared against the nested-loop reference at scale 1600.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Chain {
    /// The serial server result equals the nested-loop result.
    Agrees,
    /// The serial server failed with this error code.
    ServerFailed(u16),
    /// The serial server returned a different result.
    Differs,
}

/// Scale of the nested-loop reference database.
pub const NAIVE_SCALE: usize = 1600;

/// Runs one request per template (its parameter mapped into the small
/// database) through the serial server and `run_naive`.
pub fn naive_chain(
    seed: u64,
    config: &ServerConfig,
    requests: &[Request],
) -> BTreeMap<Template, Chain> {
    let db = generate(&GenConfig {
        seed,
        ..GenConfig::scaled(NAIVE_SCALE)
    });
    let suppliers = db.table("SUPPLIER").expect("generated extent");
    let parts = db.table("PART").expect("generated extent").len();
    let has_parts = |i: usize| {
        suppliers
            .row(i)
            .and_then(|t| t.get("parts"))
            .and_then(|p| p.as_set().ok())
            .is_some_and(|s| !s.is_empty())
    };
    let server = QueryServer::with_config(&db, crate::tcp::serial_unbounded(config));
    let session = server.session();
    let mut out = BTreeMap::new();
    for r in requests {
        if out.contains_key(&r.template) {
            continue;
        }
        let param = match r.param {
            Param::Supplier(i) => {
                let n = suppliers.len();
                let j = (0..n)
                    .map(|k| (i + k) % n)
                    .find(|&j| has_parts(j))
                    .unwrap_or(i % n);
                Param::Supplier(j)
            }
            Param::Part(i) => Param::Part(i % parts),
            other => other,
        };
        let small = Request::new(r.template, param);
        let verdict = match session.run(&small.text) {
            Err(e) => Chain::ServerFailed(e.code().as_u16()),
            Ok(served) => {
                let query = oodb_oosql::parse(&small.text).expect("served text parses");
                let nested = oodb_translate::translate(&query, db.catalog())
                    .expect("served text translates");
                let (naive, _) = oodb_bench::run_naive(&db, &nested);
                if naive == served.result {
                    Chain::Agrees
                } else {
                    Chain::Differs
                }
            }
        };
        out.insert(r.template, verdict);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_canonical_over_row_order_and_duplicates() {
        let a = digest_rows(false, vec![Value::Int(2), Value::Int(1), Value::Int(2)]);
        let b = digest_rows(false, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(a, b);
        assert_ne!(a, digest_rows(false, vec![Value::Int(1)]));
        assert_eq!(
            digest_rows(true, vec![Value::Int(7)]),
            digest_value(&Value::Int(7))
        );
    }

    #[test]
    fn oracle_answers_match_the_serial_server_on_a_small_database() {
        let db = generate(&GenConfig::scaled(400));
        let oracle = Oracle::new(&db);
        let server =
            QueryServer::with_config(&db, crate::tcp::serial_unbounded(&ServerConfig::default()));
        let session = server.session();
        for (t, p) in [
            (Template::SupplierParts, Param::Supplier(3)),
            (Template::PartPrice, Param::Part(17)),
            (Template::SupplierDeliveries, Param::Supplier(5)),
        ] {
            let r = Request::new(t, p);
            let served = session.run(&r.text).unwrap().result;
            assert_eq!(oracle.answer(&r), Some(served), "{t:?}");
        }
    }
}
