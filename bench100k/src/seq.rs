//! Query templates and the seeded request sequences of each workload.
//!
//! A sequence is a pure function of the seed, the database sizes and
//! the sequence length: every run replays it whole, so the query mix
//! cannot drift between runs.

use oodb_datagen::{DELIVERY_BASE, PART_BASE, SUPPLIER_BASE};
use oodb_value::{Oid, Tuple, Value};

use crate::rng::{self, Rng, Zipf};

/// Zipf exponent of the frontend's name skew. A placeholder: no
/// measured or published skew for this schema backs the value.
pub const ZIPF_S: f64 = 1.5;

/// The query templates. Analytic ones are the paper's §7 queries; the
/// frontend ones are point and navigational lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Template {
    /// Example Query 4: suppliers with a dangling part reference.
    Q4,
    /// Example Query 5: suppliers of a part of a (seeded) color.
    Q5,
    /// Example Query 6: supplier portfolios (nested result per supplier).
    Q6,
    /// Example Query 3.1: suppliers whose parts include an anchor's.
    Q31,
    /// Deliveries with a red part, a path dereference through `x.part`.
    RedDeliveries,
    /// Names of red parts: a filtered scan.
    RedParts,
    /// SUPPLIER ⋈ DELIVERY projecting the last binding (works).
    JoinDid,
    /// SUPPLIER ⋈ DELIVERY projecting both bindings: fails with code 13
    /// ("unbound variable `s`") — a known defect kept in the sequence.
    JoinPair,
    /// `s.parts` of the supplier named by the parameter.
    SupplierParts,
    /// `p.price` of the part named by the parameter.
    PartPrice,
    /// Deliveries of the supplier named by the parameter.
    SupplierDeliveries,
}

/// The analytic cycle, in request order.
pub const ANALYTIC: [Template; 8] = [
    Template::Q4,
    Template::Q5,
    Template::Q6,
    Template::Q31,
    Template::RedDeliveries,
    Template::RedParts,
    Template::JoinDid,
    Template::JoinPair,
];

/// Requests per analytic cycle: [`ANALYTIC`] plus Q5 again under the
/// seed's second color, so the cycle's median request is a Q5.
pub const ANALYTIC_CYCLE: usize = ANALYTIC.len() + 1;

/// The frontend's request types, in equal shares.
pub const FRONTEND: [Template; 3] = [
    Template::SupplierParts,
    Template::PartPrice,
    Template::SupplierDeliveries,
];

/// Colors the generator assigns to parts.
pub const COLORS: [&str; 5] = ["red", "blue", "green", "black", "white"];

/// A template's parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Param {
    None,
    /// Index into [`COLORS`].
    Color(usize),
    /// Supplier index (`supplier-<i>`).
    Supplier(usize),
    /// Part index (`part-<i>`).
    Part(usize),
}

/// One request of a sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    pub template: Template,
    pub param: Param,
    pub text: String,
}

impl Request {
    pub fn new(template: Template, param: Param) -> Request {
        Request {
            template,
            param,
            text: text(template, param),
        }
    }
}

/// The OOSQL text of `template` under `param`.
pub fn text(template: Template, param: Param) -> String {
    let supplier = || match param {
        Param::Supplier(i) => i,
        other => panic!("{template:?} needs a supplier parameter, got {other:?}"),
    };
    match template {
        Template::Q4 => "select s.eid from s in SUPPLIER \
             where exists x in s.parts : not (exists p in PART : x = p.pid)"
            .into(),
        Template::Q5 => {
            let Param::Color(c) = param else {
                panic!("q5 needs a color parameter, got {param:?}")
            };
            format!(
                "select s.sname from s in SUPPLIER where exists x in s.parts : \
                 exists p in PART : x = p.pid and p.color = \"{}\"",
                COLORS[c]
            )
        }
        Template::Q6 => "select (sname := s.sname, \
             partssuppl := select p from p in PART where p.pid in s.parts) \
             from s in SUPPLIER"
            .into(),
        Template::Q31 => format!(
            "select s.sname from s in SUPPLIER where s.parts supseteq \
             flatten(select t.parts from t in SUPPLIER where t.sname = \"supplier-{}\")",
            supplier()
        ),
        Template::RedDeliveries => "select d from d in DELIVERY \
             where exists x in d.supply : x.part.color = \"red\""
            .into(),
        Template::RedParts => "select p.pname from p in PART where p.color = \"red\"".into(),
        Template::JoinDid => "select d.did from s in SUPPLIER, d in DELIVERY \
             where s.eid = d.supplier"
            .into(),
        Template::JoinPair => "select (n := s.sname, d := d.did) from s in SUPPLIER, \
             d in DELIVERY where s.eid = d.supplier"
            .into(),
        Template::SupplierParts => format!(
            "select s.parts from s in SUPPLIER where s.sname = \"supplier-{}\"",
            supplier()
        ),
        Template::PartPrice => {
            let Param::Part(i) = param else {
                panic!("part_price needs a part parameter, got {param:?}")
            };
            format!("select p.price from p in PART where p.pname = \"part-{i}\"")
        }
        Template::SupplierDeliveries => format!(
            "select d from s in SUPPLIER, d in DELIVERY \
             where s.sname = \"supplier-{}\" and s.eid = d.supplier",
            supplier()
        ),
    }
}

/// The analytic sequence: `cycles` passes over [`ANALYTIC`], each
/// closed by a second Q5. Q5 runs under the two colors and Q3.1 under
/// one of two anchors chosen per seed, so a run has few distinct texts
/// to check. Anchors are drawn
/// among suppliers with a non-empty `parts` set (`has_parts`): an empty
/// anchor set turns Q3.1 into a full-extent result, which would make
/// its cost depend on the seed rather than on the engine.
pub fn analytic(
    seed: u64,
    cycles: usize,
    suppliers: usize,
    has_parts: impl Fn(usize) -> bool,
) -> Vec<Request> {
    let mut rng = rng::fork(seed, 1);
    let first = rng::below(&mut rng, COLORS.len());
    let colors = [
        first,
        (first + 1 + rng::below(&mut rng, COLORS.len() - 1)) % COLORS.len(),
    ];
    let mut anchor = || loop {
        let i = rng::below(&mut rng, suppliers);
        if has_parts(i) {
            break i;
        }
    };
    let anchors = [anchor(), anchor()];
    let mut out = Vec::with_capacity(cycles * ANALYTIC_CYCLE);
    for c in 0..cycles {
        for t in ANALYTIC {
            let param = match t {
                Template::Q5 => Param::Color(colors[0]),
                Template::Q31 => Param::Supplier(anchors[c % 2]),
                _ => Param::None,
            };
            out.push(Request::new(t, param));
        }
        out.push(Request::new(Template::Q5, Param::Color(colors[1])));
    }
    out
}

/// Zipf-skewed name draws: rank `k` maps to a seeded permutation of
/// the extent, so which names are hot changes with the seed.
pub struct Names {
    zipf: Zipf,
    perm: Vec<usize>,
}

impl Names {
    pub fn new(rng: &mut Rng, n: usize) -> Names {
        Names {
            zipf: Zipf::new(n, ZIPF_S),
            perm: rng::permutation(rng, n),
        }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        self.perm[self.zipf.sample(rng)]
    }

    /// `n` stratified draws (see [`Zipf::stratified`]).
    pub fn draws(&self, n: usize, rng: &mut Rng) -> Vec<usize> {
        self.zipf
            .stratified(n, rng)
            .into_iter()
            .map(|k| self.perm[k])
            .collect()
    }

    /// The object at Zipf rank `k` (0 = hottest).
    pub fn rank(&self, k: usize) -> usize {
        self.perm[k]
    }

    pub fn len(&self) -> usize {
        self.perm.len()
    }
}

/// Hot-name tables of a run, shared by every connection.
pub struct Skew {
    pub suppliers: Names,
    pub parts: Names,
}

impl Skew {
    pub fn new(seed: u64, suppliers: usize, parts: usize) -> Skew {
        let mut rng = rng::fork(seed, 2);
        Skew {
            suppliers: Names::new(&mut rng, suppliers),
            parts: Names::new(&mut rng, parts),
        }
    }

    /// The request of `template` naming the coldest object: what warm-up
    /// uses, so warming leaves the hot names' cache entries untouched.
    pub fn coldest(&self, template: Template) -> Request {
        let param = match template {
            Template::PartPrice => Param::Part(self.parts.rank(self.parts.len() - 1)),
            _ => Param::Supplier(self.suppliers.rank(self.suppliers.len() - 1)),
        };
        Request::new(template, param)
    }

    /// The request of `template` naming the hottest object.
    pub fn hottest(&self, template: Template) -> Request {
        let param = match template {
            Template::PartPrice => Param::Part(self.parts.rank(0)),
            _ => Param::Supplier(self.suppliers.rank(0)),
        };
        Request::new(template, param)
    }
}

/// The frontend sequence of connection `conn`: `n` requests in a seeded
/// order, the templates of [`FRONTEND`] in equal shares, each with
/// stratified Zipf-skewed names. Equal shares are a placeholder: no
/// measured request mix backs them.
pub fn frontend(seed: u64, conn: usize, n: usize, skew: &Skew) -> Vec<Request> {
    let mut rng = rng::fork(seed, 100 + conn as u64);
    let mut out = Vec::with_capacity(n);
    for (i, &t) in FRONTEND.iter().enumerate() {
        let m = n / FRONTEND.len() + usize::from(i < n % FRONTEND.len());
        let params: Vec<Param> = match t {
            Template::PartPrice => skew
                .parts
                .draws(m, &mut rng)
                .into_iter()
                .map(Param::Part)
                .collect(),
            _ => skew
                .suppliers
                .draws(m, &mut rng)
                .into_iter()
                .map(Param::Supplier)
                .collect(),
        };
        out.extend(params.into_iter().map(|p| Request::new(t, p)));
    }
    rng::shuffle(&mut rng, &mut out);
    out
}

/// The reads after every write round: the same texts each round, so
/// each round's inserts invalidate their cached plans and results. Two
/// frontend lookups of the hottest names and one analytic scan whose
/// result the inserted red parts change.
pub fn rereads(skew: &Skew) -> Vec<Request> {
    vec![
        skew.hottest(Template::SupplierParts),
        skew.hottest(Template::PartPrice),
        Request::new(Template::RedParts, Param::None),
    ]
}

/// Objects one write round inserts, per extent. Placeholders: no
/// measured write rate backs them.
pub const ROUND_PARTS: usize = 40;
pub const ROUND_SUPPLIERS: usize = 10;
pub const ROUND_DELIVERIES: usize = 20;

/// Extent sizes of the generated database; inserted objects take the
/// indexes after them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub parts: usize,
    pub suppliers: usize,
    pub deliveries: usize,
}

/// The objects write round `round` inserts, as `(extent, tuple)` in
/// insertion order: parts first, so the suppliers and deliveries of the
/// round can reference them. Deliveries go to Zipf-hot suppliers, so the
/// frontend reads of [`rereads`] see their results change.
pub fn write_batch(
    seed: u64,
    round: usize,
    sizes: Sizes,
    skew: &Skew,
) -> Vec<(&'static str, Tuple)> {
    let mut rng = rng::fork(seed, 1_000 + round as u64);
    let part0 = sizes.parts + round * ROUND_PARTS;
    let supplier0 = sizes.suppliers + round * ROUND_SUPPLIERS;
    let delivery0 = sizes.deliveries + round * ROUND_DELIVERIES;
    let all_parts = part0 + ROUND_PARTS;
    let part_oid = |i: usize| Value::Oid(Oid(PART_BASE + i as u64));
    let mut out = Vec::with_capacity(ROUND_PARTS + ROUND_SUPPLIERS + ROUND_DELIVERIES);
    for i in part0..part0 + ROUND_PARTS {
        let color = if rng::unit(&mut rng) < 0.2 {
            0
        } else {
            1 + rng::below(&mut rng, COLORS.len() - 1)
        };
        out.push((
            "PART",
            Tuple::from_pairs([
                ("pid", part_oid(i)),
                ("pname", Value::str(&format!("part-{i}"))),
                ("price", Value::Int(1 + rng::below(&mut rng, 1_000) as i64)),
                ("color", Value::str(COLORS[color])),
            ]),
        ));
    }
    for i in supplier0..supplier0 + ROUND_SUPPLIERS {
        let k = 1 + rng::below(&mut rng, 16);
        let parts: Vec<Value> = (0..k)
            .map(|_| part_oid(rng::below(&mut rng, all_parts)))
            .collect();
        out.push((
            "SUPPLIER",
            Tuple::from_pairs([
                ("eid", Value::Oid(Oid(SUPPLIER_BASE + i as u64))),
                ("sname", Value::str(&format!("supplier-{i}"))),
                ("parts", Value::set(parts)),
            ]),
        ));
    }
    for i in delivery0..delivery0 + ROUND_DELIVERIES {
        let supplier = skew.suppliers.draw(&mut rng);
        let k = 1 + rng::below(&mut rng, 8);
        let supply: Vec<Value> = (0..k)
            .map(|_| {
                Value::tuple([
                    ("part", part_oid(rng::below(&mut rng, all_parts))),
                    ("quantity", Value::Int(1 + rng::below(&mut rng, 500) as i64)),
                ])
            })
            .collect();
        out.push((
            "DELIVERY",
            Tuple::from_pairs([
                ("did", Value::Oid(Oid(DELIVERY_BASE + i as u64))),
                ("supplier", Value::Oid(Oid(SUPPLIER_BASE + supplier as u64))),
                ("supply", Value::set(supply)),
                (
                    "date",
                    Value::Date(940101 + rng::below(&mut rng, 28) as i64),
                ),
            ]),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: Sizes = Sizes {
        parts: 500,
        suppliers: 250,
        deliveries: 250,
    };

    #[test]
    fn analytic_sequence_is_deterministic_per_seed() {
        let a = analytic(11, 3, 250, |i| i % 3 != 0);
        assert_eq!(a, analytic(11, 3, 250, |i| i % 3 != 0));
        assert_eq!(a.len(), 3 * ANALYTIC_CYCLE);
        assert!(a.chunks(ANALYTIC_CYCLE).all(|c| c
            .iter()
            .map(|r| r.template)
            .eq(ANALYTIC.iter().copied().chain([Template::Q5]))));
        let colors = |c: &[Request]| (c[1].param, c[ANALYTIC_CYCLE - 1].param);
        let (x, y) = colors(&a[..ANALYTIC_CYCLE]);
        assert_ne!(x, y, "a cycle runs Q5 under two colors");
        let b = analytic(12, 3, 250, |i| i % 3 != 0);
        assert_ne!(a, b, "another seed draws other parameters");
        for r in &a {
            if let Param::Supplier(i) = r.param {
                assert!(i % 3 != 0, "anchor {i} has no parts");
            }
        }
    }

    #[test]
    fn frontend_sequence_is_deterministic_per_seed_and_connection() {
        let skew = Skew::new(5, 250, 500);
        let a = frontend(5, 0, 200, &skew);
        assert_eq!(a, frontend(5, 0, 200, &Skew::new(5, 250, 500)));
        assert_ne!(a, frontend(5, 1, 200, &skew));
        assert_ne!(a, frontend(6, 0, 200, &Skew::new(6, 250, 500)));
        for t in FRONTEND {
            let n = a.iter().filter(|r| r.template == t).count();
            assert!(
                n.abs_diff(200 / FRONTEND.len()) <= 1,
                "{t:?} drawn {n} times"
            );
        }
        // Skewed: the hottest supplier is named far more often than 1/250.
        let hot = skew.hottest(Template::SupplierParts).param;
        let hits = a.iter().filter(|r| r.param == hot).count();
        assert!(hits >= 10, "hottest supplier drawn {hits} times of 200");
    }

    #[test]
    fn write_batches_are_deterministic_and_fresh() {
        let skew = Skew::new(9, SIZES.suppliers, SIZES.parts);
        let a = write_batch(9, 2, SIZES, &skew);
        assert_eq!(
            a,
            write_batch(9, 2, SIZES, &Skew::new(9, SIZES.suppliers, SIZES.parts))
        );
        assert_eq!(a.len(), ROUND_PARTS + ROUND_SUPPLIERS + ROUND_DELIVERIES);
        let first_pid = a[0].1.get("pid").unwrap().as_oid().unwrap();
        assert_eq!(
            first_pid,
            Oid(PART_BASE + (SIZES.parts + 2 * ROUND_PARTS) as u64)
        );
        assert_ne!(a, write_batch(9, 3, SIZES, &skew));
        assert_eq!(
            rereads(&skew),
            rereads(&Skew::new(9, SIZES.suppliers, SIZES.parts))
        );
    }
}
