//! Outside-in spans: the traced run wraps each call into a layer's
//! public entry point in a span (name, start, end, parent, request id).
//! Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. Times are nanoseconds since a shared epoch,
/// so logs of concurrent client threads merge onto one timeline.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span around `f`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured interval.
    #[cfg(test)]
    pub fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time: its duration minus the part of its
    /// interval that its children cover (overlapping children count
    /// once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Per request and span name: (inclusive ns, self ns, span count),
    /// summed over the request's spans of that name.
    pub fn per_request(&self) -> BTreeMap<u64, BTreeMap<&'static str, (u64, u64, u64)>> {
        let selfs = self.self_ns();
        let mut out: BTreeMap<u64, BTreeMap<&'static str, (u64, u64, u64)>> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.request).or_default().entry(s.name).or_default();
            e.0 += s.dur_ns();
            e.1 += self_ns;
            e.2 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(spans: &[(&'static str, u64, Option<usize>, u64, u64)]) -> Trace {
        let mut t = Trace::new(Instant::now());
        for &(name, request, parent, a, b) in spans {
            t.push(name, request, parent, a, b);
        }
        t
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let t = trace(&[
            ("root", 1, None, 0, 100),
            ("a", 1, Some(0), 10, 30),
            ("b", 1, Some(0), 20, 50),  // overlaps a: 10..50 covered
            ("c", 1, Some(0), 90, 120), // clipped to the parent: 90..100
            ("leaf", 1, Some(1), 10, 15),
        ]);
        assert_eq!(t.self_ns(), vec![50, 15, 30, 30, 5]);
    }

    #[test]
    fn per_request_sums_repeated_spans() {
        let t = trace(&[
            ("rt", 1, None, 0, 100),
            ("dec", 1, Some(0), 10, 20),
            ("dec", 1, Some(0), 30, 40),
            ("rt", 2, None, 200, 250),
        ]);
        let per = t.per_request();
        assert_eq!(per[&1]["rt"], (100, 80, 1));
        assert_eq!(per[&1]["dec"], (20, 20, 2));
        assert_eq!(per[&2]["rt"], (50, 50, 1));
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = trace(&[("x", 1, None, 0, 10)]);
        let b = trace(&[("y", 2, None, 0, 10), ("z", 2, Some(0), 1, 2)]);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
