//! In-memory span recording around the benchmark's calls into the
//! simulator crates, and self-time accounting over the recorded spans.
//!
//! The tracer always measures the call it wraps (the step latencies need
//! that in every run); it only *records* a span when tracing is on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// 1-based; ids are indices into the record plus one.
    pub id: u32,
    /// Id of the enclosing span, 0 at the top level.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses the spans recorded until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id: idx as u32 + 1,
            parent: self.parent_id(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span from [`Tracer::open`], and any span opened inside it
    /// that was left open (a call that panicked).
    pub fn close(&mut self, idx: Option<usize>) {
        let Some(idx) = idx else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    fn parent_id(&self) -> u32 {
        self.open.last().map_or(0, |&i| self.spans[i].id)
    }

    /// Runs `f`, returning its result and its wall time in nanoseconds,
    /// and records it as a leaf span named `name` when tracing is on.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        if self.on {
            let start_ns = (start - self.t0).as_nanos() as u64;
            self.spans.push(Span {
                name,
                id: self.spans.len() as u32 + 1,
                parent: self.parent_id(),
                start_ns,
                end_ns: start_ns + ns,
            });
        }
        (r, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// The spans as JSON lines (`name`, `id`, `parent`, `start_ns`,
    /// `end_ns`), one per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Per-name totals of `spans`, where a span's self time is its duration
/// minus the part of it that its direct children cover.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration();
        t.self_ns += self_time((s.start_ns, s.end_ns), kids);
    }
    out
}

/// `parent`'s duration minus the length of the union of `children`, each
/// clipped to the parent's interval. Children may nest or overlap.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (p1 - p0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        assert_eq!(self_time((0, 100), &[(10, 20), (20, 30)]), 80);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((50, 100), &[(0, 40), (120, 200)]), 50);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    fn span(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_spans_charge_only_direct_children() {
        // pass [0,100) > step [10,60) > save [20,30); pass > step [70,90).
        let spans = [
            span("pass", 1, 0, 0, 100),
            span("step", 2, 1, 10, 60),
            span("save", 3, 2, 20, 30),
            span("step", 4, 1, 70, 90),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["pass"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["step"],
            NameTotals {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(
            t["save"],
            NameTotals {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
    }

    #[test]
    fn tracer_records_only_when_on_and_links_parents() {
        let mut off = Tracer::new(false);
        let o = off.open("pass");
        let (v, _) = off.time("step", || 7);
        off.close(o);
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let o = on.open("pass");
        on.time("step", || ());
        let inner = on.open("inner");
        on.time("leaf", || ());
        on.close(o); // closes the dangling `inner` too
        let s = on.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].name, s[1].parent), ("step", 1));
        assert_eq!((s[3].name, s[3].parent), ("leaf", 3));
        assert!(inner.is_some() && s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(on.to_jsonl().lines().count() == 4);
    }
}
