//! In-memory span recorder for the traced passes.
//!
//! A span carries a name, a start and an end (nanoseconds since the tracer's
//! origin), the index of its parent span and the id of the unit of work it
//! belongs to (one id per simulated instance, per scenario job or per served
//! request). Calls that happen millions of times per pass — availability
//! queries and scheduling decisions — are recorded as *collapsed* spans: one
//! record per parent with the call count and the summed busy time, so the
//! trace stays a few thousand records long. A span's self time is its busy
//! time minus the busy time of its children; summed over every span of a pass
//! it equals the pass's root span exactly, which is how the layers account
//! for the traced wall time.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.run`.
    pub name: &'static str,
    /// Unit of work the span belongs to (instance, job or request id).
    pub id: u64,
    /// Index of the enclosing span, `None` for a pass root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer origin.
    pub end_ns: u64,
    /// Calls folded into this record (1 for an ordinary span).
    pub calls: u64,
    /// Time the calls were busy (`end - start` for an ordinary span).
    pub busy_ns: u64,
}

/// Accumulates the busy time of a collapsed call site.
#[derive(Debug, Default)]
pub struct CallTimer {
    calls: Cell<u64>,
    busy_ns: Cell<u64>,
    first: Cell<Option<Instant>>,
    last: Cell<Option<Instant>>,
}

impl CallTimer {
    /// Time one call of `f`.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(start, end);
        out
    }

    /// Record one call that ran from `start` to `end`.
    #[inline]
    pub fn record(&self, start: Instant, end: Instant) {
        if self.first.get().is_none() {
            self.first.set(Some(start));
        }
        self.last.set(Some(end));
        self.calls.set(self.calls.get() + 1);
        self.busy_ns.set(self.busy_ns.get() + (end - start).as_nanos() as u64);
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Summed busy time so far.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.get()
    }
}

/// Records the spans of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), id: 0 }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Set the unit-of-work id carried by spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            id: self.id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit without a matching enter");
        let end_ns = self.ns(Instant::now()).max(self.spans[index].start_ns);
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Attach a collapsed call site as a child of the innermost open span.
    /// Nothing is recorded when the site was never called.
    pub fn collapsed(&mut self, name: &'static str, timer: &CallTimer) {
        let (Some(first), Some(last)) = (timer.first.get(), timer.last.get()) else { return };
        let start_ns = self.ns(first);
        let end_ns = self.ns(last).max(start_ns);
        self.spans.push(Span {
            name,
            id: self.id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
            calls: timer.calls(),
            busy_ns: timer.busy_ns().min(end_ns - start_ns),
        });
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's busy time minus its children's.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        self_ns(&self.spans)
    }

    /// Render the spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns, s.calls, s.busy_ns
            );
        }
        out
    }
}

/// Self time per span name over `spans`.
pub fn self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.busy_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, child) in spans.iter().zip(children) {
        *out.entry(s.name).or_insert(0) += s.busy_ns.saturating_sub(child);
    }
    out
}

/// Check that `spans` form well-formed trees: every parent precedes its
/// children and encloses them, busy time fits in the interval, children
/// never claim more busy time than their parent, and ordinary (non-collapsed)
/// siblings do not overlap.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    let mut child_busy = vec![0u64; spans.len()];
    let mut last_end: BTreeMap<Option<usize>, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns || s.busy_ns > s.end_ns - s.start_ns || s.calls == 0 {
            return Err(format!("span {i} ({}) has an invalid interval", s.name));
        }
        if let Some(p) = s.parent {
            let parent =
                spans.get(p).filter(|_| p < i).ok_or(format!("span {i} has a bad parent"))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) escapes its parent {p} ({})",
                    s.name, parent.name
                ));
            }
            child_busy[p] += s.busy_ns;
        }
        if s.calls == 1 {
            let prev = last_end.entry(s.parent).or_insert(0);
            if s.start_ns < *prev {
                return Err(format!("span {i} ({}) overlaps its previous sibling", s.name));
            }
            *prev = s.end_ns;
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if child_busy[i] > s.busy_ns {
            return Err(format!("children of span {i} ({}) are busier than it", s.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < micros as u128 {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn nested_spans_are_well_formed_and_self_times_sum_to_the_root() {
        let mut tracer = Tracer::new();
        tracer.span("pass", |t| {
            for id in 0..3 {
                t.set_id(id);
                t.span("executor.instance", |t| {
                    spin(50);
                    t.span("engine.run", |t| {
                        let timer = CallTimer::default();
                        for _ in 0..10 {
                            timer.time(|| spin(5));
                            spin(2);
                        }
                        t.collapsed("heuristics.decide", &timer);
                    });
                });
            }
        });
        let spans = tracer.spans();
        check_well_formed(spans).unwrap();
        assert_eq!(spans.iter().filter(|s| s.name == "heuristics.decide").count(), 3);
        assert!(spans.iter().filter(|s| s.name == "heuristics.decide").all(|s| s.calls == 10));
        let total: u64 = tracer.self_ns().values().sum();
        assert_eq!(total, spans[0].busy_ns, "self times must add up to the root span");
        assert_eq!(tracer.to_jsonl().lines().count(), spans.len());
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let span = |parent, start_ns, end_ns| Span {
            name: "x",
            id: 0,
            parent,
            start_ns,
            end_ns,
            calls: 1,
            busy_ns: end_ns - start_ns,
        };
        assert!(check_well_formed(&[span(None, 0, 10), span(Some(0), 2, 12)]).is_err());
        assert!(check_well_formed(&[span(None, 0, 10), span(Some(0), 2, 6), span(Some(0), 5, 8)])
            .is_err());
        assert!(check_well_formed(&[span(Some(1), 0, 10), span(None, 0, 10)]).is_err());
        assert!(check_well_formed(&[span(None, 0, 10), span(Some(0), 2, 6), span(Some(0), 6, 8)])
            .is_ok());
    }

    #[test]
    fn unused_call_sites_record_nothing() {
        let mut tracer = Tracer::new();
        tracer.span("pass", |t| t.collapsed("availability.query", &CallTimer::default()));
        assert_eq!(tracer.spans().len(), 1);
    }
}
