//! In-memory spans recorded by the benchmark around its own calls into
//! each layer: name, start, end, the span that caused it, and the round
//! (or replay run) it belongs to. Aggregates are kept for every span; the
//! raw list is capped, since only a sample is worth writing out.

use std::fmt::Write as _;
use std::time::Instant;

use crate::{alloc, stats};

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the causing span in the same thread's list.
    parent: u32,
    round: u32,
}

/// Everything recorded under one span name.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
    samples_ns: Vec<u32>,
}

impl Agg {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 / 1e3
    }

    pub fn total_us(&self) -> f64 {
        self.total_ns as f64 / 1e3
    }

    /// The `p`-quantile of the span's durations, 0 if it never ran.
    pub fn quantile_us(&self, p: f64) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        let mut samples: Vec<f64> = self.samples_ns.iter().map(|&ns| ns as f64).collect();
        stats::quantile_of(&mut samples, p) / 1e3
    }

    fn add(&mut self, dur_ns: u64, self_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.self_ns += self_ns;
        self.samples_ns.push(dur_ns.min(u32::MAX as u64) as u32);
    }

    /// Adds everything `other` recorded.
    pub fn absorb(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.samples_ns.extend_from_slice(&other.samples_ns);
    }
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Position in `spans`, or `NO_PARENT` once the cap was reached.
    slot: u32,
}

/// What the measured code paths record into. The paths are generic over
/// it so that the timed and the traced run execute the same code: with
/// [`Off`] every call compiles to nothing.
pub trait Recorder {
    /// Nanoseconds since the run's epoch.
    fn now(&self) -> u64;
    /// Opens a span that will have children; end it with `close`.
    fn open(&mut self, name: &'static str, round: u32);
    /// Closes the innermost open span and returns its duration in ns.
    fn close(&mut self) -> u64;
    /// Records a finished childless span under the innermost open one.
    fn leaf(&mut self, name: &'static str, round: u32, start_ns: u64, end_ns: u64);
    /// Allocation counters, for per-span allocation counts.
    fn allocs(&self) -> alloc::Snapshot;

    /// Times `f` as a leaf span.
    fn timed<T>(&mut self, name: &'static str, round: u32, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.leaf(name, round, start, end);
        out
    }
}

/// Tracing off: the end-to-end metrics are measured with this.
pub struct Off;

impl Recorder for Off {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: u32) {}
    #[inline(always)]
    fn close(&mut self) -> u64 {
        0
    }
    #[inline(always)]
    fn leaf(&mut self, _: &'static str, _: u32, _: u64, _: u64) {}
    #[inline(always)]
    fn allocs(&self) -> alloc::Snapshot {
        alloc::Snapshot::default()
    }
}

/// One thread's span recorder.
pub struct Tracer {
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
    stack: Vec<Open>,
    /// A handful of names, looked up on the hot path: a scan comparing
    /// string addresses beats hashing or ordering the text.
    aggs: Vec<(&'static str, Agg)>,
}

impl Tracer {
    /// `epoch` is shared by the tracers of one run so that their spans
    /// line up; at most `cap` raw spans are kept.
    pub fn new(epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            epoch,
            cap,
            spans: Vec::with_capacity(cap),
            stack: Vec::new(),
            aggs: Vec::new(),
        }
    }

    fn parent_slot(&self) -> u32 {
        self.stack.last().map_or(NO_PARENT, |open| open.slot)
    }

    fn agg_mut(&mut self, name: &'static str) -> &mut Agg {
        let known = self
            .aggs
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, name))
            .or_else(|| self.aggs.iter().position(|(n, _)| *n == name));
        let at = known.unwrap_or_else(|| {
            self.aggs.push((name, Agg::default()));
            self.aggs.len() - 1
        });
        &mut self.aggs[at].1
    }
}

impl Recorder for Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn allocs(&self) -> alloc::Snapshot {
        alloc::snapshot()
    }

    fn open(&mut self, name: &'static str, round: u32) {
        let start_ns = self.now();
        let slot = if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.parent_slot(),
                round,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            slot,
        });
    }

    fn close(&mut self) -> u64 {
        let end_ns = self.now();
        let open = self.stack.pop().expect("close without open");
        let dur = end_ns - open.start_ns;
        if let Some(span) = self.spans.get_mut(open.slot as usize) {
            span.end_ns = end_ns;
        }
        self.agg_mut(open.name)
            .add(dur, dur.saturating_sub(open.child_ns));
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        dur
    }

    fn leaf(&mut self, name: &'static str, round: u32, start_ns: u64, end_ns: u64) {
        let dur = end_ns - start_ns;
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.parent_slot(),
                round,
            });
        }
        self.agg_mut(name).add(dur, dur);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }
}

/// The aggregate of `name` over the tracers of every thread of a run.
pub fn agg(tracers: &[Tracer], name: &str) -> Agg {
    let mut out = Agg::default();
    for tracer in tracers {
        for (_, agg) in tracer.aggs.iter().filter(|(n, _)| *n == name) {
            out.absorb(agg);
        }
    }
    out
}

/// Renders the kept spans as a JSON array, one object per span; `thread`
/// is the tracer's position in `tracers` and `parent` indexes that
/// thread's own spans (-1 for a root).
pub fn render_json(tracers: &[Tracer]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (thread, tracer) in tracers.iter().enumerate() {
        for span in &tracer.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                span.parent as i64
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"thread\":{thread},\"round\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.round, span.start_ns, span.end_ns
            )
            .expect("write to String");
        }
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 16);
        t.open("round", 7);
        t.leaf("encode", 7, 100, 400);
        t.leaf("apply", 7, 400, 1000);
        let dur = t.close();
        let tracers = [t];
        let round = agg(&tracers, "round");
        assert_eq!(round.count, 1);
        assert_eq!(round.total_ns, dur);
        assert_eq!(round.self_ns, dur.saturating_sub(900));
        assert_eq!(agg(&tracers, "apply").total_ns, 600);
        assert_eq!(agg(&tracers, "missing").count, 0);
        let json = render_json(&tracers);
        assert!(json.contains("\"name\":\"encode\",\"thread\":0,\"round\":7"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":-1"));
    }

    #[test]
    fn cap_bounds_the_raw_list_but_not_the_aggregates() {
        let mut t = Tracer::new(Instant::now(), 2);
        for i in 0..5 {
            t.leaf("x", i, 0, 10);
        }
        assert_eq!(t.spans.len(), 2);
        assert_eq!(agg(&[t], "x").count, 5);
    }
}
