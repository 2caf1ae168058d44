//! Host-time spans around every public call the benchmark makes.
//!
//! Every call goes through [`Tracer::span`], which always times it (the
//! end-to-end metrics need the durations) and, in a traced invocation,
//! also records a span: name, start, end, parent and run id, with the
//! allocations made inside it and any counts taken at its boundary. Spans
//! stay in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    /// The repetition (run) this span belongs to.
    pub run: u32,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation calls made inside the span.
    pub allocs: u64,
    /// Counts taken at the span's boundary, e.g. engine events.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What [`Tracer::span`] measured about one call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    /// Host seconds.
    pub secs: f64,
    /// Allocation calls made inside the call.
    pub allocs: u64,
}

/// Times calls, and records them as spans when tracing is on.
pub struct Tracer {
    on: bool,
    origin: Instant,
    run: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            run: 0,
            // Reserved up front so that recording spans allocates the same
            // in every repetition and rarely at all.
            open: Vec::with_capacity(16),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    /// Tags the spans that follow with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Turns span recording on or off; calls are timed either way.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f`, returning its result with its host duration and the
    /// allocations made inside it. `f` receives the tracer back so that it
    /// can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Timed) {
        if !self.on {
            let a0 = alloc::allocs();
            let t0 = Instant::now();
            let out = f(self);
            let secs = t0.elapsed().as_secs_f64();
            let allocs = alloc::allocs() - a0;
            return (out, Timed { secs, allocs });
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            id,
            name,
            run: self.run,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let out = f(self);
        let t1 = Instant::now();
        let allocs = alloc::allocs() - a0;
        self.open.pop();
        let span = &mut self.spans[id];
        span.start_ns = t0.duration_since(self.origin).as_nanos() as u64;
        span.end_ns = t1.duration_since(self.origin).as_nanos() as u64;
        span.allocs = allocs;
        let secs = t1.duration_since(t0).as_secs_f64();
        (out, Timed { secs, allocs })
    }

    /// Attaches a count to the span recorded last (the call just made).
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(span) = self.spans.last_mut() {
            span.counts.push((key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: calls, total nanoseconds, and self nanoseconds (the
    /// span's duration minus the part its child spans cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child_ns[s.id]);
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}, \"counts\": {{",
                s.id, s.name, s.run, s.start_ns, s.end_ns, s.allocs
            );
            for (k, (key, v)) in s.counts.iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{key}\": {v}");
            }
            out.push_str(if i + 1 == self.spans.len() {
                "}}\n"
            } else {
                "}},\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_runs_and_self_time() {
        let mut tr = Tracer::new(true);
        tr.set_run(3);
        let ((), outer) = tr.span("outer", |tr| {
            let (v, _) = tr.span("inner", |_| vec![1u8; 1024]);
            tr.count("events", 7);
            std::hint::black_box(v);
        });
        assert!(outer.secs > 0.0);
        // The inner vector and the count's list; recording the spans
        // themselves does not allocate.
        assert_eq!(outer.allocs, 2);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].run), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!(s[1].allocs, 1);
        assert_eq!(s[1].counts, vec![("events", 7)]);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let st = tr.self_times();
        assert_eq!(st["outer"].2, s[0].dur_ns() - s[1].dur_ns());
        let json = tr.to_json();
        assert!(
            json.contains("\"parent\": 0") && json.contains("\"events\": 7"),
            "{json}"
        );
    }

    #[test]
    fn untraced_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let (v, t) = tr.span("work", |_| vec![0u8; 8].len());
        assert_eq!(v, 8);
        assert_eq!(t.allocs, 1);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.to_json(), "[\n]");
    }
}
