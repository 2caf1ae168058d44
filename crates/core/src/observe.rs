//! Cluster-level observability: trace collection, per-stage latency
//! breakdowns, and Chrome trace-event export.
//!
//! The probe hooks scattered through the HIBs and switches report raw
//! [`PacketEvent`]s and [`OpEvent`]s; this module turns them into the
//! artifacts the paper's §3.2 evaluation is built from:
//!
//! * [`TraceCollector`] — the standard [`Probe`] sink, installed cluster-
//!   wide by [`Cluster::enable_tracing`](crate::Cluster::enable_tracing);
//! * [`OpBreakdown`] — where one CPU-visible operation spent its time,
//!   stage by stage, telescoping exactly to the end-to-end latency the
//!   node's [`NodeStats`](crate::NodeStats) summaries record;
//! * [`chrome_events`] / [`chrome_trace_json`] — a Chrome trace-event
//!   (Perfetto-loadable) export of the whole run, with
//!   [`counter_track_events`] adding the congestion observatory's metric
//!   time series as counter tracks;
//! * [`for_each_chain`] / [`op_chains`] — the merged request→response
//!   event chains the breakdowns are built from, for analyzers needing
//!   site/stage context;
//! * [`breakdown_report`] — a human-readable aggregate table.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::rc::Rc;

use tg_sim::{MetricsRegistry, SimTime};
use tg_wire::trace::{OpEvent, PacketEvent, Probe, SharedProbe, Site, TraceId};
use tg_wire::Fnv1a;

/// Interior buffers shared between the collector handle and the probe
/// installed at every component.
#[derive(Debug, Default)]
struct TraceBuffer {
    packets: RefCell<Vec<PacketEvent>>,
    ops: RefCell<Vec<OpEvent>>,
}

impl Probe for TraceBuffer {
    fn packet(&self, ev: PacketEvent) {
        self.packets.borrow_mut().push(ev);
    }

    fn op(&self, ev: OpEvent) {
        self.ops.borrow_mut().push(ev);
    }
}

/// Records every probe event of a run, in delivery order.
///
/// Cloning the collector clones the *handle*; all clones (and the probe
/// installed at the components) share one buffer.
#[derive(Clone, Debug, Default)]
pub struct TraceCollector {
    buf: Rc<TraceBuffer>,
}

impl TraceCollector {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// The shareable probe to install at components.
    pub fn probe(&self) -> SharedProbe {
        self.buf.clone()
    }

    /// All packet-lifecycle events recorded so far, in emission order
    /// (which is the engine's deterministic delivery order).
    pub fn packet_events(&self) -> Vec<PacketEvent> {
        self.buf.packets.borrow().clone()
    }

    /// All completed-operation events recorded so far.
    pub fn op_events(&self) -> Vec<OpEvent> {
        self.buf.ops.borrow().clone()
    }

    /// Number of packet events recorded.
    pub fn packet_event_count(&self) -> usize {
        self.buf.packets.borrow().len()
    }

    /// Number of operation events recorded.
    pub fn op_event_count(&self) -> usize {
        self.buf.ops.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.packet_event_count() == 0 && self.op_event_count() == 0
    }

    /// Per-stage breakdowns of every recorded operation that injected a
    /// traceable packet (see [`op_breakdowns`]).
    pub fn breakdowns(&self) -> Vec<OpBreakdown> {
        op_breakdowns(&self.op_events(), &self.packet_events())
    }
}

/// One segment of an operation's latency: the time spent reaching the
/// named lifecycle point from the previous one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Stage label (e.g. `"tx-launch"`); response-packet stages carry a
    /// `"resp-"` prefix. The first segment is `"cpu-issue"`, the last
    /// `"cpu-complete"`.
    pub label: String,
    /// Time spent in this segment.
    pub dur: SimTime,
}

/// Where one CPU-visible operation spent its time, stage by stage.
///
/// The segments telescope: they always sum exactly to `op.end - op.start`,
/// the same latency the issuing node's [`NodeStats`](crate::NodeStats)
/// summary recorded for this operation.
#[derive(Clone, Debug)]
pub struct OpBreakdown {
    /// The operation.
    pub op: OpEvent,
    /// Ordered per-stage segments.
    pub segments: Vec<Segment>,
}

impl OpBreakdown {
    /// Sum of all segments — by construction the operation's end-to-end
    /// latency.
    pub fn total(&self) -> SimTime {
        self.segments
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc + s.dur)
    }
}

/// One event on an operation's critical path: the merged, clamped view
/// that [`op_breakdowns`] builds its segments from, with the raw
/// [`PacketEvent`] retained so analyzers can attribute segments to sites,
/// stages and links.
#[derive(Clone, Copy, Debug)]
pub struct ChainedEvent {
    /// The underlying packet-lifecycle observation.
    pub event: PacketEvent,
    /// Observation time clamped into the op's `[start, end]` window — the
    /// instant the corresponding segment ends at.
    pub at: SimTime,
    /// True when the event belongs to a response packet chained to the
    /// op's request (its segment labels carry the `resp-` prefix).
    pub response: bool,
}

/// The merged request → response event chain of one traced operation, in
/// the exact order [`op_breakdowns`] consumes (see [`for_each_chain`]), so
/// segment `i` of the breakdown spans `events[i-1].at .. events[i].at`.
#[derive(Clone, Debug)]
pub struct OpChain {
    /// The operation.
    pub op: OpEvent,
    /// Its critical-path events, clamped and time-ordered.
    pub events: Vec<ChainedEvent>,
}

/// Computes the merged critical-path event chain of every operation that
/// injected a traceable packet: [`for_each_chain`]'s chains, collected.
pub fn op_chains(ops: &[OpEvent], packets: &[PacketEvent]) -> Vec<OpChain> {
    let mut out = Vec::new();
    for_each_chain(ops, packets, |op, events| {
        out.push(OpChain {
            op: *op,
            events: events.to_vec(),
        });
    });
    out
}

/// A map keyed by trace id. The ids are packet names the simulator made,
/// not outside input, so the word-folding FNV-1a hasher replaces SipHash.
type TraceMap<V> = HashMap<TraceId, V, BuildHasherDefault<Fnv1a>>;

/// The op slots one trace's events are filed under.
#[derive(Clone, Copy, Default)]
struct Filing {
    /// The slot whose request this trace is.
    own: Option<u32>,
    /// The slot whose request is this trace's final (last-wins) parent.
    resp: Option<u32>,
}

/// Marks a chain entry filed by the response pass (pass 1). Packet indices
/// sit below it, so sorting `(clamped at, entry)` orders ties by pass and
/// then by emission index.
const RESP_PASS: u32 = 1 << 31;

/// Walks the merged critical-path chain of every operation that injected a
/// traceable packet, in `ops` order, handing `f` the op and its chain.
///
/// An op with request id `Q` collects every packet event with `trace ==
/// Q`, or with `parent == Some(Q)` and `parent != trace` (pass 0), plus
/// every event of a response trace `R` whose final parent is `Q`, when
/// the event was not already filed under `Q` (pass 1). Its chain is those
/// events clamped to the op's `[start, end]` window and ordered by
/// `(clamped at, pass, emission index)`: emission order is delivery
/// order, so same-instant events keep their causal order.
///
/// The events are indexed once, in O(events), by one counting sort into
/// per-op slots; each op then sorts only its own events, in a buffer
/// reused from one op to the next. [`op_breakdowns`] turns the chains into
/// telescoping segments; analyzers that need site/stage context (e.g.
/// per-link attribution) consume them directly.
pub fn for_each_chain(
    ops: &[OpEvent],
    packets: &[PacketEvent],
    mut f: impl FnMut(&OpEvent, &[ChainedEvent]),
) {
    walk_chains(ops, packets, &mut f);
}

/// The body of [`for_each_chain`], compiled once rather than per caller.
fn walk_chains(
    ops: &[OpEvent],
    packets: &[PacketEvent],
    f: &mut dyn FnMut(&OpEvent, &[ChainedEvent]),
) {
    assert!(
        packets.len() <= RESP_PASS as usize,
        "{} packet events exceed the chain index",
        packets.len()
    );
    // 1. One slot per distinct op request id.
    let mut filing: TraceMap<Filing> = TraceMap::default();
    let mut op_slots = Vec::new();
    let mut slots = 0u32;
    for req in ops.iter().filter_map(|op| op.trace) {
        let own = &mut filing.entry(req).or_default().own;
        op_slots.push(*own.get_or_insert_with(|| {
            slots += 1;
            slots - 1
        }));
    }
    // 2. File each response trace under its final parent's slot.
    let mut final_parent: TraceMap<TraceId> = TraceMap::default();
    for ev in packets {
        if let Some(parent) = ev.parent.filter(|&p| p != ev.trace) {
            final_parent.insert(ev.trace, parent);
        }
    }
    for (trace, parent) in final_parent {
        if let Some(slot) = filing.get(&parent).and_then(|f| f.own) {
            filing.entry(trace).or_default().resp = Some(slot);
        }
    }
    // 3. One pass over the events emits `(slot, entry)` pairs.
    let mut filed: Vec<(u32, u32)> = Vec::new();
    for (i, ev) in (0u32..).zip(packets) {
        let by_parent = ev
            .parent
            .filter(|&p| p != ev.trace)
            .and_then(|p| filing.get(&p))
            .and_then(|f| f.own);
        if let Some(slot) = by_parent {
            filed.push((slot, i));
        }
        if let Some(f) = filing.get(&ev.trace) {
            if let Some(slot) = f.own {
                filed.push((slot, i));
            }
            if let Some(slot) = f.resp.filter(|&s| Some(s) != by_parent) {
                filed.push((slot, i | RESP_PASS));
            }
        }
    }
    // 4. Counting sort: slot `s` owns `entries[starts[s]..starts[s + 1]]`.
    let mut starts = vec![0usize; slots as usize + 1];
    for &(slot, _) in &filed {
        starts[slot as usize + 1] += 1;
    }
    for s in 1..starts.len() {
        starts[s] += starts[s - 1];
    }
    let mut next = starts.clone();
    let mut entries = vec![0u32; filed.len()];
    for &(slot, entry) in &filed {
        entries[next[slot as usize]] = entry;
        next[slot as usize] += 1;
    }
    drop(filed);
    // 5. Each op sorts its own entries by `(clamped at, pass, index)`. An
    // event is filed under a slot at most once, so the keys are distinct
    // and an unstable sort is exact.
    let mut keys: Vec<(SimTime, u32)> = Vec::new();
    let mut chain: Vec<ChainedEvent> = Vec::new();
    for (op, slot) in ops.iter().filter(|op| op.trace.is_some()).zip(op_slots) {
        let (req, slot) = (op.trace, slot as usize);
        let event = |entry: u32| &packets[(entry & !RESP_PASS) as usize];
        let clamp = |at: SimTime| at.max(op.start).min(op.end);
        keys.clear();
        keys.extend(
            entries[starts[slot]..starts[slot + 1]]
                .iter()
                .map(|&e| (clamp(event(e).at), e)),
        );
        keys.sort_unstable();
        chain.clear();
        chain.extend(keys.iter().map(|&(at, e)| ChainedEvent {
            event: *event(e),
            at,
            response: Some(event(e).trace) != req,
        }));
        f(op, &chain);
    }
}

/// Computes per-stage breakdowns for every operation that injected a
/// traceable packet.
///
/// The [`for_each_chain`] events become telescoping segments: `cpu-issue`
/// merged with the first lifecycle point reached (issue to first packet
/// event, e.g. `cpu-issue→tx-enqueue`), one segment per further point
/// (`resp-`-prefixed for response packets), and `cpu-complete` (last
/// packet event to CPU-observed completion).
pub fn op_breakdowns(ops: &[OpEvent], packets: &[PacketEvent]) -> Vec<OpBreakdown> {
    let mut out = Vec::new();
    for_each_chain(ops, packets, |op, events| {
        let mut segments = Vec::with_capacity(events.len() + 2);
        let mut prev = op.start;
        for (i, ev) in events.iter().enumerate() {
            let issue = if i == 0 { "cpu-issue\u{2192}" } else { "" };
            let resp = if ev.response { "resp-" } else { "" };
            segments.push(Segment {
                label: format!("{issue}{resp}{}", ev.event.stage.label()),
                dur: ev.at.saturating_sub(prev),
            });
            prev = ev.at;
        }
        if events.is_empty() {
            segments.push(Segment {
                label: "cpu-issue".to_string(),
                dur: SimTime::ZERO,
            });
        }
        segments.push(Segment {
            label: "cpu-complete".to_string(),
            dur: op.end.saturating_sub(prev),
        });
        out.push(OpBreakdown { op: *op, segments });
    });
    out
}

/// One Chrome trace-event, pre-serialization — exposed so checkers can
/// verify track monotonicity without re-parsing JSON.
#[derive(Clone, Debug)]
pub struct ChromeEvent {
    /// Event name shown on the track.
    pub name: String,
    /// Category (`"op"`, `"packet"`, `"metric"`, or `"__metadata"`).
    pub cat: &'static str,
    /// Phase: `'X'` complete, `'i'` instant, `'C'` counter, `'M'` metadata.
    pub ph: char,
    /// Timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (complete events only).
    pub dur_us: f64,
    /// Process id (track group): node index, or `1000 + switch index`.
    pub pid: u32,
    /// Thread id within the process: 0 = CPU ops, 1 = packets.
    pub tid: u32,
    /// Extra `args` key/value pairs (both rendered as JSON strings).
    pub args: Vec<(String, String)>,
    /// Numeric `args` entries, rendered as bare JSON numbers — counter
    /// (`'C'`) tracks need numeric values to plot.
    pub num_args: Vec<(String, f64)>,
}

/// Track-group id for a probe site.
fn site_pid(site: Site) -> u32 {
    match site {
        Site::Node(n) => u32::from(n.raw()),
        Site::Switch(s) => 1000 + u32::from(s),
    }
}

/// Builds the Chrome trace-event list for a run: one `'X'` span per
/// completed CPU operation (tid 0 of its node), one `'X'` span per
/// packet-lifecycle transition at each site (tid 1), and `'M'` metadata
/// naming the tracks. Events are sorted by timestamp, so `ts` is
/// monotonically non-decreasing on every track.
pub fn chrome_events(ops: &[OpEvent], packets: &[PacketEvent]) -> Vec<ChromeEvent> {
    let mut events = Vec::new();
    let mut pids: Vec<(u32, String)> = Vec::new();
    let note_pid = |pids: &mut Vec<(u32, String)>, site: Site| {
        let pid = site_pid(site);
        if !pids.iter().any(|(p, _)| *p == pid) {
            pids.push((pid, site.to_string()));
        }
        pid
    };

    for op in ops {
        let pid = note_pid(&mut pids, Site::Node(op.node));
        let mut args = vec![("kind".to_string(), op.kind.label().to_string())];
        if let Some(t) = op.trace {
            args.push(("trace".to_string(), t.to_string()));
        }
        events.push(ChromeEvent {
            name: op.kind.label().to_string(),
            cat: "op",
            ph: 'X',
            ts_us: op.start.as_us_f64(),
            dur_us: op.end.saturating_sub(op.start).as_us_f64(),
            pid,
            tid: 0,
            args,
            num_args: Vec::new(),
        });
    }

    // Packet spans: consecutive lifecycle points of one packet at one site
    // become a span named after the point reached; a site's first
    // observation becomes an instant marker.
    let mut by_packet_site: HashMap<(TraceId, Site), Vec<&PacketEvent>> = HashMap::new();
    for ev in packets {
        by_packet_site
            .entry((ev.trace, ev.site))
            .or_default()
            .push(ev);
    }
    let mut groups: Vec<(&(TraceId, Site), &Vec<&PacketEvent>)> = by_packet_site.iter().collect();
    groups.sort_by_key(|((trace, site), _)| (*trace, site_pid(*site)));
    for ((trace, site), evs) in groups {
        let pid = note_pid(&mut pids, *site);
        let args = |ev: &PacketEvent| {
            vec![
                ("trace".to_string(), trace.to_string()),
                ("kind".to_string(), ev.kind.to_string()),
                ("bytes".to_string(), ev.bytes.to_string()),
            ]
        };
        let mut prev: Option<&PacketEvent> = None;
        for ev in evs {
            match prev {
                None => events.push(ChromeEvent {
                    name: ev.stage.label().to_string(),
                    cat: "packet",
                    ph: 'i',
                    ts_us: ev.at.as_us_f64(),
                    dur_us: 0.0,
                    pid,
                    tid: 1,
                    args: args(ev),
                    num_args: Vec::new(),
                }),
                Some(p) => events.push(ChromeEvent {
                    name: format!("{}\u{2192}{}", p.stage.label(), ev.stage.label()),
                    cat: "packet",
                    ph: 'X',
                    ts_us: p.at.as_us_f64(),
                    dur_us: ev.at.saturating_sub(p.at).as_us_f64(),
                    pid,
                    tid: 1,
                    args: args(ev),
                    num_args: Vec::new(),
                }),
            }
            prev = Some(ev);
        }
    }

    events.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));

    // Metadata first (ts 0): process and thread names.
    let mut meta = Vec::new();
    pids.sort_by_key(|(p, _)| *p);
    for (pid, name) in pids {
        meta.push(ChromeEvent {
            name: "process_name".to_string(),
            cat: "__metadata",
            ph: 'M',
            ts_us: 0.0,
            dur_us: 0.0,
            pid,
            tid: 0,
            args: vec![("name".to_string(), name)],
            num_args: Vec::new(),
        });
        for (tid, tname) in [(0, "cpu-ops"), (1, "packets")] {
            meta.push(ChromeEvent {
                name: "thread_name".to_string(),
                cat: "__metadata",
                ph: 'M',
                ts_us: 0.0,
                dur_us: 0.0,
                pid,
                tid,
                args: vec![("name".to_string(), tname.to_string())],
                num_args: Vec::new(),
            });
        }
    }
    meta.extend(events);
    meta
}

/// Track-group id for the metrics pseudo-process hosting counter tracks —
/// distinct from node pids (raw index) and switch pids (`1000 +`).
pub const METRICS_PID: u32 = 2000;

/// Renders every time series in a [`MetricsRegistry`] as Perfetto counter
/// tracks: one `'C'` event per sample, all under the `"metrics"`
/// pseudo-process ([`METRICS_PID`]), named by the series' canonical
/// metric name (`link.<a>-<b>.utilization`, `fabric.credit_stall_us`, …).
/// Events are sorted by timestamp so every track stays monotonic when the
/// list is appended to a [`chrome_events`] export.
pub fn counter_track_events(metrics: &MetricsRegistry) -> Vec<ChromeEvent> {
    let mut events = vec![ChromeEvent {
        name: "process_name".to_string(),
        cat: "__metadata",
        ph: 'M',
        ts_us: 0.0,
        dur_us: 0.0,
        pid: METRICS_PID,
        tid: 0,
        args: vec![("name".to_string(), "metrics".to_string())],
        num_args: Vec::new(),
    }];
    let mut samples = Vec::new();
    for (name, series) in metrics.all_series() {
        for s in series {
            samples.push(ChromeEvent {
                name: name.to_string(),
                cat: "metric",
                ph: 'C',
                ts_us: s.at.as_us_f64(),
                dur_us: 0.0,
                pid: METRICS_PID,
                tid: 0,
                args: Vec::new(),
                num_args: vec![("value".to_string(), s.value)],
            });
        }
    }
    // Stable sort: equal instants keep registration order; within one
    // series the samples were already time-ordered.
    samples.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    events.extend(samples);
    events
}

/// Renders a finite `f64` as a JSON number (`NaN`/`±inf` have no JSON
/// spelling and degrade to `0`).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Minimal JSON string escaping for controlled label/arg content.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes a Chrome trace-event list to the JSON object format
/// (`{"traceEvents": [...]}`) that `chrome://tracing` and Perfetto load.
pub fn chrome_trace_json(events: &[ChromeEvent]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.6},\"pid\":{},\"tid\":{}",
            json_escape(&ev.name),
            ev.cat,
            ev.ph,
            ev.ts_us,
            ev.pid,
            ev.tid
        );
        if ev.ph == 'X' {
            let _ = write!(s, ",\"dur\":{:.6}", ev.dur_us);
        }
        if ev.ph == 'i' {
            s.push_str(",\"s\":\"t\"");
        }
        if !ev.args.is_empty() || !ev.num_args.is_empty() {
            s.push_str(",\"args\":{");
            let mut j = 0;
            for (k, v) in &ev.args {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
                j += 1;
            }
            for (k, v) in &ev.num_args {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{}", json_escape(k), fmt_f64(*v));
                j += 1;
            }
            s.push('}');
        }
        s.push('}');
    }
    s.push_str("\n]}\n");
    s
}

/// A human-readable aggregate of per-stage breakdowns: one line per
/// operation kind with the mean end-to-end latency and the mean time in
/// each stage (stages in first-seen order).
pub fn breakdown_report(breakdowns: &[OpBreakdown]) -> String {
    /// Per-kind aggregate: count, total latency, per-stage label -> total
    /// time (stages in first-seen order).
    type KindAgg = (u64, SimTime, Vec<(String, SimTime)>);
    let mut kinds: Vec<&'static str> = Vec::new();
    let mut agg: HashMap<&'static str, KindAgg> = HashMap::new();
    for b in breakdowns {
        let kind = b.op.kind.label();
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
        let entry = agg.entry(kind).or_insert((0, SimTime::ZERO, Vec::new()));
        entry.0 += 1;
        entry.1 += b.total();
        for seg in &b.segments {
            match entry.2.iter_mut().find(|(l, _)| *l == seg.label) {
                Some((_, t)) => *t += seg.dur,
                None => entry.2.push((seg.label.clone(), seg.dur)),
            }
        }
    }
    let mut s = String::new();
    let _ = writeln!(s, "per-operation stage breakdown (mean us per stage)");
    for kind in kinds {
        let (count, total, stages) = &agg[kind];
        let n = *count as f64;
        let _ = write!(
            s,
            "{:<14} x{:<5} total {:>8.3}",
            kind,
            count,
            total.as_us_f64() / n
        );
        for (label, t) in stages {
            let _ = write!(s, " | {} {:.3}", label, t.as_us_f64() / n);
        }
        s.push('\n');
    }
    s
}

/// Checks that `input` is one syntactically well-formed JSON value — a
/// dependency-free validator for smoke tests of the exporters.
pub fn json_is_wellformed(input: &str) -> bool {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let ok = parse_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    ok && pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => false,
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return false;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return false;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return false;
        }
    }
    *pos > start
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() < *pos + 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return false;
                        }
                        *pos += 5;
                    }
                    _ => return false,
                }
            }
            _ => *pos += 1,
        }
    }
    false
}

fn parse_array(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return true;
    }
    loop {
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') || !parse_string(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return false;
        }
        *pos += 1;
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_wire::trace::{OpKind, Stage};
    use tg_wire::NodeId;

    fn pe(at_ns: u64, trace: TraceId, site: Site, stage: Stage) -> PacketEvent {
        PacketEvent {
            at: SimTime::from_ns(at_ns),
            trace,
            parent: None,
            site,
            stage,
            kind: "write_req",
            bytes: 22,
        }
    }

    /// A chain reduced to what [`op_chains`] promises: each event's clamped
    /// instant, the raw event and the response flag, in chain order.
    type Flat = Vec<(SimTime, PacketEvent, bool)>;

    fn flatten(chains: &[OpChain]) -> Vec<Flat> {
        chains
            .iter()
            .map(|c| {
                c.events
                    .iter()
                    .map(|e| (e.at, e.event, e.response))
                    .collect()
            })
            .collect()
    }

    /// Brute-force chains straight from the membership rule: for each op
    /// `Q`, every event with `trace == Q` or with `parent == Q != trace`
    /// (pass 0), then every other event whose trace's last-wins parent is
    /// `Q` (pass 1), stable-sorted by time clamped to the op's window.
    fn oracle_chains(ops: &[OpEvent], packets: &[PacketEvent]) -> Vec<Flat> {
        let mut final_parent = HashMap::new();
        for ev in packets {
            if let Some(p) = ev.parent.filter(|&p| p != ev.trace) {
                final_parent.insert(ev.trace, p);
            }
        }
        let mut out = Vec::new();
        for op in ops {
            let Some(q) = op.trace else { continue };
            let (mut pass0, mut pass1) = (Vec::new(), Vec::new());
            for ev in packets {
                // `parent == Q` here implies `parent != trace`.
                if ev.trace == q || ev.parent == Some(q) {
                    pass0.push(ev);
                } else if final_parent.get(&ev.trace) == Some(&q) {
                    pass1.push(ev);
                }
            }
            let mut chain: Flat = pass0
                .into_iter()
                .chain(pass1)
                .map(|ev| (ev.at.max(op.start).min(op.end), *ev, ev.trace != q))
                .collect();
            chain.sort_by_key(|c| c.0);
            out.push(chain);
        }
        out
    }

    /// `op_chains` against the brute-force oracle on 400 seeded traces
    /// drawn from a pool of five trace ids on a 40 ns clock, so that the
    /// cases the chain index must order exactly all occur: same-instant
    /// ties across pass 0 and pass 1, events clamped from before `start`
    /// or after `end`, response hops without a parent, responses to
    /// responses, traces whose parent changes, ops sharing a trace id and
    /// ops without one. The test counts each case and fails if the
    /// generator stops producing it.
    #[test]
    fn chain_index_matches_the_brute_force_oracle() {
        use tg_sim::SimRng;
        let stages = [
            Stage::TxEnqueue,
            Stage::TxLaunch,
            Stage::SwitchEnqueue,
            Stage::SwitchTx,
            Stage::RxEnqueue,
            Stage::Commit,
            Stage::Retransmit,
        ];
        let sites = [
            Site::Node(NodeId::new(0)),
            Site::Node(NodeId::new(1)),
            Site::Switch(0),
        ];
        // [cross-pass tie, clamped, parentless response hop, response to a
        // response, changed parent, shared trace id, untraced op]
        let mut seen = [0u32; 7];
        let pool: Vec<TraceId> = (0..5)
            .map(|i| TraceId::packet(NodeId::new(i % 2), u64::from(i) + 7))
            .collect();
        let mut rng = SimRng::new(0xC4A1_0001);
        for case in 0..400 {
            let packets: Vec<PacketEvent> = (0..rng.range_between(0, 40))
                .map(|_| {
                    let mut ev = pe(
                        rng.range(40),
                        *rng.pick(&pool),
                        *rng.pick(&sites),
                        *rng.pick(&stages),
                    );
                    if rng.chance(0.3) {
                        ev.parent = Some(*rng.pick(&pool));
                    }
                    ev
                })
                .collect();
            let ops: Vec<OpEvent> = (0..rng.range_between(0, 6))
                .map(|_| {
                    let start = rng.range(40);
                    OpEvent {
                        node: NodeId::new(0),
                        kind: OpKind::RemoteRead,
                        start: SimTime::from_ns(start),
                        end: SimTime::from_ns(start + rng.range(40 - start)),
                        trace: (!rng.chance(0.15)).then(|| *rng.pick(&pool)),
                    }
                })
                .collect();

            let want = oracle_chains(&ops, &packets);
            assert_eq!(flatten(&op_chains(&ops, &packets)), want, "case {case}");

            let mut parents: HashMap<TraceId, Vec<TraceId>> = HashMap::new();
            for ev in &packets {
                if let Some(p) = ev.parent.filter(|&p| p != ev.trace) {
                    parents.entry(ev.trace).or_default().push(p);
                }
            }
            let traced: Vec<TraceId> = ops.iter().filter_map(|op| op.trace).collect();
            for (q, chain) in traced.iter().zip(&want) {
                let pass0 = |ev: &PacketEvent| ev.trace == *q || ev.parent == Some(*q);
                seen[0] += u32::from(
                    chain
                        .windows(2)
                        .any(|w| w[0].0 == w[1].0 && pass0(&w[0].1) != pass0(&w[1].1)),
                );
                seen[1] += u32::from(chain.iter().any(|c| c.0 != c.1.at));
                seen[2] += u32::from(chain.iter().any(|c| c.2 && c.1.parent.is_none()));
                seen[3] += u32::from(parents.contains_key(q) && chain.iter().any(|c| c.2));
                seen[5] += u32::from(traced.iter().filter(|t| *t == q).count() > 1);
            }
            seen[4] += u32::from(
                parents
                    .values()
                    .any(|ps| ps.windows(2).any(|w| w[0] != w[1])),
            );
            seen[6] += u32::from(ops.iter().any(|op| op.trace.is_none()));
        }
        assert!(seen.iter().all(|&n| n > 0), "uncovered case: {seen:?}");
    }

    #[test]
    fn breakdown_segments_sum_to_end_to_end() {
        let req = TraceId::packet(NodeId::new(0), 0);
        let op = OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteWrite,
            start: SimTime::from_ns(100),
            end: SimTime::from_ns(900),
            trace: Some(req),
        };
        let packets = vec![
            pe(150, req, Site::Node(NodeId::new(0)), Stage::TxEnqueue),
            pe(200, req, Site::Node(NodeId::new(0)), Stage::TxLaunch),
            pe(400, req, Site::Switch(0), Stage::SwitchEnqueue),
            pe(450, req, Site::Switch(0), Stage::SwitchTx),
            pe(700, req, Site::Node(NodeId::new(1)), Stage::RxEnqueue),
            pe(750, req, Site::Node(NodeId::new(1)), Stage::Commit),
        ];
        let b = op_breakdowns(&[op], &packets);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].total(), SimTime::from_ns(800));
        assert_eq!(b[0].segments.last().unwrap().label, "cpu-complete");
        assert_eq!(b[0].segments.last().unwrap().dur, SimTime::from_ns(150));
    }

    #[test]
    fn breakdown_chains_response_packets() {
        let req = TraceId::packet(NodeId::new(0), 0);
        let resp = TraceId::packet(NodeId::new(1), 0);
        let op = OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteRead,
            start: SimTime::ZERO,
            end: SimTime::from_ns(1000),
            trace: Some(req),
        };
        let mut resp_ev = pe(500, resp, Site::Node(NodeId::new(1)), Stage::TxEnqueue);
        resp_ev.parent = Some(req);
        let packets = vec![
            pe(100, req, Site::Node(NodeId::new(0)), Stage::TxEnqueue),
            pe(400, req, Site::Node(NodeId::new(1)), Stage::Commit),
            resp_ev,
            pe(900, resp, Site::Node(NodeId::new(0)), Stage::Commit),
        ];
        let b = op_breakdowns(&[op], &packets);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].segments.len(), 5); // cpu-issue + 3 more + cpu-complete
        assert!(b[0].segments.iter().any(|s| s.label == "resp-commit"));
        assert_eq!(b[0].total(), SimTime::from_ns(1000));
    }

    #[test]
    fn breakdown_clips_events_outside_the_op_window() {
        let req = TraceId::packet(NodeId::new(0), 3);
        let op = OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteWrite,
            start: SimTime::from_ns(100),
            end: SimTime::from_ns(200),
            trace: Some(req),
        };
        // The commit lands after the CPU already moved on (write latency is
        // CPU-latch-only); it must clip to the window, not inflate it.
        let packets = vec![
            pe(150, req, Site::Node(NodeId::new(0)), Stage::TxEnqueue),
            pe(900, req, Site::Node(NodeId::new(1)), Stage::Commit),
        ];
        let b = op_breakdowns(&[op], &packets);
        assert_eq!(b[0].total(), SimTime::from_ns(100));
    }

    #[test]
    fn chrome_events_are_monotonic_per_track_and_json_parses() {
        let req = TraceId::packet(NodeId::new(0), 0);
        let ops = vec![OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteWrite,
            start: SimTime::from_ns(10),
            end: SimTime::from_ns(500),
            trace: Some(req),
        }];
        let packets = vec![
            pe(50, req, Site::Node(NodeId::new(0)), Stage::TxEnqueue),
            pe(90, req, Site::Node(NodeId::new(0)), Stage::TxLaunch),
            pe(200, req, Site::Switch(0), Stage::SwitchEnqueue),
            pe(230, req, Site::Switch(0), Stage::SwitchTx),
        ];
        let events = chrome_events(&ops, &packets);
        let mut last: HashMap<(u32, u32), f64> = HashMap::new();
        for ev in &events {
            let t = last.entry((ev.pid, ev.tid)).or_insert(0.0);
            assert!(ev.ts_us >= *t, "ts went backwards on a track");
            *t = ev.ts_us;
        }
        assert!(events.iter().any(|e| e.ph == 'M'));
        let json = chrome_trace_json(&events);
        assert!(json_is_wellformed(&json), "exporter emitted invalid JSON");
    }

    #[test]
    fn report_aggregates_by_kind() {
        let req = TraceId::packet(NodeId::new(0), 0);
        let op = OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteWrite,
            start: SimTime::ZERO,
            end: SimTime::from_ns(600),
            trace: Some(req),
        };
        let packets = vec![pe(200, req, Site::Node(NodeId::new(0)), Stage::TxEnqueue)];
        let report = breakdown_report(&op_breakdowns(&[op], &packets));
        assert!(report.contains("remote-write"));
        assert!(report.contains("cpu-complete"));
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        assert!(json_is_wellformed("{}"));
        assert!(json_is_wellformed(
            "{\"a\":[1,2.5,-3e2],\"b\":\"x\\n\",\"c\":null,\"d\":true}"
        ));
        assert!(json_is_wellformed("  [1, 2, 3]  "));
        assert!(!json_is_wellformed("{\"a\":}"));
        assert!(!json_is_wellformed("[1,2,"));
        assert!(!json_is_wellformed("\"unterminated"));
        assert!(!json_is_wellformed("{} extra"));
        assert!(!json_is_wellformed("01x"));
    }
}
