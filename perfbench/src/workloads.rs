//! The four workloads. Each builds its system through the repository's
//! public API, runs it, and checks the answer; every call goes through the
//! [`Tracer`] so that it is timed, and recorded as a span when tracing.
//!
//! A *plain* repetition is the untraced workload (set-up, run, check). An
//! *observed* repetition builds the same workload fresh with the
//! observation stack on: packet tracing, metric sampling, and the
//! `tg-analyze` passes that `simreport run` applies.

use std::cell::Cell;
use std::rc::Rc;

use telegraphos::{
    Action, Cluster, ClusterBuilder, ComponentDetail, Process, Resume, RetxMode, Script,
};
use telegraphos_suite::harness::{self, HarnessOptions};
use tg_analyze::{attribute_ops, hottest_links, link_usage, OpAttribution};
use tg_kv::{audit, drive, KvConfig};
use tg_sim::{
    Component, Ctx, Engine, LogHistogram, MetricsRegistry, QueueKind, RunLimit, SimRng, SimTime,
};
use tg_wire::{NodeId, PAGE_WORDS};
use tg_workloads::{stream_reads, stream_writes};

use crate::spans::{Timed, Tracer};
use crate::stats::{percentile, percentile_sorted, Percentile};

/// The paper's §3.2 remote-write latency, µs.
pub const PAPER_WRITE_US: f64 = 0.70;
/// The paper's §3.2 remote-read latency, µs.
pub const PAPER_READ_US: f64 = 7.2;

/// Simulated latency percentiles of a workload's requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub p50: Percentile,
    pub p99: Percentile,
}

impl Latency {
    /// From unsorted samples in simulated nanoseconds.
    fn from_ns(mut ns: Vec<u64>) -> Result<Latency, String> {
        ns.sort_unstable();
        Ok(Latency {
            p50: us(percentile_sorted(&ns, 0.50)?),
            p99: us(percentile_sorted(&ns, 0.99)?),
        })
    }
}

fn us(p: Percentile) -> Percentile {
    Percentile {
        value: p.value / 1_000.0,
        ..p
    }
}

/// One plain (untraced) repetition.
#[derive(Debug)]
pub struct Plain {
    /// Host seconds to build and deploy.
    pub setup_s: f64,
    /// Host seconds of the simulation phase only.
    pub run_s: f64,
    /// Engine events delivered.
    pub events: u64,
    /// Simulated makespan, µs.
    pub sim_time_us: f64,
    /// Request latency, when this workload takes it from a plain run.
    pub latency: Option<Latency>,
    /// §3.2 error, when this workload is the §3.2 testbed.
    pub paper_err_pct: Option<f64>,
    /// Operations of this repetition that failed.
    pub failed_ops: u64,
    /// Per-layer values of this repetition.
    pub layer: Vec<(&'static str, f64)>,
}

/// One observed repetition.
#[derive(Debug, Default)]
pub struct Observed {
    /// Host seconds for the whole observed pass: build, traced and sampled
    /// run, analysis.
    pub observed_s: f64,
    pub events: u64,
    pub sim_time_us: f64,
    pub latency: Option<Latency>,
    pub layer: Vec<(&'static str, f64)>,
}

/// A benchmark workload.
pub trait Workload {
    /// Operations one repetition attempts.
    fn ops(&self) -> u64;
    /// Runs one plain repetition; `Err` is a failed correctness gate.
    fn plain(&self, seed: u64, tr: &mut Tracer) -> Result<Plain, String>;
    /// Runs one observed repetition; `Err` is a failed correctness gate.
    fn observed(&self, seed: u64, tr: &mut Tracer) -> Result<Observed, String>;
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "basic_2node" => Box::new(Basic2Node::FULL),
        "stencil_64" => Box::new(Stencil64),
        "kv_crash" => Box::new(KvCrash),
        "hold_16k" => Box::new(Hold16k),
        _ => return None,
    })
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["basic_2node", "stencil_64", "kv_crash", "hold_16k"];

// ------------------------------------------------------------ shared parts

/// Raw per-layer counts of plain cluster runs, summed over a batch.
#[derive(Default)]
struct ClusterCounts {
    events: u64,
    run_s: f64,
    run_allocs: u64,
    peak_pending: usize,
    packets: u64,
    retx: u64,
    retx_bytes: u64,
    ctrl_discards: u64,
    peer_downs: u64,
    node_events: u64,
    switch_events: u64,
    stall: SimTime,
    rx_high_water: u32,
    writes: Mean,
    reads: Mean,
    atomics: Mean,
    op_failures: u64,
}

impl ClusterCounts {
    /// Adds a finished cluster whose simulation phase took `run`.
    fn add(&mut self, cluster: &Cluster, run: Timed) {
        let es = cluster.engine_stats();
        self.events += es.events_delivered;
        self.run_s += run.secs;
        self.run_allocs += run.allocs;
        self.peak_pending = self.peak_pending.max(es.max_queue_len);
        self.packets += cluster.fabric_packets();
        self.retx += cluster.fabric_retransmits();
        self.retx_bytes += cluster.fabric_retx_bytes();
        self.ctrl_discards += cluster.fabric_ctrl_discards();
        for c in cluster.component_stats() {
            match c.detail {
                ComponentDetail::Node {
                    rx_fifo_high_water,
                    credit_stall,
                    ..
                } => {
                    self.node_events += c.events.delivered;
                    self.stall += credit_stall;
                    self.rx_high_water = self.rx_high_water.max(rx_fifo_high_water);
                }
                ComponentDetail::Switch { credit_stall, .. } => {
                    self.switch_events += c.events.delivered;
                    self.stall += credit_stall;
                }
            }
        }
        for i in 0..cluster.node_count() {
            let st = cluster.node(i).stats();
            self.writes
                .add(st.remote_writes.count(), st.remote_writes.mean());
            self.reads
                .add(st.remote_reads.count(), st.remote_reads.mean());
            self.atomics.add(st.atomics.count(), st.atomics.mean());
            self.op_failures += st.op_failures;
            self.peer_downs += st.peer_downs;
        }
    }

    fn layers(&self) -> Vec<(&'static str, f64)> {
        let events = (self.events as f64).max(1.0);
        let packets = self.packets as f64;
        vec![
            ("sim.ns_per_event", self.run_s * 1e9 / events),
            ("sim.peak_pending", self.peak_pending as f64),
            ("sim.allocs_per_event", self.run_allocs as f64 / events),
            ("net.packets", packets),
            (
                "net.events_per_packet",
                if self.packets == 0 {
                    0.0
                } else {
                    events / packets
                },
            ),
            ("net.switch_events", self.switch_events as f64),
            ("core.node_events", self.node_events as f64),
            ("net.credit_stall_us", self.stall.as_us_f64()),
            ("net.retransmits", self.retx as f64),
            ("net.retx_bytes", self.retx_bytes as f64),
            (
                "net.useful_frac",
                packets / ((self.packets + self.retx) as f64).max(1.0),
            ),
            ("net.ctrl_discards", self.ctrl_discards as f64),
            ("net.peer_downs", self.peer_downs as f64),
            ("hib.remote_write_us", self.writes.mean()),
            ("hib.remote_read_us", self.reads.mean()),
            ("hib.atomic_us", self.atomics.mean()),
            ("hib.op_failures", self.op_failures as f64),
            ("core.rx_fifo_high_water", f64::from(self.rx_high_water)),
        ]
    }
}

/// The per-layer values of one plain cluster run.
fn cluster_layers(cluster: &Cluster, run: Timed) -> Vec<(&'static str, f64)> {
    let mut c = ClusterCounts::default();
    c.add(cluster, run);
    c.layers()
}

/// A count-weighted mean of per-node means.
#[derive(Default)]
struct Mean {
    n: u64,
    sum: f64,
}

impl Mean {
    fn add(&mut self, n: u64, mean: f64) {
        if n > 0 {
            self.n += n;
            self.sum += mean * n as f64;
        }
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// The larger relative error, in percent, of the mean remote write and
/// read against §3.2.
pub fn paper_err_pct(write_us: f64, read_us: f64) -> f64 {
    let w = (write_us - PAPER_WRITE_US).abs() / PAPER_WRITE_US;
    let r = (read_us - PAPER_READ_US).abs() / PAPER_READ_US;
    100.0 * w.max(r)
}

/// Attributes every traced op, checks that its segments telescope to its
/// latency, and returns the latencies in simulated ns.
fn attribute(
    tr: &mut Tracer,
    collector: &telegraphos::TraceCollector,
) -> Result<(Vec<u64>, f64), String> {
    let (attribs, t) = tr.span("tg_analyze::attribute_ops", |_| {
        attribute_ops(&collector.op_events(), &collector.packet_events())
    });
    tr.count("ops", attribs.len() as u64);
    if let Some(a) = attribs
        .iter()
        .find(|a: &&OpAttribution| a.total() != a.latency())
    {
        return Err(format!(
            "attribution of a {} on node{} sums to {} but the op took {}",
            a.op.kind,
            a.op.node.raw(),
            a.total(),
            a.latency()
        ));
    }
    Ok((
        attribs.iter().map(|a| a.latency().as_ns()).collect(),
        t.secs,
    ))
}

fn probe_events(collector: &telegraphos::TraceCollector) -> f64 {
    (collector.packet_event_count() + collector.op_event_count()) as f64
}

/// The observed pass of a cluster that drains on its own: trace it, run
/// it under the 1 µs sampler, attribute every op and rank the links, then
/// check its answer. The caller times the whole pass.
fn observe_sampled(
    tr: &mut Tracer,
    mut cluster: Cluster,
    verify: impl FnOnce(&mut Tracer, &Cluster) -> Result<(), String>,
) -> Result<Observed, String> {
    let (collector, _) = tr.span("Cluster::enable_tracing", |_| cluster.enable_tracing());
    let mut metrics = MetricsRegistry::new();
    let (_, run) = tr.span("Cluster::run_sampled", |_| {
        cluster.run_sampled(SimTime::from_us(1), &mut metrics)
    });
    let events = cluster.engine_stats().events_delivered;
    tr.count("events", events);
    let (lat, attrib_s) = attribute(tr, &collector)?;
    let congestion_s = congestion(tr, &metrics)?;
    verify(tr, &cluster)?;
    let samples: u64 = metrics.all_series().map(|(_, s)| s.len() as u64).sum();
    Ok(Observed {
        observed_s: 0.0,
        events,
        sim_time_us: cluster.now().as_us_f64(),
        latency: Some(Latency::from_ns(lat)?),
        layer: vec![
            ("observe.probe_events", probe_events(&collector)),
            ("observe.samples", samples as f64),
            ("observe.run_sampled_s", run.secs),
            (
                "observe.allocs_per_event",
                run.allocs as f64 / (events as f64).max(1.0),
            ),
            ("analyze.attrib_s", attrib_s),
            ("analyze.congestion_s", congestion_s),
        ],
    })
}

/// Congestion analysis of a sampled run: per-link usage and the hottest
/// links, as `simreport run` prints them.
fn congestion(tr: &mut Tracer, metrics: &MetricsRegistry) -> Result<f64, String> {
    let (hot, t) = tr.span("tg_analyze::link_usage", |tr| {
        let usage = link_usage(metrics);
        tr.span("tg_analyze::hottest_links", |_| hottest_links(&usage, 5))
            .0
    });
    if hot.is_empty() {
        return Err("the congestion observatory saw no links".to_string());
    }
    Ok(t.secs)
}

// -------------------------------------------------------------- basic_2node

/// The §3.2 testbed: two workstations on one switch. Node 0 streams
/// remote writes into a page homed on node 1, then streams remote reads
/// from it.
#[derive(Clone, Copy, Debug)]
pub struct Basic2Node {
    pub writes: u64,
    pub reads: u64,
}

impl Basic2Node {
    pub const FULL: Basic2Node = Basic2Node {
        writes: 100_000,
        reads: 25_000,
    };

    /// A short pass of the same testbed: the model-accuracy check the
    /// other workloads report as their `paper_err_pct`.
    pub const CALIBRATION: Basic2Node = Basic2Node {
        writes: 20_000,
        reads: 5_000,
    };

    fn build(&self, tr: &mut Tracer) -> (Cluster, ReadCheck, f64) {
        let ((cluster, check), t) = tr.span("ClusterBuilder::build", |_| {
            let mut cluster = ClusterBuilder::new(2).build();
            let page = cluster.alloc_shared(1);
            let check = ReadCheck::default();
            cluster.set_process(
                0,
                Then::new(
                    stream_writes(&page, self.writes),
                    stream_reads(&page, self.reads),
                    check.clone(),
                ),
            );
            (cluster, check)
        });
        (cluster, check, t.secs)
    }

    /// Every op completed, and every read returned the last value the
    /// write stream left in its word.
    fn verify(&self, cluster: &Cluster, check: &ReadCheck) -> Result<(), String> {
        let st = cluster.node(0).stats();
        let (w, r) = (st.remote_writes.count(), st.remote_reads.count());
        if !cluster.all_halted() || w != self.writes || r != self.reads {
            return Err(format!(
                "basic_2node completed {w}/{} writes and {r}/{} reads",
                self.writes, self.reads
            ));
        }
        if check.failed.get() > 0 || st.op_failures > 0 {
            return Err(format!(
                "basic_2node: {} ops failed",
                check.failed.get().max(st.op_failures)
            ));
        }
        let want: u64 = (0..self.reads)
            .map(|i| last_write(self.writes, i % PAGE_WORDS))
            .sum();
        if check.reads.get() != self.reads || check.sum.get() != want {
            return Err(format!(
                "basic_2node read back {} values summing to {}, want {} summing to {want}",
                check.reads.get(),
                check.sum.get(),
                self.reads
            ));
        }
        Ok(())
    }
}

/// The value `stream_writes(_, writes)` leaves in word `w`: it writes
/// `i + 1` to word `i % PAGE_WORDS`.
fn last_write(writes: u64, w: u64) -> u64 {
    if w >= writes {
        return 0;
    }
    let last = w + (writes - 1 - w) / PAGE_WORDS * PAGE_WORDS;
    last + 1
}

/// What the read phase returned, shared with the process inside the
/// cluster.
#[derive(Clone, Default)]
struct ReadCheck {
    reads: Rc<Cell<u64>>,
    sum: Rc<Cell<u64>>,
    failed: Rc<Cell<u64>>,
}

/// Runs `first` to its halt, then `second`, recording what `second`'s
/// reads return.
struct Then {
    first: Option<Script>,
    second: Script,
    check: ReadCheck,
}

impl Then {
    fn new(first: Script, second: Script, check: ReadCheck) -> Self {
        Then {
            first: Some(first),
            second,
            check,
        }
    }
}

impl Process for Then {
    fn resume(&mut self, r: Resume) -> Action {
        if let Resume::Failed(_) = r {
            self.check.failed.set(self.check.failed.get() + 1);
        }
        if let Some(first) = &mut self.first {
            match first.resume(r) {
                Action::Halt => self.first = None,
                a => return a,
            }
            return self.second.resume(Resume::Start);
        }
        if let Resume::Value(v) = r {
            self.check.reads.set(self.check.reads.get() + 1);
            self.check.sum.set(self.check.sum.get().wrapping_add(v));
        }
        self.second.resume(r)
    }
}

impl Workload for Basic2Node {
    fn ops(&self) -> u64 {
        self.writes + self.reads
    }

    fn plain(&self, _seed: u64, tr: &mut Tracer) -> Result<Plain, String> {
        let (mut cluster, check, setup_s) = self.build(tr);
        let (_, run) = tr.span("Cluster::run", |_| cluster.run());
        let events = cluster.engine_stats().events_delivered;
        tr.count("events", events);
        let (ok, chk) = tr.span("check", |_| self.verify(&cluster, &check));
        ok?;
        let st = cluster.node(0).stats();
        let mut layer = cluster_layers(&cluster, run);
        layer.push(("core.build_s", setup_s));
        layer.push(("core.check_s", chk.secs));
        Ok(Plain {
            setup_s,
            run_s: run.secs,
            events,
            sim_time_us: cluster.now().as_us_f64(),
            latency: None,
            paper_err_pct: Some(paper_err_pct(
                st.remote_writes.mean(),
                st.remote_reads.mean(),
            )),
            failed_ops: 0,
            layer,
        })
    }

    fn observed(&self, _seed: u64, tr: &mut Tracer) -> Result<Observed, String> {
        let (obs, t) = tr.span("observed", |tr| {
            let (cluster, check, _) = self.build(tr);
            observe_sampled(tr, cluster, |tr, c| {
                tr.span("check", |_| self.verify(c, &check)).0
            })
        });
        Ok(Observed {
            observed_s: t.secs,
            ..obs?
        })
    }
}

// --------------------------------------------------------------- stencil_64

/// `harness::build_stencil` on 64 nodes over a lossless star.
pub struct Stencil64;

const STENCIL_NODES: u16 = 64;
const STENCIL_STRIP: usize = 8;
const STENCIL_SWEEPS: u32 = 48;

impl Stencil64 {
    fn build(tr: &mut Tracer) -> ((Cluster, harness::StencilCheck), f64) {
        let opts = HarnessOptions {
            nodes: STENCIL_NODES,
            ..HarnessOptions::default()
        };
        let (built, t) = tr.span("harness::build_stencil", |_| {
            harness::build_stencil(&opts, STENCIL_STRIP, STENCIL_SWEEPS)
        });
        (built, t.secs)
    }

    fn verify(
        tr: &mut Tracer,
        cluster: &Cluster,
        check: &harness::StencilCheck,
    ) -> Result<f64, String> {
        let (ok, t) = tr.span("harness::verify_stencil", |_| {
            if !cluster.all_halted() {
                return Err("stencil_64 did not halt".to_string());
            }
            harness::verify_stencil(cluster, check)
        });
        ok.map(|()| t.secs)
    }
}

impl Workload for Stencil64 {
    /// One node's sweep is one operation.
    fn ops(&self) -> u64 {
        u64::from(STENCIL_NODES) * u64::from(STENCIL_SWEEPS)
    }

    fn plain(&self, _seed: u64, tr: &mut Tracer) -> Result<Plain, String> {
        let ((mut cluster, check), setup_s) = Self::build(tr);
        let (_, run) = tr.span("Cluster::run", |_| cluster.run());
        let events = cluster.engine_stats().events_delivered;
        tr.count("events", events);
        let check_s = Self::verify(tr, &cluster, &check)?;
        let mut layer = cluster_layers(&cluster, run);
        layer.push(("core.build_s", setup_s));
        layer.push(("core.check_s", check_s));
        Ok(Plain {
            setup_s,
            run_s: run.secs,
            events,
            sim_time_us: cluster.now().as_us_f64(),
            latency: None,
            paper_err_pct: None,
            failed_ops: 0,
            layer,
        })
    }

    fn observed(&self, _seed: u64, tr: &mut Tracer) -> Result<Observed, String> {
        let (obs, t) = tr.span("observed", |tr| {
            let ((cluster, check), _) = Self::build(tr);
            observe_sampled(tr, cluster, |tr, c| Self::verify(tr, c, &check).map(drop))
        });
        Ok(Observed {
            observed_s: t.secs,
            ..obs?
        })
    }
}

// ----------------------------------------------------------------- kv_crash

/// The replicated KV service on reliable SACK links, four clients of 250
/// requests each (70% puts) arriving open-loop every 120 µs on average
/// (gaps `120 µs << k`, `P(k) = 2^-(k+1)`, `k <= 2`); replica node 1
/// crashes at 400 µs and restarts at 3 ms. No frames are dropped: with
/// the crash, any seeded frame loss makes a few seeds in a hundred
/// collapse, every client suspecting every replica and most requests
/// failing unreachable, and the benchmark's workloads must not fail.
///
/// One repetition drives a batch of [`KV_BATCH`] independent deployments
/// on seeds derived from the workload seed and pools their request
/// latencies, so that the p99 rests on 40 samples beyond it.
pub struct KvCrash;

const KV_VICTIM: u16 = 1;
pub const KV_BATCH: u64 = 4;

/// One deployment, driven and audited.
struct KvRun {
    cluster: Cluster,
    report: tg_kv::AuditReport,
    setup_s: f64,
    drive: Timed,
    audit_s: f64,
}

impl KvCrash {
    fn config(seed: u64) -> (HarnessOptions, KvConfig) {
        let opts = HarnessOptions {
            reliable: true,
            mode: RetxMode::Sack,
            heartbeats: true,
            crash: Some((KV_VICTIM, 400)),
            restart_us: Some(3_000),
            fault_seed: 0xFA_4B56 ^ seed,
            ..HarnessOptions::default()
        };
        let cfg = KvConfig {
            clients: 4,
            requests_per_client: 250,
            write_ratio_pct: 70,
            arrival_gap: SimTime::from_us(120),
            tail_shift_max: 2,
            seed: 0x4B56_0000 ^ seed,
            ..KvConfig::default()
        };
        (opts, cfg)
    }

    fn requests(cfg: &KvConfig) -> u64 {
        u64::from(cfg.clients) * u64::from(cfg.requests_per_client)
    }

    /// The seeds of one batch.
    fn batch(seed: u64) -> impl Iterator<Item = u64> {
        (0..KV_BATCH).map(move |i| seed.wrapping_mul(KV_BATCH).wrapping_add(i))
    }

    /// Builds one deployment (traced when `trace`), drives it to the end
    /// and audits it.
    fn deploy_and_drive(
        tr: &mut Tracer,
        seed: u64,
        trace: bool,
    ) -> Result<(KvRun, Option<telegraphos::TraceCollector>), String> {
        let (opts, cfg) = Self::config(seed);
        let ((mut cluster, handles), setup) =
            tr.span("harness::build_kv", |_| harness::build_kv(&opts, &cfg));
        let collector = trace.then(|| {
            tr.span("Cluster::enable_tracing", |_| cluster.enable_tracing())
                .0
        });
        let (limit, drive_t) = tr.span("tg_kv::drive", |_| {
            drive(
                &mut cluster,
                &handles,
                SimTime::from_us(50),
                SimTime::from_ms(200),
            )
        });
        tr.count("events", cluster.engine_stats().events_delivered);
        let (report, audit_t) = tr.span("tg_kv::audit", |_| {
            audit(&cluster, &handles, &[NodeId::new(KV_VICTIM)])
        });
        if limit == RunLimit::Deadline {
            return Err(format!(
                "kv_crash seed {seed} did not finish within 200 ms simulated"
            ));
        }
        if let Some(v) = report.violations.first() {
            return Err(format!(
                "kv_crash seed {seed} audit: {v} ({} violations)",
                report.violations.len()
            ));
        }
        let resolved = report.committed_puts
            + report.committed_gets
            + report.rejected_busy
            + report.failed_unreachable;
        if resolved != Self::requests(&cfg) {
            return Err(format!(
                "kv_crash seed {seed} resolved {resolved} of {} requests",
                Self::requests(&cfg)
            ));
        }
        let run = KvRun {
            cluster,
            report,
            setup_s: setup.secs,
            drive: drive_t,
            audit_s: audit_t.secs,
        };
        Ok((run, collector))
    }
}

impl Workload for KvCrash {
    fn ops(&self) -> u64 {
        KV_BATCH * Self::requests(&Self::config(0).1)
    }

    fn plain(&self, seed: u64, tr: &mut Tracer) -> Result<Plain, String> {
        let mut counts = ClusterCounts::default();
        let (mut setup_s, mut audit_s, mut sim_time_us) = (0.0, 0.0, 0.0);
        let mut lat = Vec::new();
        let mut kv = [0u64; 7];
        for s in Self::batch(seed) {
            let (run, _) = Self::deploy_and_drive(tr, s, false)?;
            counts.add(&run.cluster, run.drive);
            setup_s += run.setup_s;
            audit_s += run.audit_s;
            sim_time_us += run.cluster.now().as_us_f64();
            let r = &run.report;
            lat.extend_from_slice(&r.latencies_ns);
            for (k, v) in kv.iter_mut().zip([
                r.timeouts,
                r.failovers,
                r.dedup_hits,
                r.fresh_applies,
                r.rejected_busy,
                r.failed_unreachable,
                r.committed_puts + r.committed_gets,
            ]) {
                *k += v;
            }
        }
        let [timeouts, failovers, dedup, fresh, busy, unreachable, _] = kv.map(|v| v as f64);
        let mut layer = counts.layers();
        layer.extend([
            ("core.build_s", setup_s),
            ("core.check_s", audit_s),
            ("kv.timeouts", timeouts),
            ("kv.failovers", failovers),
            ("kv.dedup_hits", dedup),
            ("kv.useful_frac", fresh / (fresh + dedup).max(1.0)),
            ("kv.rejected_busy", busy),
            ("kv.failed_unreachable", unreachable),
            ("kv.drive_s", counts.run_s),
            ("kv.audit_s", audit_s),
        ]);
        Ok(Plain {
            setup_s,
            run_s: counts.run_s,
            events: counts.events,
            sim_time_us,
            latency: Some(Latency::from_ns(lat)?),
            paper_err_pct: None,
            failed_ops: kv[4] + kv[5],
            layer,
        })
    }

    fn observed(&self, seed: u64, tr: &mut Tracer) -> Result<Observed, String> {
        let (obs, t) = tr.span("observed", |tr| {
            let mut o = Observed::default();
            let (mut probes, mut run_s, mut run_allocs, mut attrib_s) = (0.0, 0.0, 0u64, 0.0);
            for s in Self::batch(seed) {
                // A heartbeat cluster never drains, so `run_sampled` cannot
                // drive it: the observed pass traces and attributes only.
                let (run, collector) = Self::deploy_and_drive(tr, s, true)?;
                let collector = collector.expect("traced deployment");
                let (_, a) = attribute(tr, &collector)?;
                o.events += run.cluster.engine_stats().events_delivered;
                o.sim_time_us += run.cluster.now().as_us_f64();
                probes += probe_events(&collector);
                run_s += run.drive.secs;
                run_allocs += run.drive.allocs;
                attrib_s += a;
            }
            o.layer = vec![
                ("observe.probe_events", probes),
                ("observe.run_sampled_s", run_s),
                (
                    "observe.allocs_per_event",
                    run_allocs as f64 / (o.events as f64).max(1.0),
                ),
                ("analyze.attrib_s", attrib_s),
            ];
            Ok::<_, String>(o)
        });
        Ok(Observed {
            observed_s: t.secs,
            ..obs?
        })
    }
}

// ----------------------------------------------------------------- hold_16k

/// A bare `tg_sim::Engine` in the classic hold model: 16384 events stay
/// pending, and each delivery schedules one new event a seeded, bounded
/// random increment later.
pub struct Hold16k;

pub const HOLD_PENDING: u64 = 16_384;
pub const HOLD_COUNT: u64 = 2_000_000;
/// Increments are uniform on [1 ns, 2 µs], in picoseconds.
const HOLD_MIN_PS: u64 = 1_000;
const HOLD_MAX_PS: u64 = 2_000_000;

/// A hold event: when it was scheduled.
#[derive(Clone, Copy, Debug)]
pub struct HoldMsg {
    sent_at: SimTime,
}

struct Holder {
    rng: SimRng,
    holds_left: u64,
    /// Scheduling-to-delivery latency of every event, ps.
    latency: LogHistogram,
}

impl Component<HoldMsg> for Holder {
    fn on_event(&mut self, msg: HoldMsg, ctx: &mut Ctx<'_, HoldMsg>) {
        self.latency
            .record(ctx.now().saturating_sub(msg.sent_at).as_ps());
        if self.holds_left > 0 {
            self.holds_left -= 1;
            let inc = SimTime::from_ps(self.rng.range_between(HOLD_MIN_PS, HOLD_MAX_PS));
            ctx.send_self(inc, HoldMsg { sent_at: ctx.now() });
        }
    }

    fn name(&self) -> &str {
        "holder"
    }
}

impl Hold16k {
    fn build(seed: u64, tr: &mut Tracer) -> ((Engine<HoldMsg>, tg_sim::CompId), f64) {
        let (built, t) = tr.span("Engine::schedule", |_| {
            let mut engine = Engine::new();
            let mut rng = SimRng::new(0x401D ^ seed);
            let fork = rng.fork(1);
            let id = engine.add(Holder {
                rng: fork,
                holds_left: HOLD_COUNT,
                latency: LogHistogram::new(),
            });
            for _ in 0..HOLD_PENDING {
                let inc = SimTime::from_ps(rng.range_between(HOLD_MIN_PS, HOLD_MAX_PS));
                engine.schedule(
                    inc,
                    id,
                    HoldMsg {
                        sent_at: SimTime::ZERO,
                    },
                );
            }
            (engine, id)
        });
        (built, t.secs)
    }

    fn verify(engine: &Engine<HoldMsg>, id: tg_sim::CompId) -> Result<&LogHistogram, String> {
        let st = engine.stats();
        let holder = engine
            .get::<Holder>(id)
            .ok_or("the holder component is gone")?;
        if st.events_delivered != HOLD_PENDING + HOLD_COUNT || holder.holds_left != 0 {
            return Err(format!(
                "hold_16k delivered {} events, want {}",
                st.events_delivered,
                HOLD_PENDING + HOLD_COUNT
            ));
        }
        if st.max_queue_len as u64 != HOLD_PENDING || engine.pending_events() != 0 {
            return Err(format!(
                "hold_16k depth peaked at {}, want {HOLD_PENDING}",
                st.max_queue_len
            ));
        }
        Ok(&holder.latency)
    }
}

impl Workload for Hold16k {
    fn ops(&self) -> u64 {
        HOLD_COUNT
    }

    fn plain(&self, seed: u64, tr: &mut Tracer) -> Result<Plain, String> {
        let ((mut engine, id), setup_s) = Self::build(seed, tr);
        let (_, run) = tr.span("Engine::run", |_| engine.run());
        let events = engine.stats().events_delivered;
        tr.count("events", events);
        let (hist, chk) = tr.span("check", |_| Self::verify(&engine, id).cloned());
        let hist = hist?;
        let n = hist.count();
        let ps_to_us = |p: Percentile| Percentile {
            value: p.value / 1e6,
            ..p
        };
        let latency = Latency {
            p50: ps_to_us(percentile(n, 0.50, |_| hist.quantile(0.50) as f64)?),
            p99: ps_to_us(percentile(n, 0.99, |_| hist.quantile(0.99) as f64)?),
        };
        let heap = engine.queue_kind() == QueueKind::Heap;
        let evs = events as f64;
        Ok(Plain {
            setup_s,
            run_s: run.secs,
            events,
            sim_time_us: engine.now().as_us_f64(),
            latency: Some(latency),
            paper_err_pct: None,
            failed_ops: 0,
            layer: vec![
                ("sim.ns_per_event", run.secs * 1e9 / evs),
                ("sim.peak_pending", engine.stats().max_queue_len as f64),
                ("sim.queue_heap", if heap { 1.0 } else { 0.0 }),
                ("sim.allocs_per_event", run.allocs as f64 / evs),
                ("core.build_s", setup_s),
                ("core.check_s", chk.secs),
            ],
        })
    }

    fn observed(&self, seed: u64, tr: &mut Tracer) -> Result<Observed, String> {
        let (obs, t) = tr.span("observed", |tr| {
            let ((mut engine, id), _) = Self::build(seed, tr);
            // The engine's per-event observer. Its debug trace ring is left
            // out: it formats every event, and that pass's host time spread
            // 18-19% across runs, beyond what the benchmark can bound.
            let seen = Rc::new(Cell::new(0u64));
            let hook_seen = Rc::clone(&seen);
            engine.set_delivery_hook(Box::new(move |_, _, _| hook_seen.set(hook_seen.get() + 1)));
            let (_, run) = tr.span("Engine::run", |_| engine.run());
            let events = engine.stats().events_delivered;
            tr.count("events", events);
            Self::verify(&engine, id)?;
            if seen.get() != events {
                return Err(format!(
                    "the delivery hook saw {} of {events} events",
                    seen.get()
                ));
            }
            Ok(Observed {
                observed_s: 0.0,
                events,
                sim_time_us: engine.now().as_us_f64(),
                latency: None,
                layer: vec![
                    ("observe.probe_events", seen.get() as f64),
                    ("observe.run_sampled_s", run.secs),
                    (
                        "observe.allocs_per_event",
                        run.allocs as f64 / events as f64,
                    ),
                ],
            })
        });
        Ok(Observed {
            observed_s: t.secs,
            ..obs?
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_write_matches_the_write_stream() {
        // 1200 writes stride the 1024-word page: words 0..176 are written
        // twice (last by i = 1024..1200), the rest once.
        assert_eq!(PAGE_WORDS, 1024);
        assert_eq!(last_write(1200, 0), 1025);
        assert_eq!(last_write(1200, 175), 1200);
        assert_eq!(last_write(1200, 176), 177);
        assert_eq!(last_write(1200, 1200), 0);
    }

    #[test]
    fn a_short_testbed_passes_its_gates_alike_plain_and_observed() {
        let wl = Basic2Node {
            writes: 4_000,
            reads: 1_500,
        };
        let mut tr = Tracer::new(true);
        let plain = wl.plain(0, &mut tr).expect("plain gates hold");
        let observed = wl.observed(0, &mut tr).expect("observed gates hold");
        assert_eq!(plain.events, observed.events);
        assert_eq!(plain.sim_time_us, observed.sim_time_us);
        let err = plain.paper_err_pct.expect("the testbed measures its error");
        assert!(err > 0.0 && err < 25.0, "{err}");
        assert!(observed.latency.is_some());
        let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
        for call in [
            "ClusterBuilder::build",
            "Cluster::run",
            "Cluster::run_sampled",
        ] {
            assert!(names.contains(&call), "{call} missing from {names:?}");
        }
    }
}
