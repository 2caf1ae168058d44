//! End-to-end observability: packet-lifecycle tracing, per-stage latency
//! breakdowns, congestion metrics and the Chrome trace-event export.

use std::collections::HashMap;

use telegraphos::observe::{
    breakdown_report, chrome_events, chrome_trace_json, json_is_wellformed,
};
use telegraphos::sync::{BarrierWait, SyncStep};
use telegraphos::{Action, Cluster, ClusterBuilder, ComponentDetail, Process, Resume, Script};
use tg_net::Topology;
use tg_sim::{MetricsRegistry, SimTime};
use tg_wire::metric;
use tg_wire::trace::{OpKind, Stage};

/// Two nodes; node 0 exercises remote writes, a blocking read and an
/// atomic against a page homed on node 1.
fn traced_cluster() -> (
    Cluster,
    telegraphos::TraceCollector,
    telegraphos::SharedPage,
) {
    let mut cluster = ClusterBuilder::new(2).build();
    let page = cluster.alloc_shared(1);
    let collector = cluster.enable_tracing();
    cluster.set_process(
        0,
        Script::new(vec![
            Action::Write(page.va(0), 7),
            Action::Fence,
            Action::Read(page.va(0)),
            Action::FetchAdd(page.va(8), 5),
            Action::Write(page.va(16), 9),
            Action::Fence,
        ]),
    );
    (cluster, collector, page)
}

#[test]
fn tracing_records_full_packet_lifecycles() {
    let (mut cluster, collector, page) = traced_cluster();
    cluster.run();
    assert!(cluster.all_halted());
    assert_eq!(cluster.read_shared(&page, 0), 7);

    let packets = collector.packet_events();
    assert!(!packets.is_empty(), "no packet events recorded");
    // Every stage of the request path shows up for at least one packet.
    for stage in [
        Stage::TxEnqueue,
        Stage::TxLaunch,
        Stage::SwitchEnqueue,
        Stage::SwitchTx,
        Stage::RxEnqueue,
        Stage::RxStart,
        Stage::Commit,
    ] {
        assert!(
            packets.iter().any(|p| p.stage == stage),
            "no event for stage {stage}"
        );
    }
    // Events arrive in non-decreasing time order (engine delivery order).
    for w in packets.windows(2) {
        assert!(w[0].at <= w[1].at, "packet events out of order");
    }
    // Responses are chained to their requests.
    assert!(
        packets.iter().any(|p| p.parent.is_some()),
        "no response was chained to a request"
    );
}

#[test]
fn op_events_reconcile_with_node_stats() {
    let (mut cluster, collector, _page) = traced_cluster();
    cluster.run();

    let ops = collector.op_events();
    let st = cluster.node(0).stats();
    let mut sums: HashMap<&'static str, (u64, f64)> = HashMap::new();
    for op in &ops {
        assert_eq!(op.node.raw(), 0, "only node 0 issues ops");
        let e = sums.entry(op.kind.label()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += op.end.saturating_sub(op.start).as_us_f64();
    }
    for (label, summary) in [
        (OpKind::RemoteWrite.label(), &st.remote_writes),
        (OpKind::RemoteRead.label(), &st.remote_reads),
        (OpKind::Atomic.label(), &st.atomics),
        (OpKind::Fence.label(), &st.fences),
    ] {
        let (count, sum_us) = sums.get(label).copied().unwrap_or((0, 0.0));
        assert_eq!(count, summary.count(), "{label}: op-event count mismatch");
        let want = summary.mean() * summary.count() as f64;
        assert!(
            (sum_us - want).abs() <= 1e-6 * (1.0 + want.abs()),
            "{label}: probe total {sum_us}us vs NodeStats {want}us"
        );
    }
}

#[test]
fn breakdowns_telescope_to_end_to_end_latency() {
    let (mut cluster, collector, _page) = traced_cluster();
    cluster.run();

    let breakdowns = collector.breakdowns();
    // Remote writes, the read and the atomic all injected traceable
    // requests.
    assert!(
        breakdowns.len() >= 4,
        "expected breakdowns, got {}",
        breakdowns.len()
    );
    for b in &breakdowns {
        assert_eq!(
            b.total(),
            b.op.end.saturating_sub(b.op.start),
            "breakdown of {} does not telescope",
            b.op.kind
        );
    }
    // The blocking read's breakdown reaches the remote commit and comes
    // back: it must contain both request and response segments.
    let read = breakdowns
        .iter()
        .find(|b| b.op.kind == OpKind::RemoteRead)
        .expect("a remote-read breakdown");
    assert!(read.segments.iter().any(|s| s.label == "commit"));
    assert!(read.segments.iter().any(|s| s.label.starts_with("resp-")));

    let report = breakdown_report(&breakdowns);
    assert!(report.contains("remote-read"));
    assert!(report.contains("cpu-complete"));
}

#[test]
fn chrome_export_is_wellformed_and_monotonic_per_track() {
    let (mut cluster, collector, _page) = traced_cluster();
    cluster.run();

    let events = chrome_events(&collector.op_events(), &collector.packet_events());
    assert!(events.iter().any(|e| e.ph == 'M'), "no track metadata");
    assert!(events.iter().any(|e| e.ph == 'X'), "no spans");
    let mut last: HashMap<(u32, u32), f64> = HashMap::new();
    for ev in &events {
        let t = last.entry((ev.pid, ev.tid)).or_insert(0.0);
        assert!(ev.ts_us >= *t, "ts went backwards on a track");
        *t = ev.ts_us;
    }
    let json = chrome_trace_json(&events);
    assert!(json_is_wellformed(&json), "export is not valid JSON");
    assert!(json.contains("\"traceEvents\""));
}

#[test]
fn component_stats_surface_congestion_detail() {
    let (mut cluster, _collector, _page) = traced_cluster();
    cluster.run();

    let reports = cluster.component_stats();
    assert_eq!(reports.len(), 3, "2 nodes + 1 switch");
    let mut saw_node1_rx = false;
    for r in &reports {
        match &r.detail {
            ComponentDetail::Node {
                rx_fifo_high_water,
                rx_fifo_depth,
                tx_queue_depth,
                ..
            } => {
                // Queues drained at end of run.
                assert_eq!(*rx_fifo_depth, 0);
                assert_eq!(*tx_queue_depth, 0);
                if r.name == "node1" {
                    assert!(*rx_fifo_high_water >= 1, "node1 never queued an rx packet");
                    saw_node1_rx = true;
                }
            }
            ComponentDetail::Switch {
                packets,
                fifo_high_water,
                fifo_depth,
                ..
            } => {
                assert!(*packets > 0, "switch forwarded nothing");
                assert!(*fifo_high_water >= 1);
                assert_eq!(*fifo_depth, 0);
            }
        }
        assert!(r.events.delivered > 0, "{} handled no events", r.name);
    }
    assert!(saw_node1_rx);
}

#[test]
fn run_sampled_populates_the_metrics_registry() {
    let mut cluster = ClusterBuilder::new(2).build();
    let page = cluster.alloc_shared(1);
    cluster.set_process(
        0,
        Script::new(vec![
            Action::Write(page.va(0), 1),
            Action::Fence,
            Action::Read(page.va(0)),
        ]),
    );
    let mut metrics = MetricsRegistry::new();
    cluster.run_sampled(SimTime::from_us(1), &mut metrics);
    assert!(cluster.all_halted());

    let samples = metrics
        .series_by_name("fabric.bytes_total")
        .expect("series registered");
    assert!(!samples.is_empty(), "no samples recorded");
    // Cumulative byte counts never decrease and end positive.
    for (a, b) in samples.iter().zip(samples.iter().skip(1)) {
        assert!(a.value <= b.value);
        assert!(a.at <= b.at);
    }
    assert!(samples.last().unwrap().value > 0.0);

    assert_eq!(metrics.counter_by_name("node0.remote_writes"), Some(1));
    assert!(metrics.series_by_name("node0.rx_fifo_depth").is_some());
}

/// A stencil-shaped sweep: each sweep publishes `words` boundary words
/// into this node's eager-update page (multicast to its neighbours), then
/// meets every other node at a fetch-add barrier homed on node 0.
struct Sweeps {
    boundary: telegraphos::SharedPage,
    barrier: BarrierWait,
    counter: tg_mem::VAddr,
    sense: tg_mem::VAddr,
    nodes: u64,
    words: u64,
    sweeps: u32,
    done: u32,
    word: u64,
}

impl Process for Sweeps {
    fn resume(&mut self, r: Resume) -> Action {
        if self.done == self.sweeps {
            return Action::Halt;
        }
        if self.word < self.words {
            self.word += 1;
            let value = u64::from(self.done) * 1000 + self.word;
            return Action::Write(self.boundary.va((self.word - 1) * 8), value);
        }
        match self.barrier.step(r) {
            SyncStep::Do(a) => a,
            SyncStep::Ready => {
                self.done += 1;
                self.word = 0;
                let sense = u64::from(self.done % 2);
                self.barrier = BarrierWait::new(self.counter, self.sense, self.nodes, sense);
                self.resume(Resume::Start)
            }
        }
    }
}

/// Regression: the sampler reads component counters in place on every
/// tick; its series must agree with the snapshot path (`link_snapshots`,
/// `component_stats`) that it replaced.
#[test]
fn in_place_sampler_agrees_with_the_snapshot_path() {
    let n = 16u16;
    // One-packet endpoint FIFOs make the switch's output ports stall too,
    // not only the node uplinks.
    let mut cluster = ClusterBuilder::new(n)
        .topology(Topology::star(n).with_endpoint_fifo(1))
        .build();
    let boundary: Vec<_> = (0..n).map(|i| cluster.alloc_shared(i)).collect();
    for i in 0..n {
        let consumers: Vec<u16> = [i.checked_sub(1), Some(i + 1).filter(|&j| j < n)]
            .into_iter()
            .flatten()
            .collect();
        cluster.make_eager(&boundary[usize::from(i)], &consumers);
    }
    let coord = cluster.alloc_shared(0);
    for i in 0..n {
        cluster.set_process(
            i,
            Sweeps {
                boundary: boundary[usize::from(i)],
                barrier: BarrierWait::new(coord.va(0), coord.va(8), u64::from(n), 0),
                counter: coord.va(0),
                sense: coord.va(8),
                nodes: u64::from(n),
                words: 8,
                sweeps: 4,
                done: 0,
                word: 0,
            },
        );
    }
    let mut metrics = MetricsRegistry::new();
    cluster.run_sampled(SimTime::from_us(1), &mut metrics);
    assert!(cluster.all_halted());

    let last = |name: &str| {
        metrics
            .series_by_name(name)
            .unwrap_or_else(|| panic!("{name} not sampled"))
            .last()
            .expect("sampled at least once")
            .value
    };
    let links = cluster.link_snapshots();
    assert!(
        links.len() >= 2 * usize::from(n),
        "every uplink pair sampled"
    );
    for l in &links {
        let name = |leaf: &str| metric::link_metric(l.link.from, l.link.to, leaf);
        assert_eq!(
            last(&name("fifo_depth")).to_bits(),
            f64::from(l.rx_fifo_depth).to_bits()
        );
        assert_eq!(
            last(&name("stall_us")).to_bits(),
            l.credit_stall.as_us_f64().to_bits()
        );
    }
    let (mut node_stall, mut switch_stall) = (SimTime::ZERO, SimTime::ZERO);
    for r in cluster.component_stats() {
        match r.detail {
            ComponentDetail::Node { credit_stall, .. } => node_stall += credit_stall,
            ComponentDetail::Switch { credit_stall, .. } => switch_stall += credit_stall,
        }
    }
    assert!(!node_stall.is_zero(), "no node uplink ever stalled");
    assert!(!switch_stall.is_zero(), "no switch port ever stalled");
    let stall = node_stall + switch_stall;
    assert_eq!(
        last("fabric.credit_stall_us").to_bits(),
        stall.as_us_f64().to_bits()
    );
    let counts: Vec<usize> = metrics.all_series().map(|(_, s)| s.len()).collect();
    assert!(counts[0] > 1);
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "every series is sampled on every tick"
    );
}

#[test]
fn tracing_off_records_nothing_and_costs_nothing_visible() {
    // Same workload, no probe: results identical, no events anywhere.
    let mut cluster = ClusterBuilder::new(2).build();
    let page = cluster.alloc_shared(1);
    cluster.set_process(
        0,
        Script::new(vec![Action::Write(page.va(0), 7), Action::Fence]),
    );
    cluster.run();
    assert_eq!(cluster.read_shared(&page, 0), 7);
}
