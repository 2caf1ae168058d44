//! Integration tests for `tg-analyze`: the telescoping invariant of
//! critical-path attribution under link faults, the chain index against a
//! brute-force oracle on real traces, and determinism of the stencil_16
//! congestion report that the CI perf gate diffs.

use std::collections::HashMap;

use telegraphos::observe::op_chains;
use telegraphos::{RetxMode, TraceCollector};
use telegraphos_suite::harness::{self, HarnessOptions};
use tg_analyze::{
    attribute_ops, class_breakdown, hottest_links, latency_histogram, link_usage, SegClass,
};
use tg_kv::KvConfig;
use tg_sim::{MetricsRegistry, SimTime};
use tg_wire::trace::{OpEvent, PacketEvent};
use tg_wire::NodeId;

/// Every traced operation's attributed segments must sum *exactly* to its
/// end-to-end latency — even when the reliable link layer is retransmitting
/// through injected drops and corruption, which stretches chains across
/// recovery events.
#[test]
fn segments_telescope_under_faults() {
    let mut saw_retransmit = false;
    for seed in [0xFA_0001u64, 0xFA_1001, 0xFA_2001] {
        let opts = HarnessOptions {
            nodes: 4,
            reliable: true,
            drop: 0.15,
            corrupt: 0.05,
            fault_seed: seed,
            ..HarnessOptions::default()
        };
        let mut cluster = harness::build_pingpong(&opts);
        let collector = cluster.enable_tracing();
        cluster.run();
        assert!(cluster.all_halted(), "seed {seed:#x}: cluster wedged");

        let ops = collector.op_events();
        let packets = collector.packet_events();
        let attribs = attribute_ops(&ops, &packets);
        assert!(!attribs.is_empty(), "seed {seed:#x}: no traced operations");
        for a in &attribs {
            assert_eq!(
                a.total(),
                a.latency(),
                "seed {seed:#x}: segments do not telescope for {:?} on node{} \
                 (sum {} vs latency {})",
                a.op.kind,
                a.op.node.raw(),
                a.total(),
                a.latency()
            );
            saw_retransmit |= a.segments.iter().any(|s| s.class == SegClass::Retransmit);
        }
    }
    assert!(
        saw_retransmit,
        "15% drop + 5% corrupt over three seeds never attributed a retransmit segment"
    );
}

/// One traced + sampled stencil run, reduced to the pieces the report
/// compares: the hottest-link table, the latency percentiles, and the
/// per-class attribution totals.
fn stencil_snapshot() -> (String, Vec<u64>, Vec<(SegClass, SimTime)>) {
    let opts = HarnessOptions {
        nodes: 16,
        ..HarnessOptions::default()
    };
    let (mut cluster, check) = harness::build_stencil(&opts, 4, 4);
    let collector = cluster.enable_tracing();
    let mut metrics = MetricsRegistry::new();
    cluster.run_sampled(SimTime::from_us(1), &mut metrics);
    harness::verify_stencil(&cluster, &check).expect("stencil result");

    let attribs = attribute_ops(&collector.op_events(), &collector.packet_events());
    for a in &attribs {
        assert_eq!(a.total(), a.latency(), "stencil segments do not telescope");
    }
    let hist = latency_histogram(&attribs);
    let quantiles = [0.5, 0.99, 0.999]
        .iter()
        .map(|&q| hist.quantile(q))
        .collect();
    let hottest = hottest_links(&link_usage(&metrics), 5);
    let table = hottest
        .iter()
        .map(|l| format!("{} {:?}", l.name, l))
        .collect::<Vec<_>>()
        .join("\n");
    (table, quantiles, class_breakdown(&attribs))
}

/// The congestion observatory must be byte-for-byte deterministic: two
/// identical stencil_16 runs produce the same hottest-link ranking, the
/// same latency percentiles, and the same attribution totals — that is
/// what lets CI gate `report.json` at zero tolerance.
#[test]
fn stencil16_hottest_link_report_is_deterministic() {
    let (table_a, quantiles_a, classes_a) = stencil_snapshot();
    let (table_b, quantiles_b, classes_b) = stencil_snapshot();
    assert_eq!(table_a, table_b, "hottest-link report differs between runs");
    assert_eq!(quantiles_a, quantiles_b, "latency percentiles differ");
    assert_eq!(classes_a, classes_b, "attribution totals differ");

    let top = table_a.lines().next().expect("at least one hot link");
    assert!(
        top.starts_with("switch0-node0 "),
        "saturated link moved: expected the switch->node0 hop \
         (barrier and coordination pages are homed on node 0), got {top}"
    );
}

/// One op's chain as `(clamped at, event, response)` triples.
type Flat = Vec<(SimTime, PacketEvent, bool)>;

/// Brute-force chains from the membership rule: for each traced op `Q`,
/// every event with `trace == Q` or with `parent == Q != trace` (pass 0),
/// then every other event whose trace's last-wins parent is `Q` (pass 1),
/// stable-sorted by time clamped to the op's window.
fn oracle_chains(ops: &[OpEvent], packets: &[PacketEvent]) -> Vec<Flat> {
    let mut final_parent = HashMap::new();
    for ev in packets {
        if let Some(p) = ev.parent.filter(|&p| p != ev.trace) {
            final_parent.insert(ev.trace, p);
        }
    }
    // Per event: its trace, its parent when not itself, its trace's final
    // parent — all the rule reads, so the scans below stay cheap.
    let keys: Vec<_> = packets
        .iter()
        .map(|ev| {
            let parent = ev.parent.filter(|&p| p != ev.trace);
            (ev.trace, parent, final_parent.get(&ev.trace).copied())
        })
        .collect();
    let mut out = Vec::new();
    for op in ops {
        let Some(q) = op.trace else { continue };
        let (mut pass0, mut pass1) = (Vec::new(), Vec::new());
        for (ev, &(trace, parent, final_parent)) in packets.iter().zip(&keys) {
            if trace == q || parent == Some(q) {
                pass0.push(ev);
            } else if final_parent == Some(q) {
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

/// Checks `op_chains` against the oracle on one collected trace and
/// returns how many response events the chains hold.
fn chains_match_oracle(what: &str, collector: &TraceCollector) -> usize {
    let (ops, packets) = (collector.op_events(), collector.packet_events());
    let want = oracle_chains(&ops, &packets);
    let got: Vec<Flat> = op_chains(&ops, &packets)
        .iter()
        .map(|c| {
            c.events
                .iter()
                .map(|e| (e.at, e.event, e.response))
                .collect()
        })
        .collect();
    assert!(!want.is_empty(), "{what}: no traced operations");
    assert_eq!(got.len(), want.len(), "{what}: chain count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{what}: chain {i} of {:?}", ops[i].kind);
    }
    want.iter().flatten().filter(|c| c.2).count()
}

/// The chain index builds exactly the brute-force chains on real traces:
/// a lossy reliable pingpong (retransmits, acks and read/atomic responses),
/// the 16-node stencil (multicast and barrier atomics) and a KV deployment
/// whose replica crashes and restarts (heartbeats, failover, resent
/// requests).
#[test]
fn chain_index_matches_the_oracle_on_real_traces() {
    let opts = HarnessOptions {
        reliable: true,
        drop: 0.05,
        corrupt: 0.02,
        ..HarnessOptions::default()
    };
    let mut cluster = harness::build_pingpong(&opts);
    let collector = cluster.enable_tracing();
    cluster.run();
    assert!(chains_match_oracle("pingpong", &collector) > 0);

    let opts = HarnessOptions {
        nodes: 16,
        ..HarnessOptions::default()
    };
    let (mut cluster, check) = harness::build_stencil(&opts, 4, 4);
    let collector = cluster.enable_tracing();
    cluster.run();
    harness::verify_stencil(&cluster, &check).expect("stencil result");
    assert!(chains_match_oracle("stencil16", &collector) > 0);

    let opts = HarnessOptions {
        reliable: true,
        mode: RetxMode::Sack,
        heartbeats: true,
        crash: Some((1, 400)),
        restart_us: Some(3_000),
        ..HarnessOptions::default()
    };
    let cfg = KvConfig {
        requests_per_client: 40,
        arrival_gap: SimTime::from_us(120),
        ..KvConfig::default()
    };
    let (mut cluster, handles) = harness::build_kv(&opts, &cfg);
    let collector = cluster.enable_tracing();
    tg_kv::drive(
        &mut cluster,
        &handles,
        SimTime::from_us(50),
        SimTime::from_ms(200),
    );
    let report = tg_kv::audit(&cluster, &handles, &[NodeId::new(1)]);
    assert!(report.violations.is_empty(), "kv: {:?}", report.violations);
    assert!(chains_match_oracle("kv crash", &collector) > 0);
}
