//! `simbench` — the simulator's deterministic cost counters.
//!
//! Runs six representative workloads once each and writes a
//! `tg-report-v2` `report_bench.json` whose `metrics` hold, per workload,
//! the events delivered (`<w>.events`) and the deepest pending-event count
//! (`<w>.peak_queue_depth`). Both are exact for a given build, so CI gates
//! them at zero tolerance against `baselines/report_bench.json`; the
//! simulator's wall time is measured by perfbench, not here.
//!
//! 1. `ping_pong` — a two-component event-engine microbench (pure
//!    scheduler hot path, queue depth 1).
//! 2. `ping_pong_net` — a bidirectional two-endpoint stream through a
//!    star fabric (switch routing + credit flow control, no link-level
//!    reliability).
//! 3. `ping_pong_reliable` — the same fabric stream with the link-level
//!    reliability protocol on (framing, checksums, per-link sequence
//!    numbers, acks). Its event count against `ping_pong_net` is the
//!    reliability layer's event cost.
//! 4. `stencil_16` — a 16-node Jacobi stencil over eager-update boundary
//!    pages via `tg-workloads` (full cluster stack, deep queues).
//! 5. `stencil_16_traced` — the same stencil with packet tracing and
//!    metric sampling enabled. Its counts must equal `stencil_16`'s:
//!    observation must not change the event stream.
//! 6. `proto_sweep` — a coherence-interleaving sweep of the owner
//!    protocol via `tg-proto` (adversarial RNG-driven delivery); counts
//!    protocol messages and peak messages in flight.
//!
//! Every workload asserts its own correctness, so the counters cannot
//! describe a broken run.

use std::process::ExitCode;

use telegraphos_suite::cli;
use telegraphos_suite::harness::{self, HarnessOptions};
use tg_analyze::{Json, SCHEMA};
use tg_net::testing::{kick, SourceSink};
use tg_net::{build_network_with, NetConfig, RelParams, Topology};
use tg_proto::{owner::OwnerSerialized, Scenario};
use tg_sim::{Component, Ctx, Engine, MetricsRegistry, SimTime};
use tg_wire::{GOffset, NodeId, TimingConfig, WireMsg};

// ---------------------------------------------------------------- ping-pong

struct Relay {
    peer: Option<tg_sim::CompId>,
    remaining: u64,
}

impl Component<u64> for Relay {
    fn on_event(&mut self, v: u64, ctx: &mut Ctx<'_, u64>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let dst = self.peer.unwrap_or(ctx.self_id());
            ctx.send(dst, SimTime::from_ns(10), v + 1);
        }
    }
    fn name(&self) -> &str {
        "relay"
    }
}

/// Two relays bouncing one event back and forth: the pure scheduler hot
/// path — pop, deliver, push — with no payload work.
fn ping_pong() -> (u64, u64) {
    const ROUNDS: u64 = 1_000_000;
    let mut eng: Engine<u64> = Engine::new();
    let a = eng.add(Relay {
        peer: None,
        remaining: ROUNDS / 2,
    });
    let b = eng.add(Relay {
        peer: Some(a),
        remaining: ROUNDS / 2,
    });
    eng.get_mut::<Relay>(a).unwrap().peer = Some(b);
    eng.schedule(SimTime::ZERO, a, 0);
    eng.run();
    let s = eng.stats();
    (s.events_delivered, s.max_queue_len as u64)
}

// ---------------------------------------------------- fabric ping-pong

/// A bidirectional stream between two endpoints through a star fabric:
/// switch routing, FIFO queues and credit flow control in the loop, but
/// no link-level reliability.
fn ping_pong_net() -> (u64, u64) {
    ping_pong_net_inner(false)
}

/// The same fabric stream with the link-level reliability protocol on
/// every hop: framing, checksums, per-link sequence numbers and acks.
/// The event gap against `ping_pong_net` is the reliability layer's
/// event cost on a lossless fabric.
fn ping_pong_reliable() -> (u64, u64) {
    ping_pong_net_inner(true)
}

fn ping_pong_net_inner(reliable: bool) -> (u64, u64) {
    const MSGS: u64 = 30_000;
    let timing = TimingConfig::telegraphos_i();
    let topo = Topology::star(2);
    let config = NetConfig {
        reliability: reliable.then(RelParams::default),
        injector: None,
    };
    let mut engine = Engine::new();
    let ids: Vec<tg_sim::CompId> = (0..2)
        .map(|i| engine.add(SourceSink::new(NodeId::new(i), timing.clone())))
        .collect();
    let handles =
        build_network_with(&mut engine, &topo, &timing, &ids, &config).expect("connected");
    for (id, w) in ids.iter().zip(handles.endpoints) {
        engine
            .get_mut::<SourceSink>(*id)
            .unwrap()
            .wire(w.tx, w.rx_upstream);
    }
    for i in 0..MSGS {
        let msg = WireMsg::WriteReq {
            addr: GOffset::new(i * 8),
            val: i,
            tag: 0,
        };
        engine
            .get_mut::<SourceSink>(ids[0])
            .unwrap()
            .enqueue(NodeId::new(1), msg.clone());
        engine
            .get_mut::<SourceSink>(ids[1])
            .unwrap()
            .enqueue(NodeId::new(0), msg);
    }
    kick(&mut engine, ids[0]);
    kick(&mut engine, ids[1]);
    engine.run();
    for &id in &ids {
        let ss = engine.get::<SourceSink>(id).unwrap();
        assert_eq!(ss.received.len(), MSGS as usize, "stream wedged");
        assert_eq!(ss.retransmits(), 0, "lossless run retransmitted");
    }
    let s = engine.stats();
    (s.events_delivered, s.max_queue_len as u64)
}

// ------------------------------------------------------------- stencil_16

/// A 16-node distributed Jacobi stencil (the tests/stencil.rs setup at
/// benchmark scale): full cluster stack with fences, barriers and
/// eager-update multicast traffic.
fn stencil_16() -> (u64, u64) {
    stencil_16_inner(false)
}

/// The same stencil with the full analysis pipeline attached: packet
/// tracing probes installed cluster-wide and the congestion sampler
/// running at 1 µs. Observation schedules no events of its own, so its
/// counts must equal `stencil_16`'s.
fn stencil_16_traced() -> (u64, u64) {
    stencil_16_inner(true)
}

fn stencil_16_inner(traced: bool) -> (u64, u64) {
    let opts = HarnessOptions {
        nodes: 16,
        ..HarnessOptions::default()
    };
    let (mut cluster, check) = harness::build_stencil(&opts, 8, 12);
    let collector = traced.then(|| cluster.enable_tracing());
    if traced {
        let mut metrics = MetricsRegistry::new();
        cluster.run_sampled(SimTime::from_us(1), &mut metrics);
        assert!(!metrics.is_empty(), "sampler recorded nothing");
    } else {
        cluster.run();
    }
    assert!(cluster.all_halted(), "stencil deadlocked");
    if let Some(c) = &collector {
        assert!(!c.packet_events().is_empty(), "probes saw no packets");
    }
    // Sanity: the distributed answer matches the sequential reference, so
    // the benchmark cannot silently measure a broken run.
    harness::verify_stencil(&cluster, &check).expect("stencil verification");
    let s = cluster.engine_stats();
    (s.events_delivered, s.max_queue_len as u64)
}

// ------------------------------------------------------------- proto sweep

/// A sweep of owner-serialized coherence runs over many adversarial
/// interleavings: the RNG-heavy protocol-exploration workload.
fn proto_sweep() -> (u64, u64) {
    const SEEDS: u64 = 2_000;
    let mut messages = 0u64;
    let mut peak = 0usize;
    for seed in 0..SEEDS {
        let out = OwnerSerialized::run(&Scenario::random(4, 8, 2, seed));
        assert!(out.converged(), "protocol diverged at seed {seed}");
        messages += out.messages;
        peak = peak.max(out.peak_in_flight);
    }
    (messages, peak as u64)
}

// ------------------------------------------------------------------- main

/// One workload run: `(events, peak_queue_depth)`.
type Workload = fn() -> (u64, u64);

fn main() -> ExitCode {
    let workloads: [(&str, Workload); 6] = [
        ("ping_pong", ping_pong),
        ("ping_pong_net", ping_pong_net),
        ("ping_pong_reliable", ping_pong_reliable),
        ("stencil_16", stencil_16),
        ("stencil_16_traced", stencil_16_traced),
        ("proto_sweep", proto_sweep),
    ];
    let mut metrics = Json::obj();
    for (name, run) in workloads {
        let (events, peak) = run();
        println!("{name:<18} {events:>9} events  peak queue {peak}");
        metrics.set(&format!("{name}.events"), Json::Num(events as f64));
        metrics.set(&format!("{name}.peak_queue_depth"), Json::Num(peak as f64));
    }
    let mut report = Json::obj();
    report.set("schema", Json::Str(SCHEMA.to_string()));
    report.set("name", Json::Str("bench".to_string()));
    report.set("metrics", metrics);
    if let Err(e) = std::fs::write("report_bench.json", report.to_string_pretty()) {
        return cli::fail("simbench", format!("write report_bench.json: {e}"));
    }
    println!("wrote report_bench.json");
    ExitCode::SUCCESS
}
