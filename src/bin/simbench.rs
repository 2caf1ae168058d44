//! `simbench` — the engine performance harness.
//!
//! Drives four representative workloads through the simulator and writes
//! `BENCH_engine.json` with events/sec, wall time and peak queue depth for
//! each, establishing the repository's perf trajectory:
//!
//! 1. `ping_pong` — a two-component event-engine microbench (pure
//!    scheduler hot path, queue depth ~1).
//! 2. `ping_pong_hooked` — the same microbench with a delivery hook
//!    installed, tracking the per-event cost of observability.
//! 3. `ping_pong_net` — a bidirectional two-endpoint stream through a
//!    star fabric (switch routing + credit flow control, no link-level
//!    reliability).
//! 4. `ping_pong_reliable` — the same fabric stream with the link-level
//!    reliability protocol on (framing, checksums, per-link sequence
//!    numbers, acks). Compare events/sec against `ping_pong_net` for the
//!    per-event cost of the reliability layer, which must stay small.
//! 5. `stencil_16` — a 16-node Jacobi stencil over eager-update boundary
//!    pages via `tg-workloads` (full cluster stack, deep queues).
//! 6. `stencil_16_traced` — the same stencil with packet tracing and
//!    metric sampling enabled: the analysis-ON cost. The plain
//!    `stencil_16` number is the analysis-OFF datapoint — the attribution
//!    machinery is probe-gated, so its hot-path cost with analysis off
//!    must stay ~0 (compare against the previous baseline).
//! 7. `proto_sweep` — a coherence-interleaving sweep of the owner
//!    protocol via `tg-proto` (adversarial RNG-driven delivery).
//!
//! Besides `BENCH_engine.json`, a `tg-report-v2` `report_bench.json` is
//! written for the CI perf gate: deterministic structural counts
//! (`events`, `peak_queue_depth`) under `metrics` (gate tolerance 0) and
//! machine-dependent wall-clock numbers under `throughput` (gated
//! loosely or skipped).
//!
//! Deliberately dependency-free (plain `std::time::Instant`, hand-rolled
//! JSON) so it runs in offline/vendored environments. Each workload is run
//! a few times and the best wall time is reported.

use std::process::ExitCode;
use std::time::Instant;

use telegraphos_suite::cli;
use telegraphos_suite::harness::{self, HarnessOptions};
use tg_analyze::{Json, SCHEMA};
use tg_net::testing::{kick, SourceSink};
use tg_net::{build_network_with, NetConfig, RelParams, Topology};
use tg_proto::{owner::OwnerSerialized, Scenario};
use tg_sim::{Component, Ctx, Engine, MetricsRegistry, SimTime};
use tg_wire::{GOffset, NodeId, TimingConfig, WireMsg};

/// One measured workload.
struct Measurement {
    name: &'static str,
    /// Events (or protocol messages) delivered in one run.
    events: u64,
    /// Best wall time over the repetitions, seconds.
    wall_seconds: f64,
    /// Deepest pending-event count observed (events, not queue buckets;
    /// includes same-instant batches in flight — see
    /// `EngineStats::max_queue_len`).
    peak_queue_depth: u64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Runs `f` `reps` times, keeping the best wall time; `f` returns
/// `(events, peak_queue_depth)` for the run it performed.
fn measure(name: &'static str, reps: u32, mut f: impl FnMut() -> (u64, u64)) -> Measurement {
    let mut best = f64::INFINITY;
    let (mut events, mut peak) = (0, 0);
    for rep in 0..reps {
        let t0 = Instant::now();
        let (ev, pk) = f();
        let dt = t0.elapsed().as_secs_f64();
        eprintln!("  {name} rep {rep}: {dt:.3}s");
        if dt < best {
            best = dt;
        }
        events = ev;
        peak = pk;
    }
    Measurement {
        name,
        events,
        wall_seconds: best,
        peak_queue_depth: peak,
    }
}

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
    ping_pong_inner(false)
}

/// The same microbench with a delivery hook installed (the tracing
/// fast path): quantifies the per-event cost of observability when a
/// probe is actually attached. Compare against `ping_pong` for the
/// hook-off overhead (which should be ~zero: one untaken branch).
fn ping_pong_hooked() -> (u64, u64) {
    ping_pong_inner(true)
}

fn ping_pong_inner(hooked: bool) -> (u64, u64) {
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
    let hits = std::rc::Rc::new(std::cell::Cell::new(0u64));
    if hooked {
        let h = hits.clone();
        eng.set_delivery_hook(Box::new(move |_at, _seq, _dst| h.set(h.get() + 1)));
    }
    eng.run();
    let s = eng.stats();
    if hooked {
        assert_eq!(hits.get(), s.events_delivered, "hook missed deliveries");
    }
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
/// The events/sec gap against `ping_pong_net` is the per-event cost of
/// the reliability layer on a lossless fabric.
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
/// running at 1 µs. The gap against `stencil_16` is the analysis-ON
/// cost; `stencil_16` itself, unchanged across this feature, is the
/// proof that analysis-off stays free.
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

fn json_escape_free(name: &str) -> &str {
    debug_assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    name
}

fn main() -> ExitCode {
    let measurements = [
        measure("ping_pong", 5, ping_pong),
        measure("ping_pong_hooked", 5, ping_pong_hooked),
        measure("ping_pong_net", 5, ping_pong_net),
        measure("ping_pong_reliable", 5, ping_pong_reliable),
        measure("stencil_16", 5, stencil_16),
        measure("stencil_16_traced", 3, stencil_16_traced),
        measure("proto_sweep", 3, proto_sweep),
    ];

    let mut json = String::from("{\n  \"bench\": \"engine\",\n  \"workloads\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        println!(
            "{:<18} {:>9} events  {:>9.4}s  {:>12.0} events/s  peak queue {}",
            m.name,
            m.events,
            m.wall_seconds,
            m.events_per_sec(),
            m.peak_queue_depth
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"wall_seconds\": {:.6}, \
             \"events_per_sec\": {:.1}, \"peak_queue_depth\": {}}}{}\n",
            json_escape_free(m.name),
            m.events,
            m.wall_seconds,
            m.events_per_sec(),
            m.peak_queue_depth,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write("BENCH_engine.json", &json) {
        return cli::fail("simbench", format!("write BENCH_engine.json: {e}"));
    }

    // The analysis-cost datapoint: tracing + sampling ON vs OFF on the
    // same stencil. The OFF number's stability across commits (gated in
    // CI) is the "analysis-off hot-path cost stays ~0" guarantee.
    let off = measurements.iter().find(|m| m.name == "stencil_16");
    let on = measurements.iter().find(|m| m.name == "stencil_16_traced");
    if let (Some(off), Some(on)) = (off, on) {
        if on.events_per_sec() > 0.0 {
            println!(
                "analysis cost: stencil_16 traced/off wall ratio {:.2}x \
                 ({:.0} vs {:.0} events/s)",
                off.events_per_sec() / on.events_per_sec(),
                on.events_per_sec(),
                off.events_per_sec()
            );
        }
    }

    // tg-report-v2 companion for the CI gate: deterministic structural
    // counts under `metrics`, machine-dependent timings under
    // `throughput`.
    let mut report = Json::obj();
    report.set("schema", Json::Str(SCHEMA.to_string()));
    report.set("name", Json::Str("bench".to_string()));
    let mut deterministic = Json::obj();
    let mut throughput = Json::obj();
    for m in &measurements {
        deterministic.set(&format!("{}.events", m.name), Json::Num(m.events as f64));
        deterministic.set(
            &format!("{}.peak_queue_depth", m.name),
            Json::Num(m.peak_queue_depth as f64),
        );
        throughput.set(
            &format!("{}.events_per_sec", m.name),
            Json::Num(m.events_per_sec()),
        );
        throughput.set(
            &format!("{}.wall_seconds", m.name),
            Json::Num(m.wall_seconds),
        );
    }
    report.set("metrics", deterministic);
    report.set("throughput", throughput);
    if let Err(e) = std::fs::write("report_bench.json", report.to_string_pretty()) {
        return cli::fail("simbench", format!("write report_bench.json: {e}"));
    }
    println!("wrote BENCH_engine.json and report_bench.json");
    ExitCode::SUCCESS
}
