//! Shared workload harness for the suite binaries.
//!
//! `simtrace`, `simreport` and `simbench` all drive the same two
//! canonical workloads — the all-pairs ring ping-pong and the N-node
//! Jacobi stencil over eager-update boundary pages — so the builders
//! live here once. Keeping one construction path is what makes the CI
//! perf-gate baselines meaningful: every binary's "stencil_16" is
//! byte-for-byte the same cluster.

use telegraphos::{
    Action, Cluster, ClusterBuilder, DetectParams, FaultPlan, RelParams, RetxMode, Script,
    SharedPage, Topology,
};
use tg_sim::{RunLimit, SimTime};
use tg_wire::NodeId;
use tg_workloads::{jacobi_reference, JacobiShared, JacobiWorker};

/// Reliability / fault-injection knobs shared by every harness workload.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Cluster size (≥ 2).
    pub nodes: u16,
    /// Run the link-level reliability protocol.
    pub reliable: bool,
    /// Seeded frame-drop probability (implies `reliable` at the CLI).
    pub drop: f64,
    /// Seeded frame-corruption probability (implies `reliable`).
    pub corrupt: f64,
    /// Seeded control-frame drop probability — acks, nacks and resync
    /// handshakes silently lost (implies `reliable`).
    pub ctrl_drop: f64,
    /// Seeded control-frame corruption probability — the receiver
    /// discards the frame on its checksum (implies `reliable`).
    pub ctrl_corrupt: f64,
    /// Retransmit discipline for reliable links.
    pub mode: RetxMode,
    /// Fault-injector seed.
    pub fault_seed: u64,
    /// Run per-link heartbeats (crash-stop failure detection) during the
    /// workload. Implied by any crash-stop fault below — a crashed peer
    /// can only be convicted, and blocked ops only resolved, by the
    /// detector.
    pub heartbeats: bool,
    /// Crash workstation `(node, at_us)`. Permanent unless `restart_us`
    /// closes the window.
    pub crash: Option<(u16, u64)>,
    /// Restart time (µs) closing the crash window of [`Self::crash`].
    pub restart_us: Option<u64>,
    /// Take switch `(s, from_us, until_us)` out — crash-stop silence on
    /// every link touching it. Switches the fabric to a ring of one
    /// switch per node so surviving routes exist to recompute onto.
    pub switch_out: Option<(u16, u64, u64)>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            nodes: 4,
            reliable: false,
            drop: 0.0,
            corrupt: 0.0,
            ctrl_drop: 0.0,
            ctrl_corrupt: 0.0,
            mode: RetxMode::GoBackN,
            fault_seed: 0xFA_0001,
            heartbeats: false,
            crash: None,
            restart_us: None,
            switch_out: None,
        }
    }
}

impl HarnessOptions {
    /// True if any seeded fault probability is non-zero or a crash-stop
    /// window is scheduled.
    pub fn any_faults(&self) -> bool {
        self.drop > 0.0
            || self.corrupt > 0.0
            || self.ctrl_drop > 0.0
            || self.ctrl_corrupt > 0.0
            || self.crash.is_some()
            || self.switch_out.is_some()
    }

    /// True when a crash-stop window (node crash or switch outage) is
    /// scheduled: such runs never drain on their own and must be driven
    /// with heartbeats through [`run_cluster`].
    pub fn any_crash(&self) -> bool {
        self.crash.is_some() || self.switch_out.is_some()
    }

    /// Checks options read from a command line and applies their
    /// implications: any fault turns on `reliable` (a lossy fabric
    /// without recovery wedges the workload), and a crash window also
    /// turns on `heartbeats` (only the detector convicts the dead and
    /// fails blocked ops). Rejects what [`builder`] could not honour as
    /// written: fewer than 2 nodes, a probability outside `[0, 1]`, a
    /// crashed node or silenced switch outside the cluster (an outage
    /// runs on a ring of one switch per node, so it needs 3 nodes), a
    /// restart without a crash or before it, an empty outage window, or
    /// a time past the end of the simulated clock.
    pub fn validate(&mut self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("need at least 2 nodes".to_string());
        }
        for p in [self.drop, self.corrupt, self.ctrl_drop, self.ctrl_corrupt] {
            if !(0.0..=1.0).contains(&p) {
                return Err("fault probabilities must be within [0, 1]".to_string());
            }
        }
        let max_us = SimTime::MAX.as_ps() / SimTime::from_us(1).as_ps();
        let check_us = |flag: &str, us: u64| {
            if us <= max_us {
                Ok(())
            } else {
                Err(format!("{flag} time {us} us is past the simulated clock"))
            }
        };
        if let Some((node, at_us)) = self.crash {
            if node >= self.nodes {
                return Err(format!(
                    "--crash node {node} out of range ({} nodes)",
                    self.nodes
                ));
            }
            check_us("--crash", at_us)?;
        }
        if let Some(restart_us) = self.restart_us {
            let (_, at_us) = self.crash.ok_or("--restart needs --crash")?;
            if restart_us < at_us {
                return Err(format!(
                    "--restart {restart_us} precedes the crash at {at_us}"
                ));
            }
            check_us("--restart", restart_us)?;
        }
        if let Some((s, from_us, until_us)) = self.switch_out {
            if self.nodes < 3 {
                return Err("--switch-out needs at least 3 nodes (it runs on a ring)".into());
            }
            if s >= self.nodes {
                return Err(
                    "--switch-out switch index out of range (ring has one per node)".into(),
                );
            }
            if from_us >= until_us {
                return Err(format!(
                    "--switch-out window {from_us}..{until_us} is empty"
                ));
            }
            check_us("--switch-out", until_us)?;
        }
        if self.any_faults() {
            self.reliable = true;
        }
        if self.any_crash() {
            self.heartbeats = true;
        }
        Ok(())
    }
}

/// A cluster builder reflecting the reliability / fault options.
pub fn builder(opts: &HarnessOptions) -> ClusterBuilder {
    let mut b = ClusterBuilder::new(opts.nodes);
    if opts.switch_out.is_some() {
        b = b.topology(Topology::ring(opts.nodes));
    }
    if opts.reliable {
        b = b.reliable_links(RelParams::with_mode(opts.mode));
    }
    if opts.any_faults() {
        let mut plan = FaultPlan::new(opts.fault_seed)
            .drop(opts.drop)
            .corrupt(opts.corrupt)
            .ctrl_drop(opts.ctrl_drop)
            .ctrl_corrupt(opts.ctrl_corrupt);
        if let Some((node, at_us)) = opts.crash {
            plan = plan.node_crash(NodeId::new(node), SimTime::from_us(at_us));
            if let Some(restart_us) = opts.restart_us {
                plan = plan.node_restart(NodeId::new(node), SimTime::from_us(restart_us));
            }
        }
        if let Some((s, from_us, until_us)) = opts.switch_out {
            plan = plan.switch_outage(s, SimTime::from_us(from_us), SimTime::from_us(until_us));
        }
        b = b.with_faults(plan);
    }
    b
}

/// Drives `cluster` to completion the way the options demand: a plain
/// `run()` for fault-masked workloads, a stepped heartbeat-driven run for
/// crash-stop plans (whose event queues never drain on their own — the
/// detector must convict the dead and fail blocked ops). Returns `true`
/// when the surviving workload completed within the time limit.
pub fn run_cluster(cluster: &mut Cluster, opts: &HarnessOptions) -> bool {
    if opts.heartbeats || opts.any_crash() {
        cluster.enable_heartbeats(DetectParams::default());
        let outcome = cluster.run_to_quiescence(SimTime::from_us(50), SimTime::from_ms(200));
        outcome != RunLimit::Deadline
    } else {
        cluster.run();
        cluster.all_halted()
    }
}

/// Every node writes to / fences on / reads from / atomically increments
/// a page homed on its ring neighbor: remote writes, blocking reads and
/// atomic launches on every node, crossing the full fabric.
pub fn build_pingpong(opts: &HarnessOptions) -> Cluster {
    let nodes = opts.nodes;
    let mut cluster = builder(opts).build();
    let pages: Vec<_> = (0..nodes).map(|n| cluster.alloc_shared(n)).collect();
    for n in 0..nodes {
        let peer = &pages[((n + 1) % nodes) as usize];
        let mut actions = Vec::new();
        for round in 0..4u64 {
            actions.push(Action::Write(peer.va(0), round + 1));
            actions.push(Action::Fence);
            actions.push(Action::Read(peer.va(0)));
            actions.push(Action::FetchAdd(peer.va(8), 1));
            actions.push(Action::Compute(SimTime::from_ns(200)));
        }
        cluster.set_process(n, Script::new(actions));
    }
    cluster
}

/// What [`build_stencil`] leaves behind for result verification.
#[derive(Debug)]
pub struct StencilCheck {
    /// The sequential Jacobi reference result.
    pub want: Vec<u64>,
    /// The per-node result pages to read back.
    pub results: Vec<SharedPage>,
}

/// The N-node Jacobi stencil over eager-update boundary pages, `strip`
/// interior cells per node, `iters` sweeps, with the sequential
/// reference computed for verification. `simbench`'s `stencil_16` is
/// `nodes = 16, strip = 8, iters = 12`; `simtrace`'s trace-friendly
/// variant is `iters = 4`.
pub fn build_stencil(opts: &HarnessOptions, strip: usize, iters: u32) -> (Cluster, StencilCheck) {
    let nodes = opts.nodes;
    let (left_bc, right_bc) = (900u64, 100u64);
    let total = strip * nodes as usize;
    let initial: Vec<u64> = (0..total).map(|i| (i as u64 * 53) % 777).collect();

    let mut cluster = builder(opts).build();
    let boundary: Vec<_> = (0..nodes).map(|n| cluster.alloc_shared(n)).collect();
    for n in 0..nodes {
        let mut consumers = Vec::new();
        if n > 0 {
            consumers.push(n - 1);
        }
        if n + 1 < nodes {
            consumers.push(n + 1);
        }
        cluster.make_eager(&boundary[n as usize], &consumers);
    }
    let results: Vec<_> = (0..nodes).map(|n| cluster.alloc_shared(n)).collect();
    let coord = cluster.alloc_shared(0);
    for n in 0..nodes {
        let i = n as usize;
        let strip_cells = initial[i * strip..(i + 1) * strip].to_vec();
        let shared = JacobiShared {
            my_boundary: boundary[i],
            left_boundary: (n > 0).then(|| boundary[i - 1]),
            right_boundary: (n + 1 < nodes).then(|| boundary[i + 1]),
            result: results[i],
            barrier_counter: coord.va(0),
            barrier_sense: coord.va(8),
        };
        cluster.set_process(
            n,
            JacobiWorker::new(
                shared,
                u64::from(nodes),
                iters,
                strip_cells,
                left_bc,
                right_bc,
            ),
        );
    }
    let want = jacobi_reference(&initial, iters, left_bc, right_bc);
    (cluster, StencilCheck { want, results })
}

/// The replicated KV service deployed on a fabric that reflects the
/// fault options. The topology is always a ring — the campaign's
/// switch-outage scenarios need surviving routes to recompute onto, and
/// the healthy scenarios must measure the same fabric they are compared
/// against. Heartbeats are enabled unconditionally: the service's
/// failover path runs on conviction verdicts.
pub fn build_kv(opts: &HarnessOptions, cfg: &tg_kv::KvConfig) -> (Cluster, tg_kv::KvHandles) {
    let mut opts = opts.clone();
    opts.nodes = cfg.nodes_required();
    let mut cluster = builder(&opts).topology(Topology::ring(opts.nodes)).build();
    cluster.enable_heartbeats(DetectParams::default());
    let handles = tg_kv::deploy(&mut cluster, cfg);
    (cluster, handles)
}

/// Reads the stencil result back and compares it to the sequential
/// reference, returning a description of the first divergence.
pub fn verify_stencil(cluster: &Cluster, check: &StencilCheck) -> Result<(), String> {
    let strip = check.want.len() / check.results.len();
    let mut got = Vec::with_capacity(check.want.len());
    for page in &check.results {
        for w in 0..strip {
            got.push(cluster.read_shared(page, w as u64));
        }
    }
    if got != check.want {
        return Err(format!(
            "stencil diverged from reference: got {:?}, want {:?}",
            got, check.want
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(set: impl FnOnce(&mut HarnessOptions)) -> HarnessOptions {
        let mut o = HarnessOptions::default();
        set(&mut o);
        o
    }

    /// The harness options of every `simtrace` and `simreport` command
    /// line in CI, as their parsers build them.
    #[test]
    fn validate_accepts_every_ci_command_line() {
        let cases = [
            ("simtrace stencil --nodes 4", opts(|_| {})),
            ("simtrace stencil --nodes 16", opts(|o| o.nodes = 16)),
            ("simreport run stencil16", opts(|o| o.nodes = 16)),
            ("simtrace pingpong --reliable", opts(|o| o.reliable = true)),
            (
                "simtrace stencil --drop 0.15 --corrupt 0.05",
                opts(|o| (o.drop, o.corrupt) = (0.15, 0.05)),
            ),
            (
                "simtrace stencil --sack --drop 0.10 --ctrl-drop 0.25 --ctrl-corrupt 0.10",
                opts(|o| {
                    o.mode = RetxMode::Sack;
                    (o.drop, o.ctrl_drop, o.ctrl_corrupt) = (0.10, 0.25, 0.10);
                }),
            ),
            (
                "simtrace pingpong --crash 1,150",
                opts(|o| o.crash = Some((1, 150))),
            ),
            (
                "simtrace pingpong --sack --crash 1,150 --restart 2500",
                opts(|o| {
                    o.mode = RetxMode::Sack;
                    o.crash = Some((1, 150));
                    o.restart_us = Some(2500);
                }),
            ),
            (
                "simtrace pingpong --switch-out 1,100,100000",
                opts(|o| o.switch_out = Some((1, 100, 100_000))),
            ),
        ];
        for (line, mut o) in cases {
            let explicit = o.reliable;
            o.validate().unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(o.reliable, explicit || o.any_faults(), "{line}");
            assert_eq!(o.heartbeats, o.any_crash(), "{line}");
        }
    }

    #[test]
    fn validate_rejects_what_the_builder_cannot_honour() {
        let cases = [
            (opts(|o| o.nodes = 1), "need at least 2 nodes"),
            (opts(|o| o.drop = 1.5), "within [0, 1]"),
            (opts(|o| o.corrupt = -0.1), "within [0, 1]"),
            (opts(|o| o.ctrl_drop = f64::NAN), "within [0, 1]"),
            (opts(|o| o.ctrl_corrupt = f64::INFINITY), "within [0, 1]"),
            (
                opts(|o| o.crash = Some((9, 100))),
                "--crash node 9 out of range",
            ),
            (
                opts(|o| o.crash = Some((1, u64::MAX))),
                "past the simulated clock",
            ),
            (opts(|o| o.restart_us = Some(5)), "--restart needs --crash"),
            (
                opts(|o| (o.crash, o.restart_us) = (Some((1, 10)), Some(5))),
                "--restart 5 precedes the crash at 10",
            ),
            (
                opts(|o| (o.crash, o.restart_us) = (Some((1, 10)), Some(u64::MAX))),
                "past the simulated clock",
            ),
            (
                opts(|o| o.switch_out = Some((4, 100, 500))),
                "switch index out of range",
            ),
            (
                opts(|o| o.switch_out = Some((1, 500, 100))),
                "window 500..100 is empty",
            ),
            (
                opts(|o| o.switch_out = Some((1, 100, 100))),
                "window 100..100 is empty",
            ),
            (
                opts(|o| (o.nodes, o.switch_out) = (2, Some((1, 10, 20)))),
                "at least 3 nodes",
            ),
        ];
        for (mut o, want) in cases {
            let err = o.validate().expect_err(want);
            assert!(err.contains(want), "{err:?} should mention {want:?}");
        }
    }
}
