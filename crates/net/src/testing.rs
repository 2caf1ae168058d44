//! Test endpoints for standalone network experiments.
//!
//! These components speak raw [`NetEvent`]s: a [`SourceSink`] injects a
//! scripted list of packets into the fabric (respecting credit flow
//! control) and records everything it receives, with timestamps. The
//! crate's integration and property tests — and the network micro-benches —
//! are built from them. When its transmit port was enrolled in the
//! link-level reliability protocol (see
//! [`build_network_with`](crate::build_network_with)), the endpoint also
//! runs the receiver half on its input link and the sender half on its
//! output link, so fault-injection tests can exercise the whole recovery
//! path end to end.

use std::collections::VecDeque;

use tg_sim::{Component, Ctx, SimTime};
use tg_wire::{CtrlMsg, NodeId, Packet, TimingConfig, WireMsg};

use crate::event::NetEvent;
use crate::fault::{FaultInjector, FrameFate};
use crate::link::{receive_ctrl, seal_ctrl, CtrlEffect, LinkError, LinkRx, RxFate};
use crate::port::{TimerAction, TxPort};

/// A packet receipt recorded by a [`SourceSink`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Receipt {
    /// When the packet arrived.
    pub at: SimTime,
    /// The packet.
    pub packet: Packet,
}

/// The delivery stream a fault-equivalence test compares across runs: the
/// ordered receipts of one endpoint.
pub type DeliveryRecord = Receipt;

/// A scriptable endpoint: injects queued packets as fast as flow control
/// allows and sinks arrivals (consuming each after a fixed delay, then
/// returning the credit).
#[derive(Debug)]
pub struct SourceSink {
    name: String,
    node: NodeId,
    tx: Option<TxPort>,
    timing: TimingConfig,
    consume_delay: SimTime,
    pending: VecDeque<Packet>,
    next_seq: u64,
    /// Everything received, in arrival order.
    pub received: Vec<Receipt>,
    /// When each injected packet left the endpoint (issue completion).
    pub injected_at: Vec<SimTime>,
    rx_upstream: Option<(tg_sim::CompId, u32)>,
    /// Receiver half of the link-level protocol on the input link, when
    /// reliability is on.
    rx_link: Option<LinkRx>,
    injector: Option<FaultInjector>,
    errors: Vec<LinkError>,
    /// Control frames discarded for a failed checksum.
    ctrl_discards: u64,
}

impl SourceSink {
    /// Creates an endpoint for cluster node `node`.
    pub fn new(node: NodeId, timing: TimingConfig) -> Self {
        SourceSink {
            name: format!("endpoint{}", node.raw()),
            node,
            tx: None,
            timing,
            consume_delay: SimTime::from_ns(100),
            pending: VecDeque::new(),
            next_seq: 0,
            received: Vec::new(),
            injected_at: Vec::new(),
            rx_upstream: None,
            rx_link: None,
            injector: None,
            errors: Vec::new(),
            ctrl_discards: 0,
        }
    }

    /// Wires the endpoint after [`build_network`](crate::build_network).
    /// A reliability-enrolled transmit port implies the receiver half on
    /// the input link.
    pub fn wire(&mut self, tx: TxPort, rx_upstream: (tg_sim::CompId, u32)) {
        if let Some(params) = tx.rel_params() {
            self.rx_link = Some(LinkRx::for_params(&params));
        }
        self.tx = Some(tx);
        self.rx_upstream = Some(rx_upstream);
    }

    /// Installs the fault injector consulted when this endpoint launches
    /// frames and returns credits.
    pub fn set_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Sets how long the sink takes to consume each arrival before
    /// returning its credit.
    pub fn set_consume_delay(&mut self, d: SimTime) {
        self.consume_delay = d;
    }

    /// Queues a message for `dst`; it is injected when flow control allows.
    pub fn enqueue(&mut self, dst: NodeId, msg: WireMsg) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending
            .push_back(Packet::new(self.node, dst, msg, seq));
    }

    /// Packets still waiting to be injected.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Link errors observed by this endpoint (duplicate credits, dead
    /// link declarations).
    pub fn link_errors(&self) -> &[LinkError] {
        &self.errors
    }

    /// Frames retransmitted by this endpoint.
    pub fn retransmits(&self) -> u64 {
        self.tx.as_ref().map_or(0, TxPort::retransmits)
    }

    /// Wire bytes retransmitted by this endpoint.
    pub fn retx_bytes(&self) -> u64 {
        self.tx.as_ref().map_or(0, TxPort::retx_bytes)
    }

    /// Control frames this endpoint discarded for a failed checksum.
    pub fn ctrl_discards(&self) -> u64 {
        self.ctrl_discards
    }

    /// Completed credit-resync handshakes on this endpoint's output link.
    pub fn resyncs(&self) -> u64 {
        self.tx.as_ref().map_or(0, TxPort::resyncs)
    }

    /// True once this endpoint's output link was declared dead.
    pub fn link_dead(&self) -> bool {
        self.tx.as_ref().is_some_and(TxPort::is_dead)
    }

    /// Frames this endpoint's receiver NACKed back for landing beyond
    /// the reorder window (go-back-N: past the expected frame).
    pub fn rx_gap_discards(&self) -> u64 {
        self.rx_link.as_ref().map_or(0, LinkRx::gap_discards)
    }

    /// Launches `packet` (fresh or retransmission), consulting the fault
    /// injector for its fate.
    fn dispatch(&mut self, mut packet: Packet, fresh: bool, ctx: &mut Ctx<'_, NetEvent>) {
        let now = ctx.now();
        let (times, nbr, nbr_port, link) = {
            let tx = self.tx.as_mut().expect("wired endpoint");
            let times = if fresh {
                tx.launch(&packet, &self.timing)
            } else {
                tx.relaunch(&packet, &self.timing)
            };
            (times, tx.neighbor(), tx.neighbor_port(), tx.link())
        };
        ctx.send_self(times.free, NetEvent::PumpOut { port: 0 });
        if fresh {
            self.injected_at.push(now + times.free);
        }
        let fate = match (self.injector.as_ref(), link) {
            (Some(inj), Some(link)) => inj.frame_fate(link, now, &mut packet),
            _ => FrameFate::Deliver,
        };
        if fate == FrameFate::Drop {
            return;
        }
        ctx.send(
            nbr,
            times.arrival,
            NetEvent::Arrive {
                port: nbr_port,
                packet,
            },
        );
    }

    fn pump(&mut self, ctx: &mut Ctx<'_, NetEvent>) {
        loop {
            let Some(tx) = self.tx.as_mut() else {
                return;
            };
            if tx.has_retx_pending() {
                if !tx.wire_free() {
                    break;
                }
                let packet = tx.take_retx().expect("retx pending on a free wire");
                self.dispatch(packet, false, ctx);
                continue;
            }
            if self.pending.is_empty() {
                break;
            }
            if !tx.can_send_new() {
                tx.note_blocked(ctx.now());
                break;
            }
            let mut packet = self.pending.pop_front().expect("checked non-empty");
            if tx.is_reliable() {
                packet = tx.frame(packet, ctx.now());
            }
            self.dispatch(packet, true, ctx);
        }
        if let Some(tx) = self.tx.as_mut() {
            if let Some((delay, gen)) = tx.poll_timer(ctx.now()) {
                ctx.send_self(delay, NetEvent::RetxTimer { port: 0, gen });
            }
        }
    }

    /// Returns the credit for a consumed arrival, unless the injector
    /// loses it on the way back up.
    fn return_credit(&mut self, ctx: &mut Ctx<'_, NetEvent>) {
        let (up, port) = self.rx_upstream.expect("wired endpoint");
        let link = self.tx.as_ref().and_then(TxPort::link);
        if let (Some(inj), Some(link)) = (self.injector.as_ref(), link) {
            if inj.credit_lost(link, ctx.now()) {
                return;
            }
        }
        ctx.send(
            up,
            self.consume_delay + self.timing.link_prop,
            NetEvent::Credit { port },
        );
    }

    /// Seals and launches one control frame toward the upstream switch
    /// after `delay`, consulting the injector for its fate. The endpoint's
    /// transmit link and its credit-return path share one physical link,
    /// so control traffic in either role rides `tx.link()`.
    fn send_ctrl(&mut self, msg: CtrlMsg, delay: SimTime, ctx: &mut Ctx<'_, NetEvent>) {
        let (up, port) = self.rx_upstream.expect("wired endpoint");
        let link = self.tx.as_ref().and_then(TxPort::link);
        let Some(frame) = seal_ctrl(msg, self.injector.as_ref(), link, ctx.now()) else {
            return;
        };
        ctx.send(up, delay, NetEvent::Ctrl { port, frame });
    }

    /// Sinks one accepted arrival: record the receipt, bump the drain
    /// counter, and start the credit on its way back.
    fn consume(&mut self, packet: Packet, ctx: &mut Ctx<'_, NetEvent>) {
        if let Some(rx) = self.rx_link.as_mut() {
            rx.on_drain();
        }
        self.received.push(Receipt {
            at: ctx.now(),
            packet,
        });
        self.return_credit(ctx);
    }
}

impl Component<NetEvent> for SourceSink {
    fn on_event(&mut self, ev: NetEvent, ctx: &mut Ctx<'_, NetEvent>) {
        match ev {
            NetEvent::Arrive { packet, .. } => {
                let (fate, reply) = self
                    .rx_link
                    .as_mut()
                    .map_or((RxFate::Deliver, None), |rx| rx.receive(&packet));
                if let Some(msg) = reply {
                    self.send_ctrl(msg, self.timing.link_prop, ctx);
                }
                if fate == RxFate::Deliver {
                    // The sink consumes immediately for protocol purposes;
                    // the drain counter feeds resync. The arrival may have
                    // closed a reorder-window gap: consume the released
                    // successors in order.
                    self.consume(packet, ctx);
                    let released = self
                        .rx_link
                        .as_mut()
                        .map(LinkRx::take_ready)
                        .unwrap_or_default();
                    for p in released {
                        self.consume(p, ctx);
                    }
                }
            }
            NetEvent::Credit { .. } => {
                if let Some(tx) = self.tx.as_mut() {
                    if let Err(err) = tx.on_credit_at(ctx.now()) {
                        self.errors.push(err);
                    }
                }
                self.pump(ctx);
            }
            NetEvent::PumpOut { .. } => {
                if let Some(tx) = self.tx.as_mut() {
                    tx.on_free();
                }
                self.pump(ctx);
            }
            NetEvent::Ctrl { frame, .. } => {
                let (tx, rx) = (self.tx.as_mut(), self.rx_link.as_mut());
                match receive_ctrl(&frame, tx, rx, ctx.now()) {
                    CtrlEffect::Corrupt => self.ctrl_discards += 1,
                    CtrlEffect::Acked { dead } => {
                        if let Some(err) = dead {
                            self.errors.push(err);
                        }
                        self.pump(ctx);
                    }
                    CtrlEffect::Synced { .. } => self.pump(ctx),
                    // The reply travels with the same latency as credit
                    // returns, so it can never overtake a credit already
                    // in flight (which the drain count includes).
                    CtrlEffect::Reply(msg) => {
                        self.send_ctrl(msg, self.consume_delay + self.timing.link_prop, ctx);
                    }
                    // Test endpoints run no failure detector: beacons
                    // flooding past are sunk silently.
                    CtrlEffect::Heartbeat { .. } | CtrlEffect::Reset => {}
                }
            }
            NetEvent::RetxTimer { gen, .. } => {
                let action = self
                    .tx
                    .as_mut()
                    .map(|tx| tx.on_timer(gen, ctx.now()))
                    .unwrap_or(TimerAction::Stale);
                match action {
                    TimerAction::Retransmit => self.pump(ctx),
                    TimerAction::Resync { token } => {
                        self.send_ctrl(CtrlMsg::SyncReq { token }, self.timing.link_prop, ctx);
                    }
                    TimerAction::Dead(err) => self.errors.push(err),
                    TimerAction::Stale | TimerAction::Idle => {}
                }
                if let Some(tx) = self.tx.as_mut() {
                    if let Some((delay, gen)) = tx.poll_timer(ctx.now()) {
                        ctx.send_self(delay, NetEvent::RetxTimer { port: 0, gen });
                    }
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Kicks an endpoint's injection pump: schedule this once after enqueueing.
/// (Any credit-shaped event wakes the pump; this sends a zero-cost one.)
pub fn kick(engine: &mut tg_sim::Engine<NetEvent>, endpoint: tg_sim::CompId) {
    // A PumpOut on an idle port is a no-op apart from running the pump.
    engine.schedule(SimTime::ZERO, endpoint, NetEvent::PumpOut { port: 0 });
}
