//! Link-level reliability: receive-side verification state and the shared
//! protocol vocabulary.
//!
//! Telegraphos-class fabrics earn their "lossless, in-order" contract with
//! link-level error detection and retransmission (APEnet+ puts CRC +
//! retransmit directly on its torus links). This module models that layer:
//! every frame carries a per-link sequence number and a checksum
//! ([`Packet::seal`]); the receiving end of each link runs a [`LinkRx`]
//! that verifies checksum and sequencing and answers with cumulative
//! ACKs and NACKs. Two retransmit disciplines are selectable per fabric
//! ([`RetxMode`]): classic go-back-N, where any out-of-order frame is
//! discarded and the sender rewinds, and selective repeat (SACK), where
//! intact out-of-order frames are parked in a bounded reorder window and
//! acks carry a receipt bitmap so the sender retransmits only the frames
//! actually missing. Both commit byte-identical payload streams; SACK
//! just stops paying for every in-flight successor of a single lost
//! frame. The transmit-side state machine (retransmit buffer, adaptive
//! RTO, backoff, credit resync) lives in [`TxPort`](crate::TxPort).
//!
//! Every endpoint kind (HIB, switch, test endpoint) makes the protocol's
//! decisions here, once: [`LinkRx::receive`] gives an arrived frame its
//! [`RxFate`] and the ack or nack its sender is owed, [`receive_ctrl`]
//! applies a control frame to the port's transmit and receive state, and
//! [`seal_ctrl`] seals an outgoing control frame past the fault
//! injector. The endpoints keep only their own effects.
//!
//! [`Packet::seal`]: tg_wire::Packet::seal

use std::collections::BTreeMap;
use std::fmt;

use tg_sim::SimTime;
use tg_wire::{CtrlFrame, CtrlMsg, NodeId, Packet};

use crate::fault::{FaultInjector, FrameFate, LinkId};
use crate::port::{TimerAction, TxPort};

/// A neighbor-originated protocol violation, reported instead of panicking:
/// a misbehaving (or fault-injected) peer must degrade the link, not wedge
/// the whole cluster.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkError {
    /// A credit was returned beyond the initial allowance.
    DuplicateCredit {
        /// The allowance that would have been exceeded.
        allowance: u32,
    },
    /// A frame arrived at a full input FIFO (credit protocol violated).
    FifoOverflow {
        /// The FIFO capacity that was exceeded.
        capacity: u32,
    },
    /// The retransmit budget for a frame was exhausted; the link is dead.
    RetryExhausted {
        /// Retries attempted before giving up.
        retries: u32,
        /// Frames stranded in the retransmit buffer.
        stranded: usize,
    },
    /// A credit-starved port's resync probes went unanswered for a full
    /// retry budget: the neighbor is totally silent and the link is dead.
    ProbeExhausted {
        /// Consecutive probes sent without a reply or a returned credit.
        probes: u32,
        /// Credits still missing from the allowance when the port gave up.
        missing: u32,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::DuplicateCredit { allowance } => {
                write!(
                    f,
                    "credit return exceeds the initial allowance of {allowance}"
                )
            }
            LinkError::FifoOverflow { capacity } => {
                write!(f, "input FIFO overflow: capacity {capacity} exceeded")
            }
            LinkError::RetryExhausted { retries, stranded } => {
                write!(
                    f,
                    "link dead: retransmit budget exhausted after {retries} retries \
                     ({stranded} frames stranded)"
                )
            }
            LinkError::ProbeExhausted { probes, missing } => {
                write!(
                    f,
                    "link dead: {probes} consecutive resync probes unanswered \
                     ({missing} credits never returned)"
                )
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Which retransmit discipline the link layer runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RetxMode {
    /// Go-back-N: receivers accept only the next in-order frame; a NACK
    /// rewinds the sender to retransmit everything unacknowledged.
    #[default]
    GoBackN,
    /// Selective repeat: receivers park intact out-of-order frames in a
    /// bounded reorder window and report them in an ack bitmap; the
    /// sender retransmits only the frames the bitmap says are missing.
    Sack,
}

/// Tuning of the link-level reliability protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RelParams {
    /// Initial retransmission timeout for the oldest unacknowledged
    /// frame, used until the first ack round-trip is sampled; from then
    /// on the adaptive Jacobson RTO (clamped to `rto_min..=rto_max`)
    /// takes over. Must comfortably exceed the link round-trip
    /// (serialization + propagation + ACK return), or the first frames
    /// retransmit spuriously.
    pub retx_timeout: SimTime,
    /// Per-frame retransmission budget; exhausting it declares the link
    /// dead ([`LinkError::RetryExhausted`]).
    pub max_retries: u32,
    /// Cap on the exponential backoff multiplier applied to the
    /// retransmit timeout across consecutive timeouts of the same frame.
    pub backoff_cap: u32,
    /// Ceiling on how long a port may sit credit-starved with traffic
    /// pending (and an empty retransmit buffer) before probing its
    /// neighbor with a credit-resync handshake. Once RTT samples exist
    /// the probe interval is derived from the adaptive RTO
    /// (`min(resync_timeout, 4 * rto)`), so lightly-loaded lossy links
    /// reclaim credits proportionally faster.
    pub resync_timeout: SimTime,
    /// The retransmit discipline ([`RetxMode::GoBackN`] by default).
    pub mode: RetxMode,
    /// Reorder-window size in frames for [`RetxMode::Sack`] (clamped to
    /// the 64-bit ack bitmap; ignored in go-back-N mode).
    pub sack_window: u32,
    /// Floor for the adaptive retransmission timeout. Must exceed the
    /// largest frame's round-trip or clean bulk traffic retransmits
    /// spuriously.
    pub rto_min: SimTime,
    /// Ceiling for the adaptive retransmission timeout (backoff may
    /// still multiply beyond it, bounded by `backoff_cap`).
    pub rto_max: SimTime,
    /// Interval between the liveness beacons each HIB originates
    /// (flooded fabric-wide by the switches). `None` disables
    /// heartbeats — and with them crash-stop failure detection.
    pub heartbeat_every: Option<SimTime>,
    /// Hard floor on how long a peer may be beacon-silent before the
    /// failure detector declares it down. The effective threshold is
    /// `max(peer_timeout, phi_factor * observed mean beacon gap)`.
    pub peer_timeout: SimTime,
    /// Multiplier on the observed mean beacon gap in the suspicion
    /// threshold (the simplified phi-accrual knob).
    pub phi_factor: u32,
}

impl Default for RelParams {
    fn default() -> Self {
        RelParams {
            retx_timeout: SimTime::from_us(10),
            max_retries: 16,
            backoff_cap: 8,
            resync_timeout: SimTime::from_us(40),
            mode: RetxMode::GoBackN,
            sack_window: 32,
            rto_min: SimTime::from_us(5),
            rto_max: SimTime::from_us(100),
            heartbeat_every: Some(SimTime::from_us(20)),
            peer_timeout: SimTime::from_us(100),
            phi_factor: 8,
        }
    }
}

impl RelParams {
    /// The default parameter set under the given retransmit mode.
    pub fn with_mode(mode: RetxMode) -> Self {
        RelParams {
            mode,
            ..RelParams::default()
        }
    }

    /// Overrides the SACK reorder-window size (frames; clamped to the
    /// 64-bit receipt bitmap by the receiver).
    pub fn with_sack_window(mut self, frames: u32) -> Self {
        self.sack_window = frames;
        self
    }

    /// Disables heartbeat origination (and with it failure detection) —
    /// the configuration the zero-fault overhead gate compares against.
    pub fn without_heartbeats(mut self) -> Self {
        self.heartbeat_every = None;
        self
    }

    /// Overrides the heartbeat interval.
    pub fn with_heartbeat_every(mut self, every: SimTime) -> Self {
        self.heartbeat_every = Some(every);
        self
    }
}

/// What the receiving link layer decided about one arrived frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RxVerdict {
    /// In-order, intact: deliver to the input FIFO and send the
    /// cumulative ACK for `ack`. In SACK mode the arrival may have
    /// released buffered successors — drain [`LinkRx::take_ready`] into
    /// the FIFO after the frame itself; `ack` already covers them.
    Accept {
        /// Highest in-order sequence number received (covers any frames
        /// released from the reorder window by this arrival).
        ack: u64,
    },
    /// SACK mode: an intact out-of-order frame was parked in the reorder
    /// window (or was already there). Nothing enters the FIFO yet.
    Held {
        /// Highest in-order sequence number received.
        ack: u64,
        /// True when this arrival first exposed the gap at `ack + 1`:
        /// send a NACK for it (fast retransmit). Otherwise refresh the
        /// sender's view with an ACK carrying the grown bitmap.
        nack: bool,
        /// True when the frame was already parked (a spurious
        /// retransmit): it was discarded as a duplicate.
        dup: bool,
    },
    /// A duplicate of an already-accepted frame (a spurious retransmit):
    /// discard and re-send the cumulative ACK for `ack` so the sender's
    /// buffer drains.
    DupAck {
        /// Highest accepted sequence number.
        ack: u64,
    },
    /// Corrupt frame: discard and NACK asking for retransmission from
    /// `expected`.
    NackCorrupt {
        /// The sequence number expected next.
        expected: u64,
    },
    /// Sequence gap (an earlier frame was lost in flight): discard and
    /// NACK asking for retransmission from `expected`.
    NackGap {
        /// The sequence number expected next.
        expected: u64,
    },
    /// Sequence gap already NACKed: discard silently (suppresses NACK
    /// storms while a burst of in-flight frames drains).
    Discard,
}

/// What the receiving end does with one arrived frame, as decided by
/// [`LinkRx::receive`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RxFate {
    /// Deliver it, then every frame [`LinkRx::take_ready`] releases
    /// behind it, in order.
    Deliver,
    /// Parked in the SACK reorder window: nothing to deliver yet.
    Parked,
    /// Discarded (corrupt, duplicate, or past a gap): trace the drop.
    Dropped,
}

/// Receive-side link-layer state for one input port: sequence
/// verification, checksum checking, NACK suppression, the SACK reorder
/// window, and the drain counter the credit-resync handshake reports.
#[derive(Clone, Debug)]
pub struct LinkRx {
    /// The retransmit discipline this receiver runs.
    mode: RetxMode,
    /// Reorder-window size in frames (SACK mode; ≤ 64 so the receipt
    /// bitmap covers the whole window).
    window: u64,
    /// Next in-order sequence number (frames are stamped from 1).
    expected: u64,
    /// Intact out-of-order frames parked until the gap fills (SACK
    /// mode). Keys are link sequence numbers in
    /// `expected + 1 .. expected + window`.
    buffer: BTreeMap<u64, Packet>,
    /// Frames released from the reorder window by the last in-order
    /// arrival, in sequence order, awaiting FIFO delivery.
    ready: Vec<Packet>,
    /// The gap we most recently NACKed; suppresses repeat NACKs for the
    /// same expected frame while in-flight traffic drains.
    nacked_for: Option<u64>,
    /// Total frames drained from the input FIFO on this link (monotone;
    /// reported by the credit-resync handshake).
    drained: u64,
    /// Frames discarded as corrupt.
    corrupt: u64,
    /// Frames discarded as duplicates.
    dups: u64,
    /// Frames discarded for a sequence gap.
    gaps: u64,
    /// Frames flushed by link-epoch resets (the sender abandoned them).
    reset_flushed: u64,
}

impl LinkRx {
    /// Fresh go-back-N state: expecting sequence 1.
    pub fn new() -> Self {
        LinkRx::with_mode(RetxMode::GoBackN, 0)
    }

    /// Fresh state under an explicit retransmit discipline. The SACK
    /// reorder window is clamped to the 64-frame bitmap.
    pub fn with_mode(mode: RetxMode, sack_window: u32) -> Self {
        LinkRx {
            mode,
            window: u64::from(sack_window.clamp(1, 64)),
            expected: 1,
            buffer: BTreeMap::new(),
            ready: Vec::new(),
            nacked_for: None,
            drained: 0,
            corrupt: 0,
            dups: 0,
            gaps: 0,
            reset_flushed: 0,
        }
    }

    /// Fresh state matching a parameter set.
    pub fn for_params(params: &RelParams) -> Self {
        LinkRx::with_mode(params.mode, params.sack_window)
    }

    /// Judges one arrived frame and says what to do with it and which
    /// ack or nack, if any, its sender is owed (SACK bitmap filled in).
    /// Send the reply before acting on the fate: one seeded stream decides
    /// the reply's fault fate and that of any credit the delivery returns.
    /// A port without a receiver runs no protocol: its frames are
    /// `(RxFate::Deliver, None)`.
    pub fn receive(&mut self, packet: &Packet) -> (RxFate, Option<CtrlMsg>) {
        let verdict = self.accept(packet);
        let sack = self.sack_bits();
        let ack = |seq| Some(CtrlMsg::Ack { seq, sack });
        let nack = |expected| Some(CtrlMsg::Nack { expected, sack });
        match verdict {
            RxVerdict::Accept { ack: seq } => (RxFate::Deliver, ack(seq)),
            // A spurious retransmit of a parked frame: the missing base
            // frame's ack will carry the bitmap.
            RxVerdict::Held { dup: true, .. } => (RxFate::Dropped, None),
            RxVerdict::Held {
                ack: seq,
                nack: true,
                ..
            } => (RxFate::Parked, nack(seq + 1)),
            // Refresh the sender's view of the window with a duplicate
            // cumulative ack and the grown bitmap.
            RxVerdict::Held { ack: seq, .. } => (RxFate::Parked, ack(seq)),
            RxVerdict::DupAck { ack: seq } => (RxFate::Dropped, ack(seq)),
            RxVerdict::NackCorrupt { expected } | RxVerdict::NackGap { expected } => {
                (RxFate::Dropped, nack(expected))
            }
            RxVerdict::Discard => (RxFate::Dropped, None),
        }
    }

    /// Judges one arrived frame.
    fn accept(&mut self, packet: &Packet) -> RxVerdict {
        if !packet.checksum_ok() {
            self.corrupt += 1;
            // A corrupt frame's sequence number is untrustworthy; always
            // ask for retransmission from the expected frame.
            self.nacked_for = Some(self.expected);
            return RxVerdict::NackCorrupt {
                expected: self.expected,
            };
        }
        if packet.link_seq == self.expected {
            self.expected += 1;
            self.nacked_for = None;
            // The gap just closed; release any buffered successors in
            // sequence order.
            while let Some(p) = self.buffer.remove(&self.expected) {
                self.ready.push(p);
                self.expected += 1;
            }
            RxVerdict::Accept {
                ack: self.expected - 1,
            }
        } else if packet.link_seq < self.expected {
            self.dups += 1;
            RxVerdict::DupAck {
                ack: self.expected - 1,
            }
        } else if self.mode == RetxMode::Sack && packet.link_seq - self.expected < self.window {
            let ack = self.expected - 1;
            if self.buffer.contains_key(&packet.link_seq) {
                self.dups += 1;
                return RxVerdict::Held {
                    ack,
                    nack: false,
                    dup: true,
                };
            }
            self.buffer.insert(packet.link_seq, packet.clone());
            let nack = self.nacked_for != Some(self.expected);
            if nack {
                self.nacked_for = Some(self.expected);
            }
            RxVerdict::Held {
                ack,
                nack,
                dup: false,
            }
        } else {
            self.gaps += 1;
            if self.nacked_for == Some(self.expected) {
                RxVerdict::Discard
            } else {
                self.nacked_for = Some(self.expected);
                RxVerdict::NackGap {
                    expected: self.expected,
                }
            }
        }
    }

    /// Drains the frames released from the reorder window by the last
    /// in-order arrival, in sequence order.
    pub fn take_ready(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.ready)
    }

    /// The selective-ack bitmap relative to the cumulative ack: bit `i`
    /// set means frame `ack + 1 + i` is parked in the reorder window
    /// (bit 0 is always clear — `ack + 1` is the missing frame). Zero
    /// in go-back-N mode.
    pub fn sack_bits(&self) -> u64 {
        let mut bits = 0u64;
        for &seq in self.buffer.keys() {
            bits |= 1 << (seq - self.expected);
        }
        bits
    }

    /// Frames currently parked in the reorder window (must be zero at
    /// quiescence — a non-empty window means a gap never filled).
    pub fn reorder_depth(&self) -> usize {
        self.buffer.len()
    }

    /// Records one frame drained from the input FIFO (its credit is being
    /// returned upstream).
    pub fn on_drain(&mut self) {
        self.drained += 1;
    }

    /// Total frames drained on this link.
    pub fn drained(&self) -> u64 {
        self.drained
    }

    /// Frames discarded as corrupt so far.
    pub fn corrupt_discards(&self) -> u64 {
        self.corrupt
    }

    /// Frames discarded as duplicates or gaps so far.
    pub fn seq_discards(&self) -> u64 {
        self.dups + self.gaps
    }

    /// Frames that arrived beyond the reorder window (or in go-back-N
    /// mode, past the expected frame) and were NACKed back for
    /// retransmission rather than parked. A non-zero count under a small
    /// SACK window shows the overflow path ran — the frame was asked for
    /// again, never silently dropped.
    pub fn gap_discards(&self) -> u64 {
        self.gaps
    }

    /// Applies a link-epoch reset from the sender ([`CtrlMsg::Reset`]):
    /// reseats the expected sequence number at `next`, flushes any
    /// parked reorder frames and pending releases (the sender abandoned
    /// everything before `next`), clears NACK suppression, and zeroes
    /// the drain counter so post-reset credit resyncs account only the
    /// new epoch. Idempotent for repeated resets carrying the same
    /// `next`. Returns the number of frames flushed.
    ///
    /// [`CtrlMsg::Reset`]: tg_wire::CtrlMsg::Reset
    pub fn on_reset(&mut self, next: u64) -> usize {
        let flushed = self.buffer.len() + self.ready.len();
        self.buffer.clear();
        self.ready.clear();
        self.expected = next;
        self.nacked_for = None;
        self.drained = 0;
        self.reset_flushed += flushed as u64;
        flushed
    }

    /// Frames flushed by link-epoch resets so far (conservation-audit
    /// input: these frames were abandoned by the sender, not leaked).
    pub fn reset_flushes(&self) -> u64 {
        self.reset_flushed
    }
}

impl Default for LinkRx {
    fn default() -> Self {
        LinkRx::new()
    }
}

/// What a received control frame leaves its component to do once
/// [`receive_ctrl`] has applied the protocol's half of it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CtrlEffect {
    /// The checksum failed: the frame was discarded unread. Count it.
    Corrupt,
    /// An ack or nack reached the transmit port, if there is one: pump
    /// it.
    Acked {
        /// Set when a nack exhausted the retransmit budget.
        dead: Option<LinkError>,
    },
    /// A resync reply reached the transmit port, if there is one: pump
    /// it.
    Synced {
        /// The token of the handshake the reply completed, if it did.
        resynced: Option<u64>,
    },
    /// A resync probe: send this reply back to the prober.
    Reply(CtrlMsg),
    /// A liveness beacon, for the component's failure detector.
    Heartbeat {
        /// The workstation that originated the beacon.
        origin: NodeId,
        /// The beacon's per-origin sequence number.
        seq: u64,
    },
    /// A link-epoch reset, already applied to the receiver.
    Reset,
}

/// Applies the protocol's half of a control frame that arrived on one
/// port to that port's transmit and receive state (either may be
/// absent), and returns what is left for the component to do. A frame
/// failing its checksum is never acted on.
pub fn receive_ctrl(
    frame: &CtrlFrame,
    tx: Option<&mut TxPort>,
    rx: Option<&mut LinkRx>,
    now: SimTime,
) -> CtrlEffect {
    if !frame.checksum_ok() {
        return CtrlEffect::Corrupt;
    }
    match frame.msg {
        CtrlMsg::Ack { seq, sack } => {
            if let Some(tx) = tx {
                tx.on_ack(seq, sack, now);
            }
            CtrlEffect::Acked { dead: None }
        }
        CtrlMsg::Nack { expected, sack } => CtrlEffect::Acked {
            dead: match tx.map(|tx| tx.on_nack(expected, sack, now)) {
                Some(TimerAction::Dead(err)) => Some(err),
                _ => None,
            },
        },
        // Resync replies are idempotent: the drain counter is monotone, so
        // answering a retried (or duplicated) probe never double-credits.
        CtrlMsg::SyncReq { token } => CtrlEffect::Reply(CtrlMsg::SyncAck {
            token,
            drained: rx.map_or(0, |rx| rx.drained()),
        }),
        CtrlMsg::SyncAck { token, drained } => CtrlEffect::Synced {
            resynced: tx
                .is_some_and(|tx| tx.on_sync_ack(token, drained, now))
                .then_some(token),
        },
        CtrlMsg::Heartbeat { origin, seq } => CtrlEffect::Heartbeat { origin, seq },
        // The neighbor started a fresh transmit epoch after an outage:
        // reseat the expected sequence, flush the reorder window, and
        // zero the drain counter for resync math.
        CtrlMsg::Reset { next } => {
            if let Some(rx) = rx {
                rx.on_reset(next);
            }
            CtrlEffect::Reset
        }
    }
}

/// Seals `msg` for launch on `link`, consulting the fault injector when
/// both are known: `None` when the injector drops the frame in flight. A
/// frame it corrupts still launches; the receiver's checksum discards it.
/// The caller chooses the destination and the delay.
pub fn seal_ctrl(
    msg: CtrlMsg,
    injector: Option<&FaultInjector>,
    link: Option<LinkId>,
    now: SimTime,
) -> Option<CtrlFrame> {
    let mut frame = CtrlFrame::seal(msg);
    if let (Some(inj), Some(link)) = (injector, link) {
        if inj.ctrl_fate(link, now, &mut frame) == FrameFate::Drop {
            return None;
        }
    }
    Some(frame)
}

/// Credit bookkeeping of one transmit port, for quiescence-time
/// conservation checks: once all FIFOs have drained, every credit is
/// either in hand or riding an unacknowledged frame, so
/// `credits + unacked == allowance` must hold. A shortfall means a credit
/// leaked (lost in flight and never resynced); an excess means a duplicate
/// credit was minted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CreditLedger {
    /// The directed link this transmit port feeds.
    pub link: LinkId,
    /// Credits currently in hand.
    pub credits: u32,
    /// Frames awaiting acknowledgement (each holds one credit).
    pub unacked: usize,
    /// The initial credit allowance.
    pub allowance: u32,
}

impl CreditLedger {
    /// True when every credit is accounted for.
    pub fn balanced(&self) -> bool {
        u64::from(self.credits) + self.unacked as u64 == u64::from(self.allowance)
    }
}

impl fmt::Display for CreditLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} in hand + {} unacked != allowance {}",
            self.link, self.credits, self.unacked, self.allowance
        )
    }
}

/// A structured no-progress diagnosis: which link or queue is holding the
/// fabric, assembled by the cluster when the engine watchdog trips.
#[derive(Clone, Debug)]
pub struct StalledLink {
    /// The stalled directed link.
    pub link: LinkId,
    /// Whether the link has been declared dead (retry budget exhausted).
    pub dead: bool,
    /// Frames stranded in the retransmit buffer.
    pub stranded: usize,
    /// Credits in hand at the transmit port.
    pub credits: u32,
    /// Retransmissions attempted on this link.
    pub retransmits: u64,
    /// Consecutive unanswered (re)transmissions of the oldest frame.
    pub attempts: u32,
    /// Whether the ack-starvation watchdog considers the link starved
    /// (half the retry budget burned with no ack progress).
    pub starved: bool,
}

impl fmt::Display for StalledLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}, {} stranded, {} credits, {} retransmits ({} unanswered)",
            self.link,
            if self.dead {
                "DEAD"
            } else if self.starved {
                "ack-starved"
            } else {
                "stalled"
            },
            self.stranded,
            self.credits,
            self.retransmits,
            self.attempts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_wire::{TimingConfig, WireMsg};

    fn frame(seq: u64) -> Packet {
        let mut p = Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            WireMsg::WriteAck { tag: 0 },
            seq,
        );
        p.link_seq = seq;
        p.seal();
        p
    }

    fn corrupt(mut p: Packet) -> Packet {
        p.checksum ^= 0x10;
        p
    }

    /// (case, discipline, window, frames received before, arrival, fate,
    /// reply, frames released behind a delivered arrival)
    type RxCase = (
        &'static str,
        RetxMode,
        u32,
        &'static [u64],
        Packet,
        RxFate,
        Option<CtrlMsg>,
        &'static [u64],
    );

    #[test]
    fn receive_decides_fate_and_reply() {
        use RetxMode::{GoBackN, Sack};
        use RxFate::{Deliver, Dropped, Parked};
        let ack = |seq, sack| Some(CtrlMsg::Ack { seq, sack });
        let nack = |expected, sack| Some(CtrlMsg::Nack { expected, sack });
        #[rustfmt::skip]
        let cases: [RxCase; 13] = [
            ("gbn accept", GoBackN, 32, &[], frame(1), Deliver, ack(1, 0), &[]),
            ("gbn duplicate", GoBackN, 32, &[1, 2], frame(1), Dropped, ack(2, 0), &[]),
            ("gbn corrupt", GoBackN, 32, &[1], corrupt(frame(2)), Dropped, nack(2, 0), &[]),
            ("gbn first gap nacks", GoBackN, 32, &[1], frame(3), Dropped, nack(2, 0), &[]),
            ("gbn later gap is silent", GoBackN, 32, &[1, 3], frame(4), Dropped, None, &[]),
            ("sack held, first nacks", Sack, 32, &[1], frame(3), Parked, nack(2, 0b10), &[]),
            ("sack held, ack refresh", Sack, 32, &[1, 3], frame(5), Parked, ack(1, 0b1010), &[]),
            ("sack held duplicate", Sack, 32, &[1, 3], frame(3), Dropped, None, &[]),
            ("sack duplicate", Sack, 32, &[1, 2], frame(1), Dropped, ack(2, 0), &[]),
            ("sack corrupt", Sack, 32, &[1, 3], corrupt(frame(4)), Dropped, nack(2, 0b10), &[]),
            ("sack gap fill", Sack, 32, &[1, 3, 4], frame(2), Deliver, ack(4, 0), &[3, 4]),
            ("sack overflow nacks", Sack, 2, &[1], frame(4), Dropped, nack(2, 0), &[]),
            ("sack overflow, nack out", Sack, 2, &[1, 3], frame(4), Dropped, None, &[]),
        ];
        for (case, mode, window, before, arrival, fate, reply, released) in cases {
            let mut rx = LinkRx::with_mode(mode, window);
            for &seq in before {
                rx.receive(&frame(seq));
                rx.take_ready();
            }
            assert_eq!(rx.receive(&arrival), (fate, reply), "{case}");
            let seqs: Vec<u64> = rx.take_ready().iter().map(|p| p.link_seq).collect();
            assert_eq!(seqs, released, "{case}: released frames");
        }
    }

    fn comp_id() -> tg_sim::CompId {
        struct Noop;
        impl tg_sim::Component<u32> for Noop {
            fn on_event(&mut self, _: u32, _: &mut tg_sim::Ctx<'_, u32>) {}
            fn name(&self) -> &str {
                "noop"
            }
        }
        tg_sim::Engine::<u32>::new().add(Noop)
    }

    /// Frames and launches `n` fresh frames at time zero.
    fn send(tx: &mut TxPort, n: usize) {
        for _ in 0..n {
            let p = tx.frame(frame(0), SimTime::ZERO);
            tx.launch(&p, &TimingConfig::telegraphos_i());
            tx.on_free();
        }
    }

    /// A reliable port (allowance 4) with frames 1 and 2 unacknowledged.
    fn in_flight(max_retries: u32) -> TxPort {
        let mut tx = TxPort::new(comp_id(), 0, 4);
        tx.enable_reliability(RelParams {
            max_retries,
            ..RelParams::default()
        });
        send(&mut tx, 2);
        tx
    }

    /// A reliable port whose frames were all acked but whose credits were
    /// lost, with a resync probe out; returns the port and the probe's
    /// token.
    fn probing() -> (TxPort, u64) {
        let mut tx = TxPort::new(comp_id(), 0, 2);
        tx.enable_reliability(RelParams::default());
        send(&mut tx, 2);
        tx.on_ack(2, 0, SimTime::from_ns(400));
        let at = SimTime::from_ns(500);
        let (delay, gen) = tx.poll_timer(at).expect("missing credits arm a probe");
        let TimerAction::Resync { token } = tx.on_timer(gen, at + delay) else {
            panic!("expected a resync probe");
        };
        (tx, token)
    }

    /// (case, transmit port, message, corrupted in flight, effect, frames
    /// still unacknowledged and credits in hand afterwards)
    type CtrlCase = (
        &'static str,
        Option<TxPort>,
        CtrlMsg,
        bool,
        CtrlEffect,
        Option<(usize, u32)>,
    );

    #[test]
    fn receive_ctrl_applies_each_message() {
        use CtrlEffect::{Acked, Corrupt, Heartbeat, Reply, Reset, Synced};
        let (probe, token) = probing();
        let origin = NodeId::new(3);
        let ack = CtrlMsg::Ack { seq: 1, sack: 0 };
        let nack = CtrlMsg::Nack {
            expected: 1,
            sack: 0,
        };
        let sync_req = CtrlMsg::SyncReq { token: 7 };
        let sync_ack = |token| CtrlMsg::SyncAck { token, drained: 2 };
        let exhausted = LinkError::RetryExhausted {
            retries: 0,
            stranded: 2,
        };
        let reply = Reply(CtrlMsg::SyncAck {
            token: 7,
            drained: 3,
        });
        #[rustfmt::skip]
        let cases: [CtrlCase; 13] = [
            ("ack", Some(in_flight(16)), ack, false, Acked { dead: None }, Some((1, 2))),
            ("nack", Some(in_flight(16)), nack, false, Acked { dead: None }, Some((2, 2))),
            ("nack past the budget", Some(in_flight(0)), nack, false, Acked { dead: Some(exhausted) }, Some((2, 2))),
            ("sync ack", Some(probe.clone()), sync_ack(token), false, Synced { resynced: Some(token) }, Some((0, 2))),
            ("stale sync ack", Some(probe), sync_ack(token + 1), false, Synced { resynced: None }, Some((0, 0))),
            ("sync req", Some(in_flight(16)), sync_req, false, reply, Some((2, 2))),
            ("heartbeat", Some(in_flight(16)), CtrlMsg::Heartbeat { origin, seq: 5 }, false, Heartbeat { origin, seq: 5 }, Some((2, 2))),
            ("reset", Some(in_flight(16)), CtrlMsg::Reset { next: 10 }, false, Reset, Some((2, 2))),
            ("bad checksum", Some(in_flight(16)), ack, true, Corrupt, Some((2, 2))),
            ("ack, no tx port", None, ack, false, Acked { dead: None }, None),
            ("nack, no tx port", None, nack, false, Acked { dead: None }, None),
            ("sync ack, no tx port", None, sync_ack(token), false, Synced { resynced: None }, None),
            ("sync req, no tx port", None, sync_req, false, reply, None),
        ];
        for (case, mut tx, msg, corrupted, effect, after) in cases {
            let mut rx = LinkRx::new();
            for _ in 0..3 {
                rx.on_drain();
            }
            let mut frame = CtrlFrame::seal(msg);
            if corrupted {
                frame.corrupt();
            }
            let now = SimTime::from_us(50);
            assert_eq!(
                receive_ctrl(&frame, tx.as_mut(), Some(&mut rx), now),
                effect,
                "{case}"
            );
            let state = tx.as_ref().map(|tx| (tx.unacked(), tx.credits()));
            assert_eq!(state, after, "{case}: transmit port afterwards");
            let reset = matches!(msg, CtrlMsg::Reset { .. });
            assert_eq!(rx.drained(), if reset { 0 } else { 3 }, "{case}");
        }
        // A reset reseats the receive epoch; a receiver-less port answers a
        // probe with nothing drained.
        let mut rx = LinkRx::new();
        let reset = CtrlFrame::seal(CtrlMsg::Reset { next: 10 });
        assert_eq!(
            receive_ctrl(&reset, None, Some(&mut rx), SimTime::ZERO),
            Reset
        );
        assert_eq!(rx.receive(&frame(10)).0, RxFate::Deliver);
        let probe = CtrlFrame::seal(sync_req);
        assert_eq!(
            receive_ctrl(&probe, None, None, SimTime::ZERO),
            Reply(CtrlMsg::SyncAck {
                token: 7,
                drained: 0
            })
        );
    }

    #[test]
    fn in_order_frames_are_accepted_and_acked() {
        let mut rx = LinkRx::new();
        for seq in 1..=5 {
            assert_eq!(rx.accept(&frame(seq)), RxVerdict::Accept { ack: seq });
        }
        assert_eq!(rx.seq_discards(), 0);
    }

    #[test]
    fn gap_nacks_once_then_discards_silently() {
        let mut rx = LinkRx::new();
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        // Frame 2 was lost; 3, 4, 5 arrive.
        assert_eq!(rx.accept(&frame(3)), RxVerdict::NackGap { expected: 2 });
        assert_eq!(rx.accept(&frame(4)), RxVerdict::Discard);
        assert_eq!(rx.accept(&frame(5)), RxVerdict::Discard);
        // The go-back-N retransmission arrives in order.
        assert_eq!(rx.accept(&frame(2)), RxVerdict::Accept { ack: 2 });
        assert_eq!(rx.accept(&frame(3)), RxVerdict::Accept { ack: 3 });
    }

    #[test]
    fn duplicates_are_reacked_cumulatively() {
        let mut rx = LinkRx::new();
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        assert_eq!(rx.accept(&frame(2)), RxVerdict::Accept { ack: 2 });
        assert_eq!(rx.accept(&frame(1)), RxVerdict::DupAck { ack: 2 });
        assert_eq!(rx.seq_discards(), 1);
    }

    #[test]
    fn corrupt_frames_are_nacked() {
        let mut rx = LinkRx::new();
        let mut bad = frame(1);
        bad.checksum ^= 0x10;
        assert_eq!(rx.accept(&bad), RxVerdict::NackCorrupt { expected: 1 });
        assert_eq!(rx.corrupt_discards(), 1);
        // The clean retransmission is accepted.
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
    }

    #[test]
    fn drain_counter_is_monotone() {
        let mut rx = LinkRx::new();
        rx.on_drain();
        rx.on_drain();
        assert_eq!(rx.drained(), 2);
    }

    #[test]
    fn sack_parks_out_of_order_frames_and_releases_in_sequence() {
        let mut rx = LinkRx::with_mode(RetxMode::Sack, 32);
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        // Frame 2 lost; 3, 4, 5 arrive intact out of order.
        assert_eq!(
            rx.accept(&frame(3)),
            RxVerdict::Held {
                ack: 1,
                nack: true,
                dup: false
            }
        );
        assert_eq!(
            rx.accept(&frame(4)),
            RxVerdict::Held {
                ack: 1,
                nack: false,
                dup: false
            }
        );
        assert_eq!(
            rx.accept(&frame(5)),
            RxVerdict::Held {
                ack: 1,
                nack: false,
                dup: false
            }
        );
        // Bit i relative to ack=1: frames 3,4,5 are bits 1,2,3.
        assert_eq!(rx.sack_bits(), 0b1110);
        assert_eq!(rx.reorder_depth(), 3);
        assert_eq!(rx.seq_discards(), 0, "parked frames are not discards");
        // The selective retransmission of 2 releases the whole window.
        assert_eq!(rx.accept(&frame(2)), RxVerdict::Accept { ack: 5 });
        let released: Vec<u64> = rx.take_ready().iter().map(|p| p.link_seq).collect();
        assert_eq!(released, vec![3, 4, 5]);
        assert_eq!(rx.sack_bits(), 0);
        assert_eq!(rx.reorder_depth(), 0);
    }

    #[test]
    fn sack_window_overflow_nacks_instead_of_parking() {
        // Regression: a frame landing beyond the configured reorder
        // window must be NACKed back for retransmission, never parked
        // past the bitmap or silently dropped.
        let mut rx = LinkRx::with_mode(RetxMode::Sack, 2);
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        // Expected is 2; frame 3 sits one slot ahead — inside the
        // 2-frame window — and parks.
        assert_eq!(
            rx.accept(&frame(3)),
            RxVerdict::Held {
                ack: 1,
                nack: true,
                dup: false
            }
        );
        // Frame 4 would need slot expected+2: past the window. The NACK
        // for 2 is already outstanding, so it discards (counted), and a
        // later overflow after the gap closes raises a fresh NACK.
        assert_eq!(rx.accept(&frame(4)), RxVerdict::Discard);
        assert_eq!(rx.gap_discards(), 1, "overflow counted as a gap");
        assert_eq!(rx.reorder_depth(), 1, "overflow frame was not parked");
        // Retransmitted 2 closes the gap and releases 3.
        assert_eq!(rx.accept(&frame(2)), RxVerdict::Accept { ack: 3 });
        assert_eq!(
            rx.take_ready()
                .iter()
                .map(|p| p.link_seq)
                .collect::<Vec<_>>(),
            vec![3]
        );
        // Now expected is 4; an overflow with no outstanding NACK must
        // speak up, not stay silent.
        assert_eq!(rx.accept(&frame(6)), RxVerdict::NackGap { expected: 4 });
        assert_eq!(rx.gap_discards(), 2);
    }

    #[test]
    fn sack_duplicate_parked_frame_is_discarded() {
        let mut rx = LinkRx::with_mode(RetxMode::Sack, 32);
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        assert_eq!(
            rx.accept(&frame(3)),
            RxVerdict::Held {
                ack: 1,
                nack: true,
                dup: false
            }
        );
        assert_eq!(
            rx.accept(&frame(3)),
            RxVerdict::Held {
                ack: 1,
                nack: false,
                dup: true
            }
        );
        assert_eq!(rx.seq_discards(), 1);
    }

    #[test]
    fn reset_reseats_the_epoch_and_flushes_the_window() {
        let mut rx = LinkRx::with_mode(RetxMode::Sack, 32);
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        rx.on_drain();
        // Frame 2 lost, 3 and 4 parked; then the sender declares a new
        // epoch starting at 10 (it abandoned 2..=4 after a crash).
        rx.accept(&frame(3));
        rx.accept(&frame(4));
        assert_eq!(rx.on_reset(10), 2);
        assert_eq!(rx.reorder_depth(), 0);
        assert_eq!(rx.drained(), 0, "drain counter restarts with the epoch");
        assert_eq!(rx.reset_flushes(), 2);
        // Pre-epoch retransmits are dups; the new epoch flows in order.
        assert_eq!(rx.accept(&frame(2)), RxVerdict::DupAck { ack: 9 });
        assert_eq!(rx.accept(&frame(10)), RxVerdict::Accept { ack: 10 });
        // Idempotent re-application.
        assert_eq!(rx.on_reset(10), 0);
        assert_eq!(rx.accept(&frame(10)), RxVerdict::Accept { ack: 10 });
    }

    #[test]
    fn sack_frames_beyond_the_window_fall_back_to_gap_nacks() {
        let mut rx = LinkRx::with_mode(RetxMode::Sack, 4);
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        // Window covers offsets 1..4 from expected=2: seq 3..=5 park.
        assert_eq!(
            rx.accept(&frame(5)),
            RxVerdict::Held {
                ack: 1,
                nack: true,
                dup: false
            }
        );
        // Offset 4 is outside: classic gap handling, already nacked.
        assert_eq!(rx.accept(&frame(6)), RxVerdict::Discard);
        assert_eq!(rx.seq_discards(), 1);
    }
}
