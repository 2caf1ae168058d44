//! The wire protocol spoken between Host Interface Boards.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::addr::GOffset;
use crate::ids::NodeId;

/// Bytes of routing/type header carried by every packet.
pub const HEADER_BYTES: u32 = 8;

/// The remote atomic operations the HIB implements (paper §2.2.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AtomicOp {
    /// `fetch_and_store(addr, new)` — returns the old value, stores `new`.
    FetchStore,
    /// `fetch_and_inc(addr, delta)` — returns the old value, adds `delta`.
    FetchInc,
    /// `compare_and_swap(addr, expect, new)` — returns the old value, stores
    /// `new` only if the old value equals `expect`.
    CompareSwap,
}

impl fmt::Display for AtomicOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AtomicOp::FetchStore => "fetch_and_store",
            AtomicOp::FetchInc => "fetch_and_inc",
            AtomicOp::CompareSwap => "compare_and_swap",
        };
        f.write_str(s)
    }
}

/// One protocol message between HIBs.
///
/// Each variant corresponds to a hardware transaction in the paper:
/// the plain remote read/write path (§2.2.1), remote copy (§2.2.2), atomic
/// operations (§2.2.3), the owner-serialized update-coherence traffic
/// (§2.3), the VSM-baseline page traffic (§2.1) and the DMA stream used by
/// the OS-trap message-passing baseline (§1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum WireMsg {
    /// Remote write: store `val` at `addr` in the destination's segment.
    WriteReq {
        /// Target offset in the home node's shared segment.
        addr: GOffset,
        /// The 64-bit datum.
        val: u64,
        /// Idempotency tag echoed in the `WriteAck`. A timed-out write
        /// is retried with the *same* tag; the home HIB dedupes recently
        /// applied tags per source so a retry after a lost ack re-acks
        /// without re-applying the store.
        tag: u32,
    },
    /// Acknowledgement of a `WriteReq`/`MulticastWrite` (feeds the
    /// outstanding-op registry).
    WriteAck {
        /// Tag from the request being acknowledged.
        tag: u32,
    },
    /// Blocking remote read of the word at `addr`.
    ReadReq {
        /// Source offset in the home node's shared segment.
        addr: GOffset,
        /// Matching tag echoed in the response.
        tag: u32,
    },
    /// Response to a `ReadReq`.
    ReadResp {
        /// Tag from the request.
        tag: u32,
        /// The word read.
        val: u64,
    },
    /// Remote atomic operation executed at the home HIB.
    AtomicReq {
        /// Which atomic.
        op: AtomicOp,
        /// Target word.
        addr: GOffset,
        /// First argument (datum / expected value).
        arg0: u64,
        /// Second argument (only `CompareSwap` uses it).
        arg1: u64,
        /// Matching tag echoed in the response.
        tag: u32,
    },
    /// Response to an `AtomicReq` carrying the old value.
    AtomicResp {
        /// Tag from the request.
        tag: u32,
        /// Value of the word before the atomic applied.
        old: u64,
    },
    /// Remote copy: ask the home node to stream `words` words starting at
    /// `from` back to the requester.
    CopyReq {
        /// First word to copy.
        from: GOffset,
        /// Number of words.
        words: u32,
        /// Stream tag.
        tag: u32,
    },
    /// One burst of a remote-copy stream.
    CopyData {
        /// Stream tag from the `CopyReq`.
        tag: u32,
        /// Word index of the first value in this burst.
        index: u32,
        /// The copied words.
        vals: crate::Payload,
        /// True on the final burst.
        last: bool,
    },
    /// Coherent write forwarded to the page owner (§2.3.2).
    UpdateToOwner {
        /// Target word in the *owner's* segment.
        addr: GOffset,
        /// New value.
        val: u64,
        /// The node that performed the original store.
        writer: NodeId,
    },
    /// Owner-multicast update of one word of a replicated page (§2.3.1);
    /// the receiver applies counter filtering (§2.3.3).
    ReflectedWrite {
        /// Target word in the *receiver's* segment.
        addr: GOffset,
        /// New value.
        val: u64,
        /// The node whose store this reflects.
        writer: NodeId,
    },
    /// Eager-update multicast write (§2.2.7): like `WriteReq` but flagged so
    /// receivers can count multicast traffic separately.
    MulticastWrite {
        /// Target word in the receiver's segment.
        addr: GOffset,
        /// New value.
        val: u64,
        /// Idempotency tag (same discipline as [`WireMsg::WriteReq`]).
        tag: u32,
    },
    /// VSM baseline: request a whole page image.
    PageFetchReq {
        /// Page within the home node's segment.
        page: u32,
        /// Stream tag.
        tag: u32,
    },
    /// VSM baseline: one burst of a page image.
    PageData {
        /// Stream tag from the `PageFetchReq`.
        tag: u32,
        /// Word index of the first value in this burst.
        index: u32,
        /// Page words.
        vals: crate::Payload,
        /// True on the final burst.
        last: bool,
    },
    /// VSM baseline: invalidate a replicated page.
    InvalidateReq {
        /// Page within the receiver's segment mapping.
        page: u32,
    },
    /// VSM baseline: acknowledgement of an invalidation.
    InvalidateAck {
        /// The invalidated page.
        page: u32,
    },
    /// OS-trap message-passing baseline: one DMA burst of an opaque message.
    DmaData {
        /// Message tag.
        tag: u32,
        /// Payload bytes in this burst.
        nbytes: u32,
        /// True on the final burst.
        last: bool,
    },
    /// Generic OS-to-OS control message (software protocols such as the
    /// VSM baseline define the `kind` codes). The HIB only transports it.
    OsCtl {
        /// Protocol-defined message kind.
        kind: u16,
        /// First operand.
        a: u64,
        /// Second operand.
        b: u64,
    },
}

impl WireMsg {
    /// Payload bytes of this message (excluding the packet header).
    ///
    /// The numbers model the narrow-link encoding of the Telegraphos
    /// prototype: 48-bit addresses, 64-bit data, small tags. Absolute values
    /// only matter through the timing calibration in
    /// [`TimingConfig`](crate::TimingConfig).
    pub fn payload_bytes(&self) -> u32 {
        match self {
            WireMsg::WriteReq { .. } => 18,
            WireMsg::WriteAck { .. } => 6,
            WireMsg::ReadReq { .. } => 10,
            WireMsg::ReadResp { .. } => 12,
            WireMsg::AtomicReq { .. } => 26,
            WireMsg::AtomicResp { .. } => 12,
            WireMsg::CopyReq { .. } => 14,
            WireMsg::CopyData { vals, .. } => 8 + 8 * vals.len() as u32,
            WireMsg::UpdateToOwner { .. } => 16,
            WireMsg::ReflectedWrite { .. } => 16,
            WireMsg::MulticastWrite { .. } => 18,
            WireMsg::PageFetchReq { .. } => 8,
            WireMsg::PageData { vals, .. } => 8 + 8 * vals.len() as u32,
            WireMsg::InvalidateReq { .. } => 6,
            WireMsg::InvalidateAck { .. } => 6,
            WireMsg::DmaData { nbytes, .. } => 8 + nbytes,
            WireMsg::OsCtl { .. } => 20,
        }
    }

    /// Stable short name of this message kind, for trace exporters and
    /// reports (`'static` so probes can record it without allocating).
    pub fn kind_str(&self) -> &'static str {
        match self {
            WireMsg::WriteReq { .. } => "write_req",
            WireMsg::WriteAck { .. } => "write_ack",
            WireMsg::ReadReq { .. } => "read_req",
            WireMsg::ReadResp { .. } => "read_resp",
            WireMsg::AtomicReq { .. } => "atomic_req",
            WireMsg::AtomicResp { .. } => "atomic_resp",
            WireMsg::CopyReq { .. } => "copy_req",
            WireMsg::CopyData { .. } => "copy_data",
            WireMsg::UpdateToOwner { .. } => "update_to_owner",
            WireMsg::ReflectedWrite { .. } => "reflected_write",
            WireMsg::MulticastWrite { .. } => "multicast_write",
            WireMsg::PageFetchReq { .. } => "page_fetch_req",
            WireMsg::PageData { .. } => "page_data",
            WireMsg::InvalidateReq { .. } => "invalidate_req",
            WireMsg::InvalidateAck { .. } => "invalidate_ack",
            WireMsg::DmaData { .. } => "dma_data",
            WireMsg::OsCtl { .. } => "os_ctl",
        }
    }

    /// True for messages that elicit no reply of their own and are instead
    /// covered by the outstanding-operation counters (write-class traffic).
    pub fn is_posted(&self) -> bool {
        matches!(
            self,
            WireMsg::WriteReq { .. }
                | WireMsg::UpdateToOwner { .. }
                | WireMsg::ReflectedWrite { .. }
                | WireMsg::MulticastWrite { .. }
                | WireMsg::DmaData { .. }
        )
    }
}

/// A routable network packet: a wire message plus source and destination
/// node, stamped with an injection sequence number so tests can verify the
/// network's in-order delivery guarantee.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Injecting node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// The carried message.
    pub msg: WireMsg,
    /// Per-source injection sequence number (diagnostic; assigned by the
    /// injecting HIB, checked by in-order tests).
    pub inject_seq: u64,
    /// Link-layer sequence number, restamped by the transmitting port on
    /// every hop when link-level reliability is enabled (0 otherwise).
    pub link_seq: u64,
    /// Frame checksum as put on the wire by [`Packet::seal`]; receivers
    /// recompute and compare (see [`Packet::checksum_ok`]). A value of 0
    /// with an unsealed packet means "no checksum" (unreliable links).
    pub checksum: u32,
}

impl Packet {
    /// Creates a packet with link-layer fields cleared; the transmitting
    /// port stamps `link_seq` and seals the checksum when reliability is
    /// enabled.
    pub fn new(src: NodeId, dst: NodeId, msg: WireMsg, inject_seq: u64) -> Self {
        Packet {
            src,
            dst,
            msg,
            inject_seq,
            link_seq: 0,
            checksum: 0,
        }
    }

    /// Total bytes on the wire: header plus payload.
    pub fn size_bytes(&self) -> u32 {
        HEADER_BYTES + self.msg.payload_bytes()
    }

    /// This packet's lifecycle trace id, derived from the `(src,
    /// inject_seq)` pair that already uniquely names every injected packet.
    pub fn trace_id(&self) -> crate::trace::TraceId {
        crate::trace::TraceId::packet(self.src, self.inject_seq)
    }

    /// The frame checksum over header and payload (everything except the
    /// checksum field itself). Deterministic within a build — exactly what
    /// a simulated CRC needs. FNV-1a rather than the std SipHash: every
    /// reliable hop seals or verifies each frame, so this sits on the
    /// fabric's hot path, and a simulated CRC needs bit-flip sensitivity,
    /// not collision resistance.
    pub fn compute_checksum(&self) -> u32 {
        let mut h = Fnv1a::default();
        self.src.hash(&mut h);
        self.dst.hash(&mut h);
        self.inject_seq.hash(&mut h);
        self.link_seq.hash(&mut h);
        self.msg.hash(&mut h);
        let v = h.finish();
        // Fold to 32 bits, avoiding 0 so "sealed" is distinguishable.
        (((v >> 32) as u32) ^ (v as u32)) | 1
    }

    /// Stamps the wire checksum (after `link_seq` is final).
    pub fn seal(&mut self) {
        self.checksum = self.compute_checksum();
    }

    /// Verifies the wire checksum. Only meaningful for sealed frames.
    pub fn checksum_ok(&self) -> bool {
        self.checksum == self.compute_checksum()
    }
}

/// A minimal FNV-1a [`Hasher`]: one multiply and xor per byte (per word
/// for `u64` input), no per-hash key setup. It is the frame checksum,
/// shared with the checksum of [`CtrlFrame`](crate::CtrlFrame) so both
/// frame classes use the same CRC model, and the map hasher for keys the
/// simulator makes itself, such as [`TraceId`](crate::TraceId)s. It resists no crafted
/// collisions: keep the default hasher for keys from outside the program.
#[derive(Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        // The dominant input (ids, sequence numbers, payload words): fold
        // whole words instead of byte-at-a-time.
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}->{} #{} {:?} ({}B)",
            self.src,
            self.dst,
            self.inject_seq,
            std::mem::discriminant(&self.msg),
            self.size_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(msg: WireMsg) -> Packet {
        Packet::new(NodeId::new(0), NodeId::new(1), msg, 0)
    }

    #[test]
    fn sizes_include_header() {
        let p = packet(WireMsg::WriteReq {
            addr: GOffset::new(8),
            val: 1,
            tag: 1,
        });
        assert_eq!(p.size_bytes(), HEADER_BYTES + 18);
    }

    #[test]
    fn bulk_sizes_scale_with_payload() {
        let small = WireMsg::CopyData {
            tag: 0,
            index: 0,
            vals: vec![0; 1].into(),
            last: false,
        };
        let big = WireMsg::CopyData {
            tag: 0,
            index: 0,
            vals: vec![0; 8].into(),
            last: true,
        };
        assert_eq!(big.payload_bytes() - small.payload_bytes(), 7 * 8);
        let dma = WireMsg::DmaData {
            tag: 0,
            nbytes: 100,
            last: true,
        };
        assert_eq!(dma.payload_bytes(), 108);
    }

    #[test]
    fn posted_classification() {
        assert!(WireMsg::WriteReq {
            addr: GOffset::new(0),
            val: 0,
            tag: 0
        }
        .is_posted());
        assert!(WireMsg::ReflectedWrite {
            addr: GOffset::new(0),
            val: 0,
            writer: NodeId::new(0)
        }
        .is_posted());
        assert!(!WireMsg::ReadReq {
            addr: GOffset::new(0),
            tag: 0
        }
        .is_posted());
        assert!(!WireMsg::WriteAck { tag: 0 }.is_posted());
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut p = packet(WireMsg::WriteReq {
            addr: GOffset::new(8),
            val: 42,
            tag: 3,
        });
        p.link_seq = 7;
        p.seal();
        assert!(p.checksum_ok());
        // Payload corruption is caught.
        let mut bad = p.clone();
        bad.msg = WireMsg::WriteReq {
            addr: GOffset::new(8),
            val: 43,
            tag: 3,
        };
        assert!(!bad.checksum_ok());
        // Checksum-field corruption is caught.
        let mut flipped = p.clone();
        flipped.checksum ^= 0x4;
        assert!(!flipped.checksum_ok());
        // Link-sequence corruption is caught.
        let mut reseq = p.clone();
        reseq.link_seq = 8;
        assert!(!reseq.checksum_ok());
        // Sealing is deterministic.
        let mut again = packet(WireMsg::WriteReq {
            addr: GOffset::new(8),
            val: 42,
            tag: 3,
        });
        again.link_seq = 7;
        again.seal();
        assert_eq!(again.checksum, p.checksum);
    }

    #[test]
    fn atomic_op_display() {
        assert_eq!(AtomicOp::FetchInc.to_string(), "fetch_and_inc");
        assert_eq!(AtomicOp::FetchStore.to_string(), "fetch_and_store");
        assert_eq!(AtomicOp::CompareSwap.to_string(), "compare_and_swap");
    }
}
