//! Channel-internal wire messages (Figs 18–20, plus the multi-slot range
//! certification extension).
//!
//! # Range certification wire format
//!
//! The per-slot messages (`Send`, `SigShare`, `Certificate`) cost one RSA
//! signature per slot on the sender and one verification per slot (per
//! share for IRMC-SC) on the receiver — the saturating cost of a loaded
//! commit channel. The range messages amortize that: the per-slot content
//! digests become the leaves of a Merkle tree
//! ([`spider_crypto::merkle_root`]) and **one** signature covers
//! [`range_digest`] over the contiguous slot range `[first, first +
//! count)`.
//!
//! * [`ChannelMsg::SendRange`] — IRMC-RC: the rotated carrier's one
//!   signed copy of the whole range (the N-slot analogue of `Send`).
//! * [`ChannelMsg::RangeShare`] — IRMC-SC: a signature share over the
//!   range root exchanged inside the sender group (analogue of
//!   `SigShare`; the content stays out of the LAN exchange).
//! * [`ChannelMsg::RangeVouch`] — IRMC-RC: a digest-only,
//!   MAC-authenticated confirmation of a range; the rotated primary
//!   carrier ships the one `SendRange` while everyone else vouches, so
//!   redundancy costs a digest instead of a payload.
//! * [`ChannelMsg::RangeContent`] — IRMC-SC: the collector ships the raw
//!   range content to its receivers **before** shares arrive (§A.9
//!   overlap). Carries no proof; receivers buffer it and deliver nothing
//!   until a certificate covers it. IRMC-RC reuses it as the
//!   answer to a receiver's [`ReceiverMsg::FetchRange`].
//! * [`ChannelMsg::RangeCertificate`] — IRMC-SC: the compact shares-only
//!   certificate (root + `fs + 1` signatures); the content is *not*
//!   re-shipped.
//!
//! A range of length 1 is never emitted: a single slot travels as the
//! per-slot message, which needs no Merkle tree.
//! Range payloads are shared via [`Arc`] so multi-receiver fan-out and
//! SC re-shipping clone a pointer, not the content.

use crate::{Content, Subchannel};
use spider_crypto::{Digest, Signature};
use spider_types::wire::{DIGEST_BYTES, HEADER_BYTES, MAC_BYTES, SIG_BYTES};
use spider_types::{Position, WireSize};
use std::sync::Arc;

/// Messages originating at sender endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelMsg<M> {
    /// IRMC-RC: a sender's signed copy of the content for `(sc, p)`.
    Send {
        /// Subchannel.
        sc: Subchannel,
        /// Position.
        p: Position,
        /// The content.
        msg: M,
        /// The sender's signature over (sc, p, digest(msg)).
        sig: Signature,
    },
    /// IRMC-SC: signature share exchanged within the sender group.
    SigShare {
        /// Subchannel.
        sc: Subchannel,
        /// Position.
        p: Position,
        /// Digest of the content being vouched for.
        digest: Digest,
        /// The share (a signature over (sc, p, digest)).
        sig: Signature,
    },
    /// IRMC-SC: a collector's certificate carrying the content plus
    /// `fs + 1` signature shares.
    Certificate {
        /// Subchannel.
        sc: Subchannel,
        /// Position.
        p: Position,
        /// The content (shared: fan-out clones the pointer only).
        msg: Arc<M>,
        /// `fs + 1` shares from distinct senders over (sc, p, digest(msg)).
        shares: Vec<Signature>,
    },
    /// IRMC-RC: a sender's signed copy of a contiguous slot range
    /// `[first, first + msgs.len())`; the signature covers
    /// [`range_digest`] of the Merkle root over the per-slot digests.
    SendRange {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the range.
        first: Position,
        /// Content of each slot, in position order.
        msgs: Arc<Vec<M>>,
        /// Signature over `range_digest(sc, first, len, root)`.
        sig: Signature,
    },
    /// IRMC-SC: signature share over a slot range's Merkle root,
    /// exchanged within the sender group.
    RangeShare {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the range.
        first: Position,
        /// Number of slots covered.
        count: u32,
        /// Merkle root over the per-slot content digests.
        root: Digest,
        /// Signature over `range_digest(sc, first, count, root)`.
        sig: Signature,
    },
    /// Digest-only range confirmation (IRMC-RC): the statement that
    /// this sender submitted a range hashing to `root`, without shipping
    /// the content. The deterministically-rotated carrier ships the one
    /// [`Self::SendRange`]; every other sender ships this instead, so
    /// content crosses the wire and gets hashed at most once per range on
    /// the happy path. Authenticated by the transport MAC: a vouch is
    /// consumed only by the receiving endpoint and never forwarded as
    /// proof to a third party, so no signature is needed (IRMC-RC's
    /// trust model, Fig 18).
    RangeVouch {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the range.
        first: Position,
        /// Number of slots covered.
        count: u32,
        /// Merkle root over the per-slot content digests.
        root: Digest,
    },
    /// Raw range content. IRMC-SC: shipped by the collector ahead of
    /// certification (§A.9 overlap). IRMC-RC: a voucher's answer to
    /// [`ReceiverMsg::FetchRange`] when the primary carrier stalls.
    /// Authenticated by the transport MAC only; never deliverable without
    /// a matching [`Self::RangeCertificate`] (SC) or vouch quorum whose
    /// root the content hashes to (RC).
    RangeContent {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the range.
        first: Position,
        /// Content of each slot, in position order.
        msgs: Arc<Vec<M>>,
    },
    /// IRMC-SC: shares-only certificate for a slot range; pairs with the
    /// content from an earlier [`Self::RangeContent`].
    RangeCertificate {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the range.
        first: Position,
        /// Number of slots covered.
        count: u32,
        /// Merkle root over the per-slot content digests.
        root: Digest,
        /// `fs + 1` shares from distinct senders over
        /// `range_digest(sc, first, count, root)`.
        shares: Vec<Signature>,
    },
    /// IRMC-SC: periodic progress announcement — per subchannel, the
    /// highest position for which the sender holds gap-free certificates.
    Progress {
        /// (subchannel, highest certified position) pairs.
        positions: Vec<(Subchannel, Position)>,
    },
    /// A sender-side request to move a subchannel window forward.
    Move {
        /// Subchannel.
        sc: Subchannel,
        /// Requested new window start.
        p: Position,
    },
}

impl<M: Content> WireSize for ChannelMsg<M> {
    fn wire_size(&self) -> usize {
        match self {
            ChannelMsg::Send { msg, .. } => HEADER_BYTES + 16 + msg.wire_size() + SIG_BYTES,
            ChannelMsg::SigShare { .. } => HEADER_BYTES + 16 + DIGEST_BYTES + SIG_BYTES,
            ChannelMsg::Certificate { msg, shares, .. } => {
                HEADER_BYTES + 16 + msg.wire_size() + shares.len() * SIG_BYTES + MAC_BYTES
            }
            ChannelMsg::SendRange { msgs, .. } => {
                HEADER_BYTES + 20 + payload_size(msgs) + SIG_BYTES
            }
            ChannelMsg::RangeShare { .. } => HEADER_BYTES + 20 + DIGEST_BYTES + SIG_BYTES,
            ChannelMsg::RangeVouch { .. } => HEADER_BYTES + 20 + DIGEST_BYTES + MAC_BYTES,
            ChannelMsg::RangeContent { msgs, .. } => {
                HEADER_BYTES + 20 + payload_size(msgs) + MAC_BYTES
            }
            ChannelMsg::RangeCertificate { shares, .. } => {
                HEADER_BYTES + 20 + DIGEST_BYTES + shares.len() * SIG_BYTES + MAC_BYTES
            }
            ChannelMsg::Progress { positions } => HEADER_BYTES + positions.len() * 16 + MAC_BYTES,
            ChannelMsg::Move { .. } => HEADER_BYTES + 16 + MAC_BYTES,
        }
    }

    fn trace_kind(&self) -> &'static str {
        match self {
            ChannelMsg::Send { .. } | ChannelMsg::SendRange { .. } => "cast",
            ChannelMsg::SigShare { .. } | ChannelMsg::RangeShare { .. } => "share",
            ChannelMsg::Certificate { .. } | ChannelMsg::RangeCertificate { .. } => "cert",
            ChannelMsg::RangeVouch { .. } => "vouch",
            ChannelMsg::RangeContent { .. } => "content",
            ChannelMsg::Progress { .. } | ChannelMsg::Move { .. } => "ctrl",
        }
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        // Content-bearing variants carry their payloads' requests; the
        // digest-only ones (shares, vouches, shares-only certificates,
        // progress, moves) carry none and thus record no causal edges.
        match self {
            ChannelMsg::Send { msg, .. } => msg.trace_reqs(visit),
            ChannelMsg::Certificate { msg, .. } => msg.trace_reqs(visit),
            ChannelMsg::SendRange { msgs, .. } | ChannelMsg::RangeContent { msgs, .. } => {
                for m in msgs.iter() {
                    m.trace_reqs(visit);
                }
            }
            ChannelMsg::SigShare { .. }
            | ChannelMsg::RangeShare { .. }
            | ChannelMsg::RangeVouch { .. }
            | ChannelMsg::RangeCertificate { .. }
            | ChannelMsg::Progress { .. }
            | ChannelMsg::Move { .. } => {}
        }
    }
}

/// Total payload bytes of a range (per-slot content plus a small length
/// frame per slot).
fn payload_size<M: Content>(msgs: &[M]) -> usize {
    msgs.iter().map(|m| 4 + m.wire_size()).sum()
}

/// Messages originating at receiver endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum ReceiverMsg {
    /// Request to move a subchannel window forward.
    Move {
        /// Subchannel.
        sc: Subchannel,
        /// Requested new window start.
        p: Position,
    },
    /// IRMC-SC: announce the sender this receiver uses as collector for a
    /// subchannel.
    Select {
        /// Subchannel.
        sc: Subchannel,
        /// Chosen collector (sender index).
        collector: usize,
    },
    /// IRMC-RC: ask a voucher to ship the content of a range whose
    /// vouch quorum formed but whose primary carrier has not delivered.
    /// The voucher answers with [`ChannelMsg::RangeContent`].
    FetchRange {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the stalled range.
        first: Position,
        /// Number of slots covered.
        count: u32,
    },
}

impl WireSize for ReceiverMsg {
    fn wire_size(&self) -> usize {
        match self {
            ReceiverMsg::Move { .. } => HEADER_BYTES + 16 + MAC_BYTES,
            ReceiverMsg::Select { .. } => HEADER_BYTES + 12 + MAC_BYTES,
            ReceiverMsg::FetchRange { .. } => HEADER_BYTES + 20 + MAC_BYTES,
        }
    }

    fn trace_kind(&self) -> &'static str {
        "ack"
    }
}

/// Deterministically rotates the primary content carrier of an IRMC-RC
/// range across the sender group: a bit-mixed hash (splitmix64
/// finalizer) of `(sc, first)` modulo `n_senders`.
///
/// Deliberately *not* `first % n_senders`: range firsts advance in
/// strides of the range length, so a plain modulus would park the
/// carrier role on a single sender forever whenever the stride and the
/// group size share a factor (e.g. stride 32, 4 senders) — the rotation
/// exists precisely to spread the signing + shipping cost evenly.
pub(crate) fn carrier_for(sc: Subchannel, first: Position, n_senders: usize) -> usize {
    let mut x = sc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ first.0;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % n_senders.max(1) as u64) as usize
}

/// Digest bound to a channel slot: signatures cover the subchannel and
/// position as well as the content, so a share for one slot cannot be
/// replayed for another.
pub fn slot_digest(sc: Subchannel, p: Position, content: &Digest) -> Digest {
    Digest::builder().str("irmc-slot").u64(sc).u64(p.0).digest(content).finish()
}

/// Digest bound to a contiguous slot range: signatures cover the
/// subchannel, start position, and length as well as the Merkle root, so
/// a range signature cannot be replayed for a shifted or truncated range.
pub fn range_digest(sc: Subchannel, first: Position, count: u32, root: &Digest) -> Digest {
    Digest::builder().str("irmc-range").u64(sc).u64(first.0).u32(count).digest(root).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_crypto::Digestible;

    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Vec<u8>);
    impl WireSize for Blob {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
    }
    impl Digestible for Blob {
        fn digest(&self) -> Digest {
            Digest::of_bytes(&self.0)
        }
    }

    #[test]
    fn certificate_carries_share_bytes() {
        let ring = spider_crypto::Keyring::new(1);
        let d = Digest::of_bytes(b"x");
        let sig = ring.sign(spider_crypto::KeyId(0), &d);
        let one: ChannelMsg<Blob> = ChannelMsg::Certificate {
            sc: 0,
            p: Position(1),
            msg: Arc::new(Blob(vec![0; 100])),
            shares: vec![sig],
        };
        let two: ChannelMsg<Blob> = ChannelMsg::Certificate {
            sc: 0,
            p: Position(1),
            msg: Arc::new(Blob(vec![0; 100])),
            shares: vec![sig, sig],
        };
        assert_eq!(two.wire_size() - one.wire_size(), SIG_BYTES);
    }

    #[test]
    fn carrier_rotation_covers_all_senders_under_fixed_stride() {
        // Range firsts advance in a fixed stride (1, 33, 65, ...); a plain
        // `first % n` would park the carrier on one sender forever. The
        // mixed rotation must keep every sender carrying a fair share.
        let mut seen = [0usize; 4];
        for i in 0..64u64 {
            seen[carrier_for(0, Position(1 + 32 * i), 4)] += 1;
        }
        for (s, &n) in seen.iter().enumerate() {
            assert!(n >= 8, "sender {s} carries only {n}/64 ranges");
        }
        // And the assignment is a pure function of (sc, first).
        assert_eq!(carrier_for(3, Position(97), 4), carrier_for(3, Position(97), 4));
    }

    #[test]
    fn slot_digest_separates_slots() {
        let content = Digest::of_bytes(b"m");
        let a = slot_digest(1, Position(5), &content);
        let b = slot_digest(1, Position(6), &content);
        let c = slot_digest(2, Position(5), &content);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn range_digest_binds_position_length_and_root() {
        let root = Digest::of_bytes(b"root");
        let base = range_digest(1, Position(5), 4, &root);
        assert_ne!(base, range_digest(1, Position(6), 4, &root), "shifted start");
        assert_ne!(base, range_digest(1, Position(5), 3, &root), "truncated length");
        assert_ne!(base, range_digest(2, Position(5), 4, &root), "other subchannel");
        assert_ne!(base, range_digest(1, Position(5), 4, &Digest::of_bytes(b"r2")), "other root");
    }

    #[test]
    fn send_size_tracks_payload() {
        let ring = spider_crypto::Keyring::new(1);
        let d = Digest::of_bytes(b"x");
        let sig = ring.sign(spider_crypto::KeyId(0), &d);
        let small: ChannelMsg<Blob> =
            ChannelMsg::Send { sc: 0, p: Position(1), msg: Blob(vec![0; 10]), sig };
        let big: ChannelMsg<Blob> =
            ChannelMsg::Send { sc: 0, p: Position(1), msg: Blob(vec![0; 1000]), sig };
        assert_eq!(big.wire_size() - small.wire_size(), 990);
    }

    #[test]
    fn range_messages_amortize_signature_bytes() {
        let ring = spider_crypto::Keyring::new(1);
        let d = Digest::of_bytes(b"x");
        let sig = ring.sign(spider_crypto::KeyId(0), &d);
        let n = 32usize;
        let range: ChannelMsg<Blob> = ChannelMsg::SendRange {
            sc: 0,
            first: Position(1),
            msgs: Arc::new((0..n).map(|_| Blob(vec![0; 100])).collect()),
            sig,
        };
        let single: ChannelMsg<Blob> =
            ChannelMsg::Send { sc: 0, p: Position(1), msg: Blob(vec![0; 100]), sig };
        assert!(
            range.wire_size() < n * single.wire_size(),
            "one signature over the range beats n signed singles"
        );
        // The shares-only certificate is content-free and tiny.
        let cert: ChannelMsg<Blob> = ChannelMsg::RangeCertificate {
            sc: 0,
            first: Position(1),
            count: n as u32,
            root: d,
            shares: vec![sig, sig],
        };
        assert!(cert.wire_size() < single.wire_size() + 2 * SIG_BYTES);
    }

    #[test]
    fn vouch_is_digest_sized_not_payload_sized() {
        let ring = spider_crypto::Keyring::new(1);
        let d = Digest::of_bytes(b"x");
        let sig = ring.sign(spider_crypto::KeyId(0), &d);
        let n = 32usize;
        let range: ChannelMsg<Blob> = ChannelMsg::SendRange {
            sc: 0,
            first: Position(1),
            msgs: Arc::new((0..n).map(|_| Blob(vec![0; 100])).collect()),
            sig,
        };
        let vouch: ChannelMsg<Blob> =
            ChannelMsg::RangeVouch { sc: 0, first: Position(1), count: n as u32, root: d };
        // The dedup premise on the wire: n_s - 1 vouches must be far
        // smaller than the redundant content copies they replace.
        assert!(vouch.wire_size() * 10 < range.wire_size());
        let fetch = ReceiverMsg::FetchRange { sc: 0, first: Position(1), count: n as u32 };
        assert!(fetch.wire_size() < vouch.wire_size());
    }
}
