//! Receiver-side IRMC endpoint (Fig 18 receiver half; Fig 20 for
//! IRMC-SC), with multi-slot range verification.
//!
//! Range messages amortize the per-slot RSA verification: a
//! [`ChannelMsg::SendRange`] (RC) or [`ChannelMsg::RangeCertificate`]
//! (SC) is checked with **one** signature verification per signer for the
//! whole contiguous slot range — the receiver recomputes the Merkle root
//! over the per-slot content digests and accepts or rejects the range as
//! a unit (a single tampered slot invalidates the root, so nothing from
//! the range delivers). For IRMC-RC the carrier's signed range counts as
//! one statement, and the other senders' digest-only
//! [`ChannelMsg::RangeVouch`]es complete the `fs + 1` quorum. For IRMC-SC
//! the raw content may arrive ahead of its certificate (§A.9 overlap,
//! [`ChannelMsg::RangeContent`]); it is buffered and **never** delivered
//! until a valid certificate covers it.

use crate::config::{ChannelMode, IrmcConfig};
use crate::messages::{range_digest, slot_digest, ChannelMsg, ReceiverMsg};
use crate::window::Window;
use crate::{Action, Content, IrmcError, Subchannel};
use spider_crypto::{merkle_root, Digest, Keyring, RootCache, Signature};
use spider_types::{Position, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How the content of a delivered slot reached this receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupOutcome {
    /// Per-slot fan-in: IRMC-RC quorum of full per-slot content copies,
    /// or an IRMC-SC certified delivery. No deduplication was in play.
    Replicated,
    /// RC range happy path: the rotated primary carrier's signed content
    /// copy, confirmed by the vouch quorum (content crossed the wire and
    /// was hashed exactly once).
    Primary,
    /// RC range fallback: raw content shipped by a voucher (after a
    /// [`ReceiverMsg::FetchRange`], or an unsolicited early copy),
    /// verified by comparison against the vouched Merkle root.
    Refetched,
}

/// A delivered message plus its provenance: which sender's copy was
/// delivered and whether the dedup machinery was involved.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery<M> {
    /// The delivered message.
    pub payload: M,
    /// The slot it was delivered for.
    pub position: Position,
    /// Index of the sender whose content copy was delivered.
    pub carrier: usize,
    /// How the content reached this endpoint.
    pub dedup: DedupOutcome,
}

/// Result of polling a position (the sans-IO form of Fig 14 `receive`).
#[derive(Debug, Clone, PartialEq)]
pub enum ReceiveResult<M> {
    /// The message for this position, with delivery provenance.
    Ready(Delivery<M>),
    /// The window has moved past the position: the receiver fell behind
    /// and must recover via checkpoint (§3.4). Carries the new window
    /// start, like the pseudocode's `⟨TooOld, s⟩`.
    TooOld(Position),
    /// Nothing deliverable yet; poll again after the next
    /// [`Action::Ready`] or [`Action::WindowMoved`] for this subchannel.
    Pending,
}

impl<M> ReceiveResult<M> {
    /// The delivered payload, if any — for callers that don't care about
    /// provenance.
    pub fn into_payload(self) -> Option<M> {
        match self {
            ReceiveResult::Ready(d) => Some(d.payload),
            ReceiveResult::TooOld(_) | ReceiveResult::Pending => None,
        }
    }
}

/// Range content that cannot deliver yet: SC content ahead of its
/// certificate (§A.9 overlap), or RC range content ahead of its vouch
/// quorum.
#[derive(Debug)]
struct PendingContent<M> {
    /// Sender that shipped it (at most one buffered candidate per sender,
    /// so a faulty collector cannot evict honest content).
    from: usize,
    msgs: Arc<Vec<M>>,
    root: Digest,
    /// Provenance to attach on delivery ([`DedupOutcome::Replicated`]
    /// for SC, `Primary`/`Refetched` for RC ranges).
    outcome: DedupOutcome,
}

#[derive(Debug)]
struct ReceiverSub<M> {
    awin: Window,
    /// RC: per position, per sender: (content digest, message).
    rc_slots: BTreeMap<u64, BTreeMap<usize, (Digest, M)>>,
    /// RC: per range first position, per sender: the vouched
    /// statement (count, Merkle root). A verified `SendRange` registers
    /// as its sender's statement too, so the carrier counts toward the
    /// quorum. First statement per sender wins (no equivocation).
    vouches: BTreeMap<u64, BTreeMap<usize, (u32, Digest)>>,
    /// RC: round-robin cursor over the vouchers of a stalled range,
    /// so successive refetches try different senders.
    fetch_cursor: BTreeMap<u64, usize>,
    /// Deliverable content per position, with the index of the sender
    /// whose copy was delivered and the dedup provenance.
    ready: BTreeMap<u64, (M, usize, DedupOutcome)>,
    /// Positions for which `Action::Ready` was already emitted.
    announced: BTreeSet<u64>,
    /// SC: uncertified early-shipped range content, by first position;
    /// at most one candidate per sender (a faulty collector must not be
    /// able to evict the honest content).
    pending_content: BTreeMap<u64, Vec<PendingContent<M>>>,
    /// SC: validated certificates that arrived before their content, by
    /// first position: (count, root) statements, at most one per sender
    /// (diverged boundaries can certify several lengths for one start).
    pending_certs: BTreeMap<u64, Vec<(u32, Digest)>>,
    /// Window-shift requests received from each sender.
    sender_moves: Vec<Position>,
    /// Scratch buffer for the `fs + 1`-selections (reused across calls).
    scratch: Vec<Position>,
    /// SC: per-sender claimed progress.
    progress: Vec<Position>,
    /// SC: merged progress (fs+1-highest sender claim).
    merged_progress: Position,
    /// Cached first-missing cursor: every position in
    /// `[awin.start, missing_cursor)` is ready, so the gap scan resumes
    /// here instead of rescanning from the window start.
    missing_cursor: u64,
    /// SC: current collector (sender index).
    collector: usize,
    /// SC: whether the supervision timer is armed.
    timer_armed: bool,
}

impl<M> ReceiverSub<M> {
    fn new(cfg: &IrmcConfig, me: usize) -> Self {
        ReceiverSub {
            awin: Window::new(cfg.capacity),
            rc_slots: BTreeMap::new(),
            vouches: BTreeMap::new(),
            fetch_cursor: BTreeMap::new(),
            ready: BTreeMap::new(),
            announced: BTreeSet::new(),
            pending_content: BTreeMap::new(),
            pending_certs: BTreeMap::new(),
            sender_moves: vec![Position(0); cfg.n_senders],
            scratch: Vec::new(),
            progress: vec![Position(0); cfg.n_senders],
            merged_progress: Position(0),
            missing_cursor: 1,
            collector: me % cfg.n_senders,
            timer_armed: false,
        }
    }

    fn gc_below(&mut self, start: Position) {
        let s = start.0;
        self.rc_slots.retain(|&p, _| p >= s);
        self.vouches.retain(|&p, stmts| stmts.values().any(|&(c, _)| p + c as u64 > s));
        self.fetch_cursor.retain(|&p, _| p >= s);
        self.ready.retain(|&p, _| p >= s);
        self.announced.retain(|&p| p >= s);
        self.pending_content.retain(|&p, cands| {
            cands.retain(|pc| p + pc.msgs.len() as u64 > s);
            !cands.is_empty()
        });
        self.pending_certs.retain(|&p, certs| {
            certs.retain(|(count, _)| p + *count as u64 > s);
            !certs.is_empty()
        });
        self.missing_cursor = self.missing_cursor.max(s);
    }
}

/// The receiver half of an IRMC, owned by one replica of the receiver
/// group.
pub struct ReceiverEndpoint<M> {
    cfg: IrmcConfig,
    me: usize,
    keyring: Keyring,
    subs: BTreeMap<Subchannel, ReceiverSub<M>>,
    /// RC: range digests whose carrier signature already verified,
    /// so a retransmitted content copy is accepted by root comparison
    /// (one Merkle recompute, no second RSA verification). Keyed by the
    /// full [`range_digest`] — which binds `(sc, first, count, root)` —
    /// not the bare root, so a hit can never be replayed across ranges.
    root_cache: RootCache,
}

impl<M: Content> ReceiverEndpoint<M> {
    /// Creates receiver endpoint `me` of the channel.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    pub fn new(cfg: IrmcConfig, me: usize, keyring: Keyring) -> Self {
        assert!(me < cfg.n_receivers, "receiver index out of range");
        // Two windows' worth of verified range digests comfortably covers
        // in-flight retransmissions without unbounded growth.
        let root_cache = RootCache::new((cfg.capacity as usize).saturating_mul(2));
        ReceiverEndpoint { cfg, me, keyring, subs: BTreeMap::new(), root_cache }
    }

    /// This endpoint's index within the receiver group.
    pub fn index(&self) -> usize {
        self.me
    }

    /// Current flow-control window of a subchannel.
    pub fn window(&self, sc: Subchannel) -> Window {
        self.subs.get(&sc).map(|s| s.awin).unwrap_or_else(|| Window::new(self.cfg.capacity))
    }

    fn sub(&mut self, sc: Subchannel) -> &mut ReceiverSub<M> {
        let cfg = self.cfg.clone();
        let me = self.me;
        self.subs.entry(sc).or_insert_with(|| ReceiverSub::new(&cfg, me))
    }

    /// Polls for the message at `(sc, p)` (Fig 14 `receive`, non-blocking).
    pub fn try_receive(&mut self, sc: Subchannel, p: Position) -> ReceiveResult<M> {
        let sub = self.sub(sc);
        if sub.awin.is_below(p) {
            return ReceiveResult::TooOld(sub.awin.start());
        }
        match sub.ready.get(&p.0) {
            Some((m, carrier, outcome)) => ReceiveResult::Ready(Delivery {
                payload: m.clone(),
                position: p,
                carrier: *carrier,
                dedup: *outcome,
            }),
            None => ReceiveResult::Pending,
        }
    }

    /// Moves the subchannel window forward on behalf of the local replica
    /// (Fig 14 `move_window`, receiver side). Notifies all senders.
    pub fn move_window(&mut self, sc: Subchannel, p: Position, out: &mut Vec<Action<M>>) {
        let sub = self.sub(sc);
        if !sub.awin.advance_to(p) {
            return;
        }
        sub.gc_below(p);
        out.push(Action::Charge(self.cfg.cost.hmac(32), "window_mac"));
        for s in 0..self.cfg.n_senders {
            out.push(Action::ToSender { to: s, msg: ReceiverMsg::Move { sc, p } });
        }
        out.push(Action::WindowMoved { sc, start: p });
    }

    /// Handles a message from sender endpoint `from`.
    ///
    /// `Err` means the frame was rejected (and why); the channel state is
    /// unchanged beyond the CPU cost already charged for inspecting it.
    /// Rejections are expected under Byzantine senders — callers discard
    /// the frame and may count or log the reason.
    pub fn on_sender_message(
        &mut self,
        now: SimTime,
        from: usize,
        msg: ChannelMsg<M>,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        let _ = now;
        if from >= self.cfg.n_senders {
            return Err(IrmcError::UnknownEndpoint { index: from });
        }
        match msg {
            ChannelMsg::Send { sc, p, msg, sig } => self.on_send(from, sc, p, msg, sig, out),
            ChannelMsg::SendRange { sc, first, msgs, sig } => {
                self.on_send_range(from, sc, first, msgs, sig, out)
            }
            ChannelMsg::Certificate { sc, p, msg, shares } => {
                self.on_certificate(from, sc, p, msg, shares, out)
            }
            ChannelMsg::RangeVouch { sc, first, count, root } => {
                self.on_range_vouch(from, sc, first, count, root, out)
            }
            ChannelMsg::RangeContent { sc, first, msgs } => {
                self.on_range_content(from, sc, first, msgs, out)
            }
            ChannelMsg::RangeCertificate { sc, first, count, root, shares } => {
                self.on_range_certificate(sc, first, count, root, shares, out)
            }
            ChannelMsg::Progress { positions } => self.on_progress(from, positions, out),
            ChannelMsg::Move { sc, p } => self.on_sender_move(from, sc, p, out),
            ChannelMsg::SigShare { .. } | ChannelMsg::RangeShare { .. } => {
                // Sender-group-internal; a receiver should never see one.
                Err(IrmcError::UnexpectedFrame)
            }
        }
    }

    // ------------------------------------------------------------------
    // IRMC-RC
    // ------------------------------------------------------------------

    fn on_send(
        &mut self,
        from: usize,
        sc: Subchannel,
        p: Position,
        msg: M,
        sig: Signature,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        if let ChannelMode::SenderCast { .. } = self.cfg.mode {
            return Err(IrmcError::WrongVariant);
        }
        let Some(&key) = self.cfg.sender_keys.get(from) else {
            return Err(IrmcError::UnknownEndpoint { index: from });
        };
        // Verify the sender's signature over the slot.
        out.push(Action::Charge(
            self.cfg.cost.hmac(msg.wire_size()) + self.cfg.cost.rsa_verify(),
            "slot_verify",
        ));
        let digest = msg.digest();
        let slot = slot_digest(sc, p, &digest);
        if !self.keyring.verify(key, &slot, &sig) {
            return Err(IrmcError::BadSignature { sc, p });
        }
        self.credit_rc_slot(from, sc, p, digest, msg, out)
    }

    /// Signed content from the (claimed) primary carrier of a range. The
    /// content is hashed exactly once; the signature is skipped when this
    /// exact range digest already verified (a retransmission —
    /// [`RootCache`]). The verified statement counts as its sender's
    /// vouch, so the carrier participates in the quorum.
    fn on_send_range(
        &mut self,
        from: usize,
        sc: Subchannel,
        first: Position,
        msgs: Arc<Vec<M>>,
        sig: Signature,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        if let ChannelMode::SenderCast { .. } = self.cfg.mode {
            return Err(IrmcError::WrongVariant);
        }
        let count = msgs.len();
        if count < 2 || count as u64 > self.cfg.capacity {
            // Senders never emit these; bogus.
            return Err(IrmcError::MalformedRange { sc, first, count: count as u64 });
        }
        let Some(&key) = self.cfg.sender_keys.get(from) else {
            return Err(IrmcError::UnknownEndpoint { index: from });
        };
        let bytes: usize = msgs.iter().map(|m| m.wire_size()).sum();
        {
            let sub = self.sub(sc);
            if Self::range_delivered(sub, first.0, count as u64) {
                // Late duplicate (below the window, or the range already
                // delivered): drop after the transport MAC — the member
                // slots are NOT re-hashed. Remind the carrier where our
                // window starts in case its view went stale during a
                // partition (it only learns through `Move`s).
                let start = sub.awin.start();
                out.push(Action::Charge(self.cfg.cost.hmac(bytes), "payload_hash"));
                self.reannounce_window(sc, start, from, out);
                return Ok(());
            }
            if first.0 >= sub.awin.end().0 + sub.awin.capacity() {
                return Err(IrmcError::OutOfWindow { sc, p: first });
            }
        }
        // Hash the payloads and rebuild the tree (once per range).
        out.push(Action::Charge(
            self.cfg.cost.hmac(bytes) + self.cfg.cost.merkle(count),
            "range_hash",
        ));
        let leaves: Vec<Digest> = msgs.iter().map(|m| m.digest()).collect();
        let root = merkle_root(&leaves);
        let rd = range_digest(sc, first, count as u32, &root);
        if self.root_cache.contains(&rd) {
            // Same signed statement as before: root comparison suffices.
            out.push(Action::Charge(self.cfg.cost.vouch_verify(), "vouch_verify"));
        } else {
            out.push(Action::Charge(self.cfg.cost.rsa_verify(), "range_verify"));
            if !self.keyring.verify(key, &rd, &sig) {
                return Err(IrmcError::BadSignature { sc, p: first });
            }
            self.root_cache.insert(rd);
        }
        let sub = self.sub(sc);
        sub.vouches.entry(first.0).or_default().entry(from).or_insert((count as u32, root));
        Self::buffer_content(sub, from, first.0, msgs.clone(), root, DedupOutcome::Primary);
        self.try_deliver_range(sc, first.0, out);
        if !Self::range_delivered(self.sub(sc), first.0, count as u64) {
            // Not (yet) deliverable as a range — the other senders may
            // have cut their ranges at diverged boundaries, so this exact
            // statement might never quorate. The verified signature also
            // attests every member slot individually: credit them so
            // overlapping foreign statements can converge on per-slot
            // quorums (the per-slot `Send` path).
            for (i, (leaf, m)) in leaves.iter().zip(msgs.iter()).enumerate() {
                let _ = self.credit_rc_slot(
                    from,
                    sc,
                    Position(first.0 + i as u64),
                    *leaf,
                    m.clone(),
                    out,
                );
            }
        }
        Ok(())
    }

    /// A digest-only range confirmation from a non-carrier sender
    /// (MAC-authenticated; see [`ChannelMsg::RangeVouch`]).
    fn on_range_vouch(
        &mut self,
        from: usize,
        sc: Subchannel,
        first: Position,
        count: u32,
        root: Digest,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        if let ChannelMode::SenderCast { .. } = self.cfg.mode {
            return Err(IrmcError::WrongVariant);
        }
        if count < 2 || count as u64 > self.cfg.capacity {
            return Err(IrmcError::MalformedRange { sc, first, count: count as u64 });
        }
        out.push(Action::Charge(self.cfg.cost.vouch_verify(), "vouch_verify"));
        let sub = self.sub(sc);
        if first.0 + count as u64 <= sub.awin.start().0 {
            // Entirely below the window: late duplicate. Remind the
            // voucher where our window starts in case its view went
            // stale during a partition.
            let start = sub.awin.start();
            self.reannounce_window(sc, start, from, out);
            return Ok(());
        }
        if first.0 >= sub.awin.end().0 + sub.awin.capacity() {
            return Err(IrmcError::OutOfWindow { sc, p: first });
        }
        sub.vouches.entry(first.0).or_default().entry(from).or_insert((count, root));
        self.try_deliver_range(sc, first.0, out);
        Ok(())
    }

    /// Reminds a stale sender where this receiver's window starts.
    /// Recast content (a sender retransmitting after a healed partition
    /// that also ate our original `Move`s) lands below the window here;
    /// without the reminder the sender would re-cast forever, because it
    /// only learns of window movement through `Move` messages.
    fn reannounce_window(
        &self,
        sc: Subchannel,
        start: Position,
        to: usize,
        out: &mut Vec<Action<M>>,
    ) {
        out.push(Action::Charge(self.cfg.cost.hmac(32), "window_mac"));
        out.push(Action::ToSender { to, msg: ReceiverMsg::Move { sc, p: start } });
    }

    /// Every in-window slot of `[first, first + count)` already
    /// delivered? (Slots the window moved past count as handled.) With
    /// diverged range boundaries, per-slot crediting can deliver a
    /// *prefix* of a range, so "is slot `first` ready" is not a valid
    /// proxy for "is this range done".
    fn range_delivered(sub: &ReceiverSub<M>, first: u64, count: u64) -> bool {
        let lo = first.max(sub.awin.start().0);
        let hi = first + count;
        hi <= lo || sub.ready.range(lo..hi).count() == (hi - lo) as usize
    }

    /// The statement `(count, root)` vouched for range `first` by more
    /// than `fs` distinct senders, if any (at most one can reach the
    /// quorum: statements differ ⇒ senders differ).
    fn quorate_statement(sub: &ReceiverSub<M>, fs: usize, first: u64) -> Option<(u32, Digest)> {
        let stmts = sub.vouches.get(&first)?;
        stmts
            .values()
            .find(|&&(c, r)| stmts.values().filter(|&&(c2, r2)| c2 == c && r2 == r).count() > fs)
            .copied()
    }

    /// Buffers one content candidate per sender (a faulty sender can only
    /// ever replace its own slot, never evict honest content).
    fn buffer_content(
        sub: &mut ReceiverSub<M>,
        from: usize,
        first: u64,
        msgs: Arc<Vec<M>>,
        root: Digest,
        outcome: DedupOutcome,
    ) {
        let candidates = sub.pending_content.entry(first).or_default();
        match candidates.iter_mut().find(|c| c.from == from) {
            Some(mine) => {
                mine.msgs = msgs;
                mine.root = root;
                mine.outcome = outcome;
            }
            None => candidates.push(PendingContent { from, msgs, root, outcome }),
        }
    }

    /// Delivers range `first` once a vouch quorum AND a content copy
    /// hashing to the quorate root are both present (first arrival wins).
    /// A quorum without content arms the carrier-supervision timer.
    fn try_deliver_range(&mut self, sc: Subchannel, first: u64, out: &mut Vec<Action<M>>) {
        let fs = self.cfg.fs;
        let timeout = self.cfg.refetch_delay;
        let Some(sub) = self.subs.get_mut(&sc) else {
            return;
        };
        let span =
            sub.vouches.get(&first).into_iter().flat_map(|s| s.values()).map(|&(c, _)| c).max();
        if Self::range_delivered(sub, first, span.unwrap_or(0) as u64) {
            return;
        }
        let Some((count, root)) = Self::quorate_statement(sub, fs, first) else {
            // Vouched but not quorate: the senders may have cut their
            // ranges at diverged boundaries (replica-local back-pressure),
            // in which case no statement ever reaches fs + 1. Supervise:
            // the timer refetches each voucher's own copy, and matching
            // copies converge on per-slot quorums (`credit_rc_slot`).
            if !sub.timer_armed {
                sub.timer_armed = true;
                out.push(Action::SetTimer { token: sc, delay: timeout });
            }
            return;
        };
        let matched = sub.pending_content.get(&first).and_then(|cands| {
            cands
                .iter()
                .find(|c| c.root == root && c.msgs.len() == count as usize)
                .map(|c| (c.from, c.msgs.clone(), c.outcome))
        });
        match matched {
            Some((carrier, msgs, outcome)) => {
                sub.pending_content.remove(&first);
                sub.fetch_cursor.remove(&first);
                self.deliver_range(sc, first, &msgs, carrier, outcome, out);
            }
            None if !sub.timer_armed => {
                // fs + 1 senders confirmed the range but nobody's content
                // arrived yet: supervise the carrier, refetch on expiry.
                sub.timer_armed = true;
                out.push(Action::SetTimer { token: sc, delay: timeout });
            }
            None => {}
        }
    }

    /// Books verified content from `from` for slot `(sc, p)` and delivers
    /// once `fs + 1` senders vouch for identical content.
    fn credit_rc_slot(
        &mut self,
        from: usize,
        sc: Subchannel,
        p: Position,
        digest: Digest,
        msg: M,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        let fs = self.cfg.fs;
        let sub = self.sub(sc);
        if sub.awin.is_below(p) {
            // Below the window: a late duplicate, normal under
            // retransmission. Remind the sender where our window starts
            // in case its view of it went stale during a partition.
            let start = sub.awin.start();
            self.reannounce_window(sc, start, from, out);
            return Ok(());
        }
        if p.0 >= sub.awin.end().0 + sub.awin.capacity() {
            // Absurdly far above the window (memory guard; correct
            // senders are window-limited anyway).
            return Err(IrmcError::OutOfWindow { sc, p });
        }
        let slot_map = sub.rc_slots.entry(p.0).or_default();
        slot_map.entry(from).or_insert((digest, msg));
        // Quorum: fs + 1 senders with identical content. The just-booked
        // entry guarantees at least one value carries `digest`, so the
        // `find` below cannot miss — but delivery is driven off it rather
        // than an assertion, keeping the path total.
        let quorate = slot_map.values().filter(|(d, _)| *d == digest).count() > fs;
        if quorate && !sub.ready.contains_key(&p.0) {
            let found = slot_map.values().find(|(d, _)| *d == digest).map(|(_, m)| m.clone());
            if let Some(m) = found {
                sub.ready.insert(p.0, (m, from, DedupOutcome::Replicated));
                if sub.announced.insert(p.0) {
                    out.push(Action::Ready { sc, p });
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // IRMC-SC
    // ------------------------------------------------------------------

    fn on_certificate(
        &mut self,
        from: usize,
        sc: Subchannel,
        p: Position,
        msg: Arc<M>,
        shares: Vec<Signature>,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        if let ChannelMode::ReliableCast { .. } = self.cfg.mode {
            return Err(IrmcError::WrongVariant);
        }
        // Verify transport MAC + every contained share.
        out.push(Action::Charge(
            self.cfg.cost.hmac(msg.wire_size()) + self.cfg.cost.rsa_verify() * shares.len() as u64,
            "cert_verify",
        ));
        let digest = msg.digest();
        let slot = slot_digest(sc, p, &digest);
        if !self.valid_share_quorum(&shares, &slot) {
            return Err(IrmcError::BadSignature { sc, p });
        }
        let sub = self.sub(sc);
        if sub.awin.is_below(p) {
            return Ok(()); // Late duplicate; normal under retransmission.
        }
        if p.0 >= sub.awin.end().0 + sub.awin.capacity() {
            return Err(IrmcError::OutOfWindow { sc, p });
        }
        let m = (*msg).clone();
        let entry = (m, from, DedupOutcome::Replicated);
        if sub.ready.insert(p.0, entry).is_none() && sub.announced.insert(p.0) {
            out.push(Action::Ready { sc, p });
        }
        Ok(())
    }

    /// Counts `fs + 1` valid shares from distinct senders over `statement`.
    fn valid_share_quorum(&self, shares: &[Signature], statement: &Digest) -> bool {
        let mut signers = BTreeSet::new();
        let valid = shares
            .iter()
            .filter(|sig| {
                let idx = self.cfg.sender_keys.iter().position(|k| *k == sig.signer);
                match idx {
                    Some(i) if signers.insert(i) => self.keyring.verify(sig.signer, statement, sig),
                    _ => false,
                }
            })
            .count();
        valid > self.cfg.fs
    }

    /// Raw range content without proof. IRMC-SC: early-shipped content
    /// (§A.9 overlap) — hash it, remember it, but deliver **nothing**
    /// until a valid certificate covers its root. IRMC-RC: a
    /// voucher's (re)shipped copy — hash it once and deliver iff it
    /// matches the vouch quorum's root.
    fn on_range_content(
        &mut self,
        from: usize,
        sc: Subchannel,
        first: Position,
        msgs: Arc<Vec<M>>,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        let rc = matches!(self.cfg.mode, ChannelMode::ReliableCast { .. });
        let count = msgs.len();
        if count < 2 || count as u64 > self.cfg.capacity {
            return Err(IrmcError::MalformedRange { sc, first, count: count as u64 });
        }
        let bytes: usize = msgs.iter().map(|m| m.wire_size()).sum();
        if rc {
            let sub = self.sub(sc);
            if Self::range_delivered(sub, first.0, count as u64) {
                // Late duplicate or already-delivered range: drop after
                // the transport MAC, members are NOT re-hashed.
                out.push(Action::Charge(self.cfg.cost.hmac(bytes), "payload_hash"));
                return Ok(());
            }
            if first.0 >= sub.awin.end().0 + sub.awin.capacity() {
                return Err(IrmcError::OutOfWindow { sc, p: first });
            }
        }
        // Transport MAC + payload hashing + tree rebuild; no signature.
        out.push(Action::Charge(
            self.cfg.cost.hmac(bytes) + self.cfg.cost.merkle(count),
            "range_hash",
        ));
        let leaves: Vec<Digest> = msgs.iter().map(|m| m.digest()).collect();
        let root = merkle_root(&leaves);
        if rc {
            let fs = self.cfg.fs;
            let sub = self.sub(sc);
            if let Some((qc, qroot)) = Self::quorate_statement(sub, fs, first.0) {
                if qc as usize != count || qroot != root {
                    // The shipping sender contradicts what fs+1 senders
                    // vouched: it is faulty. Keep waiting/refetching.
                    return Err(IrmcError::VouchMismatch { sc, first });
                }
                sub.pending_content.remove(&first.0);
                sub.fetch_cursor.remove(&first.0);
                self.deliver_range(sc, first.0, &msgs, from, DedupOutcome::Refetched, out);
                return Ok(());
            }
            // No quorum yet: content raced ahead of the vouches, or the
            // senders cut their ranges at diverged boundaries and no
            // statement will ever quorate.
            let own = sub.vouches.get(&first.0).and_then(|stmts| stmts.get(&from)).copied();
            Self::buffer_content(sub, from, first.0, msgs.clone(), root, DedupOutcome::Refetched);
            if own == Some((count as u32, root)) {
                // The copy matches `from`'s own vouched statement: it is a
                // per-slot attestation by `from`, exactly like a per-slot
                // `Send` — credit each slot so overlapping statements
                // converge on per-slot quorums despite diverged cuts.
                for (i, (leaf, m)) in leaves.iter().zip(msgs.iter()).enumerate() {
                    let _ = self.credit_rc_slot(
                        from,
                        sc,
                        Position(first.0 + i as u64),
                        *leaf,
                        m.clone(),
                        out,
                    );
                }
            }
            return Ok(());
        }
        let sub = self.sub(sc);
        if first.0 + count as u64 <= sub.awin.start().0 {
            return Ok(()); // Entirely below the window: late duplicate.
        }
        if first.0 >= sub.awin.end().0 + sub.awin.capacity() {
            return Err(IrmcError::OutOfWindow { sc, p: first });
        }
        // A certificate that arrived first unlocks the content now.
        if let Some(certs) = sub.pending_certs.get_mut(&first.0) {
            if let Some(i) = certs.iter().position(|c| *c == (count as u32, root)) {
                certs.remove(i);
                if certs.is_empty() {
                    sub.pending_certs.remove(&first.0);
                }
                self.deliver_range(sc, first.0, &msgs, from, DedupOutcome::Replicated, out);
                return Ok(());
            }
        }
        // Buffer one candidate per *sender*: a faulty collector flooding
        // bogus roots can only ever replace its own slot, never evict
        // honest content.
        Self::buffer_content(sub, from, first.0, msgs, root, DedupOutcome::Replicated);
        Ok(())
    }

    /// Shares-only range certificate: one verification per share (at most
    /// `fs + 1`) certifies the **whole** range.
    fn on_range_certificate(
        &mut self,
        sc: Subchannel,
        first: Position,
        count: u32,
        root: Digest,
        shares: Vec<Signature>,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        if let ChannelMode::ReliableCast { .. } = self.cfg.mode {
            return Err(IrmcError::WrongVariant);
        }
        if count < 2 || count as u64 > self.cfg.capacity {
            return Err(IrmcError::MalformedRange { sc, first, count: count as u64 });
        }
        out.push(Action::Charge(
            self.cfg.cost.hmac(32) + self.cfg.cost.rsa_verify() * shares.len() as u64,
            "cert_verify",
        ));
        let rd = range_digest(sc, first, count, &root);
        if !self.valid_share_quorum(&shares, &rd) {
            return Err(IrmcError::BadSignature { sc, p: first });
        }
        let n_senders = self.cfg.n_senders;
        let sub = self.sub(sc);
        if first.0 + count as u64 <= sub.awin.start().0 {
            return Ok(()); // Entirely below the window: late duplicate.
        }
        if first.0 >= sub.awin.end().0 + sub.awin.capacity() {
            return Err(IrmcError::OutOfWindow { sc, p: first });
        }
        // Certified: deliver the matching buffered content, or remember
        // the certificate until the content arrives (reordered links).
        let matched = sub.pending_content.get(&first.0).and_then(|cands| {
            cands
                .iter()
                .find(|c| c.root == root && c.msgs.len() == count as usize)
                .map(|c| (c.from, c.msgs.clone()))
        });
        match matched {
            Some((shipper, msgs)) => {
                sub.pending_content.remove(&first.0);
                self.deliver_range(sc, first.0, &msgs, shipper, DedupOutcome::Replicated, out);
            }
            None => {
                // Keep every distinct certified statement (diverged
                // boundaries may certify several lengths for one start),
                // bounded by the sender-group size.
                let certs = sub.pending_certs.entry(first.0).or_default();
                if !certs.contains(&(count, root)) && certs.len() < n_senders {
                    certs.push((count, root));
                }
            }
        }
        Ok(())
    }

    /// Delivers every slot of a certified (or vouch-quorate) range that
    /// is still in-window, tagging each with the shipping sender and the
    /// dedup provenance.
    fn deliver_range(
        &mut self,
        sc: Subchannel,
        first: u64,
        msgs: &[M],
        carrier: usize,
        outcome: DedupOutcome,
        out: &mut Vec<Action<M>>,
    ) {
        let sub = self.sub(sc);
        let start = sub.awin.start().0;
        for (i, m) in msgs.iter().enumerate() {
            let p = first + i as u64;
            if p < start {
                continue;
            }
            let entry = (m.clone(), carrier, outcome);
            if sub.ready.insert(p, entry).is_none() && sub.announced.insert(p) {
                out.push(Action::Ready { sc, p: Position(p) });
            }
        }
    }

    fn on_progress(
        &mut self,
        from: usize,
        positions: Vec<(Subchannel, Position)>,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        if let ChannelMode::ReliableCast { .. } = self.cfg.mode {
            return Err(IrmcError::WrongVariant);
        }
        out.push(Action::Charge(self.cfg.cost.hmac(positions.len() * 16), "progress_mac"));
        for (sc, p) in positions {
            let fs = self.cfg.fs;
            let timeout = self.cfg.collector_timeout;
            let sub = self.sub(sc);
            match sub.progress.get_mut(from) {
                Some(prev) if p > *prev => *prev = p,
                Some(_) => {}
                None => return Err(IrmcError::UnknownEndpoint { index: from }),
            }
            // fs+1-highest claim, selected on the reused scratch buffer.
            sub.scratch.clear();
            sub.scratch.extend_from_slice(&sub.progress);
            let (_, nth, _) = sub.scratch.select_nth_unstable_by(fs, |a, b| b.cmp(a));
            sub.merged_progress = *nth;
            // Missing certificates up to the merged progress?
            let missing = Self::first_missing(sub);
            if missing.is_some() && !sub.timer_armed {
                sub.timer_armed = true;
                out.push(Action::SetTimer { token: sc, delay: timeout });
            }
        }
        Ok(())
    }

    fn on_sender_move(
        &mut self,
        from: usize,
        sc: Subchannel,
        p: Position,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        out.push(Action::Charge(self.cfg.cost.hmac(32), "window_mac"));
        let fs = self.cfg.fs;
        let sub = self.sub(sc);
        match sub.sender_moves.get_mut(from) {
            Some(prev) if p > *prev => *prev = p,
            Some(_) => return Ok(()),
            None => return Err(IrmcError::UnknownEndpoint { index: from }),
        }
        // fs+1-highest sender request: at least one correct sender asked
        // for this shift (IRMC-Liveness III). Selection on the reused
        // scratch buffer instead of clone + full sort.
        sub.scratch.clear();
        sub.scratch.extend_from_slice(&sub.sender_moves);
        let (_, nth, _) = sub.scratch.select_nth_unstable_by(fs, |a, b| b.cmp(a));
        let nw = *nth;
        if nw > sub.awin.start() {
            self.move_window(sc, nw, out);
        }
        Ok(())
    }

    /// First position in `[window start, merged progress]` without a
    /// certified message, if any. Resumes from the cached gap-free cursor
    /// instead of rescanning from the window start.
    fn first_missing(sub: &mut ReceiverSub<M>) -> Option<Position> {
        let lo = sub.missing_cursor.max(sub.awin.start().0);
        let hi = sub.merged_progress.0;
        let mut p = lo;
        while p <= hi && sub.ready.contains_key(&p) {
            p += 1;
        }
        sub.missing_cursor = p;
        (p <= hi).then_some(Position(p))
    }

    /// Handles the supervision timer for subchannel `token`: collector
    /// supervision for IRMC-SC (Fig 20 L30-35), carrier supervision for
    /// IRMC-RC ranges.
    ///
    /// `Err(CarrierTimeout)` reports that a vouch-quorate range's content
    /// never arrived and a refetch was issued — informational (the
    /// protocol recovers on its own), carrying the first stalled range.
    pub fn on_timer(
        &mut self,
        token: u64,
        _now: SimTime,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        match self.cfg.mode {
            ChannelMode::SenderCast { .. } => {
                self.on_sc_timer(token, out);
                Ok(())
            }
            ChannelMode::ReliableCast { .. } => self.on_rc_timer(token, out),
        }
    }

    /// IRMC-SC collector supervision (Fig 20 L30-35).
    fn on_sc_timer(&mut self, token: u64, out: &mut Vec<Action<M>>) {
        let sc = token;
        let n_senders = self.cfg.n_senders;
        let timeout = self.cfg.collector_timeout;
        let Some(sub) = self.subs.get_mut(&sc) else {
            return;
        };
        sub.timer_armed = false;
        if Self::first_missing(sub).is_none() {
            return;
        }
        // The collector failed to provide certificates that fs+1 senders
        // claim exist: switch to the next sender.
        sub.collector = (sub.collector + 1) % n_senders;
        let new_collector = sub.collector;
        sub.timer_armed = true;
        out.push(Action::Charge(self.cfg.cost.hmac(32), "select_mac"));
        for s in 0..n_senders {
            out.push(Action::ToSender {
                to: s,
                msg: ReceiverMsg::Select { sc, collector: new_collector },
            });
        }
        out.push(Action::SetTimer { token: sc, delay: timeout });
    }

    /// IRMC-RC carrier supervision: for every vouch-quorate range whose
    /// content still has not arrived, ask the next voucher (round-robin)
    /// to ship it, then re-arm.
    fn on_rc_timer(&mut self, token: u64, out: &mut Vec<Action<M>>) -> Result<(), IrmcError> {
        let sc = token;
        let fs = self.cfg.fs;
        let timeout = self.cfg.refetch_delay;
        let Some(sub) = self.subs.get_mut(&sc) else {
            return Ok(());
        };
        sub.timer_armed = false;
        let firsts: Vec<u64> = sub.vouches.keys().copied().collect();
        let mut fetched: Vec<(u64, u32, usize)> = Vec::new();
        for first in firsts {
            let span =
                sub.vouches.get(&first).into_iter().flat_map(|s| s.values()).map(|&(c, _)| c).max();
            if Self::range_delivered(sub, first, span.unwrap_or(0) as u64) {
                continue; // Delivered while the timer was pending.
            }
            // With a quorate statement, rotate through its vouchers —
            // each retains the content, and any one copy completes the
            // range. Without one (boundaries diverged between senders),
            // ask *every* voucher for its own statement at once: a copy
            // matching its sender's vouch credits that sender per slot,
            // and fs + 1 overlapping copies are needed before the slots
            // converge on per-slot quorums, so serializing the fetches
            // would only multiply the stall by the timer period.
            match Self::quorate_statement(sub, fs, first) {
                Some((count, root)) => {
                    let vouchers: Vec<usize> = sub
                        .vouches
                        .get(&first)
                        .map(|stmts| {
                            stmts
                                .iter()
                                .filter(|(_, &(c, r))| c == count && r == root)
                                .map(|(&s, _)| s)
                                .collect()
                        })
                        .unwrap_or_default();
                    if vouchers.is_empty() {
                        continue;
                    }
                    let cursor = sub.fetch_cursor.entry(first).or_insert(0);
                    let Some(&target) = vouchers.get(*cursor % vouchers.len()) else {
                        continue;
                    };
                    *cursor += 1;
                    fetched.push((first, count, target));
                }
                None => {
                    for (&s, &(c, _)) in sub.vouches.get(&first).into_iter().flatten() {
                        fetched.push((first, c, s));
                    }
                }
            }
        }
        let Some(&(stalled_first, _, _)) = fetched.first() else {
            return Ok(()); // All quiet: let the timer lapse.
        };
        out.push(Action::Charge(self.cfg.cost.hmac(32) * fetched.len() as u64, "refetch"));
        for &(first, count, target) in &fetched {
            out.push(Action::ToSender {
                to: target,
                msg: ReceiverMsg::FetchRange { sc, first: Position(first), count },
            });
        }
        if let Some(sub) = self.subs.get_mut(&sc) {
            sub.timer_armed = true;
        }
        out.push(Action::SetTimer { token: sc, delay: timeout });
        Err(IrmcError::CarrierTimeout { sc, first: Position(stalled_first) })
    }

    /// The collector this endpoint currently expects to serve `sc`.
    pub fn collector(&self, sc: Subchannel) -> usize {
        self.subs.get(&sc).map(|s| s.collector).unwrap_or(self.me % self.cfg.n_senders)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::SenderEndpoint;
    use crate::tests_support::Blob;
    use spider_crypto::CostModel;
    use spider_crypto::Digestible as _;

    const RC: ChannelMode = ChannelMode::ReliableCast { dedup: true };
    const SC: ChannelMode = ChannelMode::SenderCast { overlap: true };

    fn cfg(mode: ChannelMode) -> IrmcConfig {
        IrmcConfig::new(mode, 3, 1, 3, 1, 8).with_cost(CostModel::zero())
    }

    fn rc_receiver() -> ReceiverEndpoint<Blob> {
        ReceiverEndpoint::new(cfg(RC), 0, Keyring::new(5))
    }

    /// Produces the signed `Send` a correct sender would emit.
    fn send_from(idx: usize, sc: Subchannel, p: Position, m: &Blob) -> ChannelMsg<Blob> {
        let mut s: SenderEndpoint<Blob> = SenderEndpoint::new(cfg(RC), idx, Keyring::new(5));
        let mut out = Vec::new();
        s.send_batch(sc, p, vec![m.clone()], &mut out);
        out.into_iter()
            .find_map(|a| match a {
                Action::ToReceiver { to: 0, msg } => Some(msg),
                _ => None,
            })
            .expect("send emitted")
    }

    /// A `SendRange` signed by sender `idx`. Correct senders only emit
    /// one from the range's rotated carrier, but a receiver takes a signed
    /// range from any sender as that sender's statement.
    fn range_from(
        idx: usize,
        sc: Subchannel,
        first: Position,
        msgs: Vec<Blob>,
    ) -> ChannelMsg<Blob> {
        let leaves: Vec<Digest> = msgs.iter().map(|m| m.digest()).collect();
        let rd = range_digest(sc, first, msgs.len() as u32, &merkle_root(&leaves));
        let sig = Keyring::new(5).sign(spider_crypto::KeyId(1000 + idx as u32), &rd);
        ChannelMsg::SendRange { sc, first, msgs: Arc::new(msgs), sig }
    }

    fn blobs(first: u64, n: u64) -> Vec<Blob> {
        (first..first + n).map(|i| Blob::new(format!("m{i}").as_bytes())).collect()
    }

    #[test]
    fn rc_delivers_after_fs_plus_one_matching_sends() {
        let mut r = rc_receiver();
        let m = Blob::new(b"value");
        let mut out = Vec::new();
        let _ = r.on_sender_message(SimTime::ZERO, 0, send_from(0, 3, Position(1), &m), &mut out);
        assert_eq!(
            r.try_receive(3, Position(1)),
            ReceiveResult::Pending,
            "one sender is not enough"
        );
        let _ = r.on_sender_message(SimTime::ZERO, 1, send_from(1, 3, Position(1), &m), &mut out);
        assert!(out.iter().any(|a| matches!(a, Action::Ready { sc: 3, p } if *p == Position(1))));
        assert_eq!(r.try_receive(3, Position(1)).into_payload(), Some(m));
    }

    #[test]
    fn rc_conflicting_contents_never_deliver() {
        let mut r = rc_receiver();
        let mut out = Vec::new();
        let _ = r.on_sender_message(
            SimTime::ZERO,
            0,
            send_from(0, 0, Position(1), &Blob::new(b"a")),
            &mut out,
        );
        let _ = r.on_sender_message(
            SimTime::ZERO,
            1,
            send_from(1, 0, Position(1), &Blob::new(b"b")),
            &mut out,
        );
        let _ = r.on_sender_message(
            SimTime::ZERO,
            2,
            send_from(2, 0, Position(1), &Blob::new(b"c")),
            &mut out,
        );
        assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
        assert!(!out.iter().any(|a| matches!(a, Action::Ready { .. })));
    }

    #[test]
    fn rc_duplicate_sender_does_not_count_twice() {
        let mut r = rc_receiver();
        let m = Blob::new(b"v");
        let mut out = Vec::new();
        let msg = send_from(0, 0, Position(1), &m);
        let _ = r.on_sender_message(SimTime::ZERO, 0, msg.clone(), &mut out);
        let _ = r.on_sender_message(SimTime::ZERO, 0, msg, &mut out);
        assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
    }

    #[test]
    fn rc_forged_signature_is_discarded() {
        let mut r = rc_receiver();
        let m = Blob::new(b"v");
        // Sender 2's message relabeled as coming from sender 0: signature
        // check must fail (claims sender 0's key but is signed by 2).
        let msg = send_from(2, 0, Position(1), &m);
        let mut out = Vec::new();
        let _ = r.on_sender_message(SimTime::ZERO, 0, msg, &mut out);
        let msg1 = send_from(1, 0, Position(1), &m);
        let _ = r.on_sender_message(SimTime::ZERO, 1, msg1, &mut out);
        assert_eq!(
            r.try_receive(0, Position(1)),
            ReceiveResult::Pending,
            "forged copy must not count toward the quorum"
        );
    }

    #[test]
    fn below_window_reports_too_old() {
        let mut r = rc_receiver();
        let mut out = Vec::new();
        r.move_window(0, Position(5), &mut out);
        assert_eq!(r.try_receive(0, Position(2)), ReceiveResult::TooOld(Position(5)));
        // Moves notify every sender.
        let moves = out
            .iter()
            .filter(|a| matches!(a, Action::ToSender { msg: ReceiverMsg::Move { .. }, .. }))
            .count();
        assert_eq!(moves, 3);
    }

    #[test]
    fn sender_moves_shift_window_at_fs_plus_one() {
        let mut r = rc_receiver();
        let mut out = Vec::new();
        let _ = r.on_sender_message(
            SimTime::ZERO,
            0,
            ChannelMsg::Move { sc: 0, p: Position(9) },
            &mut out,
        );
        assert_eq!(r.window(0).start(), Position(1), "one sender cannot move the window");
        let _ = r.on_sender_message(
            SimTime::ZERO,
            1,
            ChannelMsg::Move { sc: 0, p: Position(7) },
            &mut out,
        );
        // fs+1 = 2-highest of [9, 7, 0] = 7.
        assert_eq!(r.window(0).start(), Position(7));
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::WindowMoved { start, .. } if *start == Position(7))));
    }

    #[test]
    fn sc_certificate_with_too_few_valid_shares_rejected() {
        let ring = Keyring::new(5);
        let mut r: ReceiverEndpoint<Blob> = ReceiverEndpoint::new(cfg(SC), 0, ring.clone());
        let m = Blob::new(b"v");
        let d = m.digest();
        let slot = slot_digest(0, Position(1), &d);
        let good = ring.sign(spider_crypto::KeyId(1000), &slot);
        // Second share is over different content — invalid for this slot.
        let other = slot_digest(0, Position(2), &d);
        let bad = ring.sign(spider_crypto::KeyId(1001), &other);
        let mut out = Vec::new();
        let _ = r.on_sender_message(
            SimTime::ZERO,
            0,
            ChannelMsg::Certificate {
                sc: 0,
                p: Position(1),
                msg: Arc::new(m.clone()),
                shares: vec![good, bad],
            },
            &mut out,
        );
        assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
        // Duplicate shares from one sender are no better.
        let _ = r.on_sender_message(
            SimTime::ZERO,
            0,
            ChannelMsg::Certificate {
                sc: 0,
                p: Position(1),
                msg: Arc::new(m.clone()),
                shares: vec![good, good],
            },
            &mut out,
        );
        assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
    }

    #[test]
    fn sc_progress_without_certificates_arms_timer_and_switches_collector() {
        let ring = Keyring::new(5);
        let mut r: ReceiverEndpoint<Blob> = ReceiverEndpoint::new(cfg(SC), 0, ring);
        assert_eq!(r.collector(0), 0);
        let mut out = Vec::new();
        // fs + 1 = 2 senders claim position 4 is certified.
        for s in [1, 2] {
            let _ = r.on_sender_message(
                SimTime::ZERO,
                s,
                ChannelMsg::Progress { positions: vec![(0, Position(4))] },
                &mut out,
            );
        }
        assert!(out.iter().any(|a| matches!(a, Action::SetTimer { token: 0, .. })));
        // Timer fires; nothing arrived from collector 0 -> switch to 1.
        out.clear();
        let _ = r.on_timer(0, SimTime::from_millis(500), &mut out);
        assert_eq!(r.collector(0), 1);
        let selects = out
            .iter()
            .filter(|a| {
                matches!(a, Action::ToSender { msg: ReceiverMsg::Select { collector: 1, .. }, .. })
            })
            .count();
        assert_eq!(selects, 3, "announced to every sender");
    }

    // ------------------------------------------------------------------
    // Range verification
    // ------------------------------------------------------------------

    #[test]
    fn rc_range_delivers_after_fs_plus_one_matching_ranges() {
        let mut r = rc_receiver();
        let msgs = blobs(1, 4);
        let mut out = Vec::new();
        let _ = r.on_sender_message(
            SimTime::ZERO,
            0,
            range_from(0, 0, Position(1), msgs.clone()),
            &mut out,
        );
        for p in 1..=4u64 {
            assert_eq!(r.try_receive(0, Position(p)), ReceiveResult::Pending, "one sender only");
        }
        let _ = r.on_sender_message(
            SimTime::ZERO,
            1,
            range_from(1, 0, Position(1), msgs.clone()),
            &mut out,
        );
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(
                r.try_receive(0, Position(1 + i as u64)).into_payload(),
                Some(m.clone()),
                "slot {i}"
            );
        }
    }

    #[test]
    fn rc_range_and_single_sends_share_slot_quorums() {
        // One sender ships a range, another ships a matching single slot
        // (boundaries diverged): the per-slot quorum must combine them.
        let mut r = rc_receiver();
        let msgs = blobs(1, 3);
        let mut out = Vec::new();
        let _ = r.on_sender_message(
            SimTime::ZERO,
            0,
            range_from(0, 0, Position(1), msgs.clone()),
            &mut out,
        );
        let _ =
            r.on_sender_message(SimTime::ZERO, 1, send_from(1, 0, Position(2), &msgs[1]), &mut out);
        assert_eq!(r.try_receive(0, Position(2)).into_payload(), Some(msgs[1].clone()));
        assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
    }

    #[test]
    fn rc_tampered_range_member_rejects_the_whole_range() {
        let mut r = rc_receiver();
        let msgs = blobs(1, 4);
        let mut out = Vec::new();
        // Honest range from sender 0.
        let _ = r.on_sender_message(
            SimTime::ZERO,
            0,
            range_from(0, 0, Position(1), msgs.clone()),
            &mut out,
        );
        // Sender 1's range with slot 2 tampered after signing.
        let ChannelMsg::SendRange { sc, first, msgs: signed, sig } =
            range_from(1, 0, Position(1), msgs.clone())
        else {
            panic!("range expected")
        };
        let mut tampered: Vec<Blob> = (*signed).clone();
        tampered[2] = Blob::new(b"evil");
        let _ = r.on_sender_message(
            SimTime::ZERO,
            1,
            ChannelMsg::SendRange { sc, first, msgs: Arc::new(tampered), sig },
            &mut out,
        );
        for p in 1..=4u64 {
            assert_eq!(
                r.try_receive(0, Position(p)),
                ReceiveResult::Pending,
                "tampering one member must reject every slot of the range (slot {p})"
            );
        }
    }

    fn sc_pair() -> (SenderEndpoint<Blob>, SenderEndpoint<Blob>, ReceiverEndpoint<Blob>) {
        let ring = Keyring::new(5);
        let c = cfg(SC);
        (
            SenderEndpoint::new(c.clone(), 0, ring.clone()),
            SenderEndpoint::new(c.clone(), 1, ring.clone()),
            ReceiverEndpoint::new(c, 0, ring),
        )
    }

    #[test]
    fn sc_overlap_content_never_delivers_before_certificate() {
        let (mut s0, mut s1, mut r) = sc_pair();
        let msgs = blobs(1, 4);
        let mut out0 = Vec::new();
        let mut out1 = Vec::new();
        s0.send_batch(0, Position(1), msgs.clone(), &mut out0);
        s1.send_batch(0, Position(1), msgs.clone(), &mut out1);
        // Deliver ONLY the early content (overlap) to the receiver.
        let content = out0
            .iter()
            .find_map(|a| match a {
                Action::ToReceiver { to: 0, msg: m @ ChannelMsg::RangeContent { .. } } => {
                    Some(m.clone())
                }
                _ => None,
            })
            .expect("overlap ships content early");
        let mut rout = Vec::new();
        let _ = r.on_sender_message(SimTime::ZERO, 0, content, &mut rout);
        for p in 1..=4u64 {
            assert_eq!(
                r.try_receive(0, Position(p)),
                ReceiveResult::Pending,
                "uncertified content must never deliver (slot {p})"
            );
        }
        assert!(!rout.iter().any(|a| matches!(a, Action::Ready { .. })));
        // Now complete the certificate on s0 and ship it: delivery unlocks.
        let share = out1
            .iter()
            .find_map(|a| match a {
                Action::ToPeerSender { to: 0, msg } => Some(msg.clone()),
                _ => None,
            })
            .expect("share for s0");
        let mut certs = Vec::new();
        let _ = s0.on_peer_message(1, share, &mut certs);
        let cert = certs
            .iter()
            .find_map(|a| match a {
                Action::ToReceiver { to: 0, msg: m @ ChannelMsg::RangeCertificate { .. } } => {
                    Some(m.clone())
                }
                _ => None,
            })
            .expect("certificate shipped");
        let _ = r.on_sender_message(SimTime::ZERO, 0, cert, &mut rout);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(r.try_receive(0, Position(1 + i as u64)).into_payload(), Some(m.clone()));
        }
    }

    #[test]
    fn sc_certificate_before_content_waits_and_then_delivers() {
        let (mut s0, mut s1, mut r) = sc_pair();
        let msgs = blobs(1, 3);
        let mut out0 = Vec::new();
        let mut out1 = Vec::new();
        s0.send_batch(0, Position(1), msgs.clone(), &mut out0);
        s1.send_batch(0, Position(1), msgs.clone(), &mut out1);
        let share = out1
            .iter()
            .find_map(|a| match a {
                Action::ToPeerSender { to: 0, msg } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let mut certs = Vec::new();
        let _ = s0.on_peer_message(1, share, &mut certs);
        let cert = certs
            .iter()
            .find_map(|a| match a {
                Action::ToReceiver { to: 0, msg: m @ ChannelMsg::RangeCertificate { .. } } => {
                    Some(m.clone())
                }
                _ => None,
            })
            .unwrap();
        // Reordered link: the certificate overtakes the content.
        let mut rout = Vec::new();
        let _ = r.on_sender_message(SimTime::ZERO, 0, cert, &mut rout);
        assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
        let content = out0
            .iter()
            .find_map(|a| match a {
                Action::ToReceiver { to: 0, msg: m @ ChannelMsg::RangeContent { .. } } => {
                    Some(m.clone())
                }
                _ => None,
            })
            .unwrap();
        let _ = r.on_sender_message(SimTime::ZERO, 0, content, &mut rout);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(r.try_receive(0, Position(1 + i as u64)).into_payload(), Some(m.clone()));
        }
    }

    #[test]
    fn sc_bogus_content_flood_cannot_evict_honest_pending_content() {
        // A faulty sender ships many bogus RangeContent candidates for the
        // same range before the honest collector's content arrives; the
        // honest content must still unlock when its certificate lands.
        let (mut s0, mut s1, mut r) = sc_pair();
        let msgs = blobs(1, 4);
        let mut out0 = Vec::new();
        let mut out1 = Vec::new();
        s0.send_batch(0, Position(1), msgs.clone(), &mut out0);
        s1.send_batch(0, Position(1), msgs.clone(), &mut out1);
        let mut rout = Vec::new();
        // Faulty sender 2 floods distinct bogus contents for first=1.
        for k in 0..8u64 {
            let _ = r.on_sender_message(
                SimTime::ZERO,
                2,
                ChannelMsg::RangeContent {
                    sc: 0,
                    first: Position(1),
                    msgs: Arc::new(blobs(100 + 10 * k, 4)),
                },
                &mut rout,
            );
        }
        // Honest content arrives afterwards…
        let content = out0
            .iter()
            .find_map(|a| match a {
                Action::ToReceiver { to: 0, msg: m @ ChannelMsg::RangeContent { .. } } => {
                    Some(m.clone())
                }
                _ => None,
            })
            .expect("overlap ships content");
        let _ = r.on_sender_message(SimTime::ZERO, 0, content, &mut rout);
        // …and the certificate unlocks it despite the flood.
        let share = out1
            .iter()
            .find_map(|a| match a {
                Action::ToPeerSender { to: 0, msg } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let mut certs = Vec::new();
        let _ = s0.on_peer_message(1, share, &mut certs);
        let cert = certs
            .iter()
            .find_map(|a| match a {
                Action::ToReceiver { to: 0, msg: m @ ChannelMsg::RangeCertificate { .. } } => {
                    Some(m.clone())
                }
                _ => None,
            })
            .unwrap();
        let _ = r.on_sender_message(SimTime::ZERO, 0, cert, &mut rout);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(r.try_receive(0, Position(1 + i as u64)).into_payload(), Some(m.clone()));
        }
    }

    #[test]
    fn sc_range_certificate_with_wrong_content_rejected() {
        let (mut s0, mut s1, mut r) = sc_pair();
        let msgs = blobs(1, 3);
        let mut out0 = Vec::new();
        let mut out1 = Vec::new();
        s0.send_batch(0, Position(1), msgs.clone(), &mut out0);
        s1.send_batch(0, Position(1), msgs, &mut out1);
        // A faulty collector ships different content than was certified.
        let mut rout = Vec::new();
        let _ = r.on_sender_message(
            SimTime::ZERO,
            0,
            ChannelMsg::RangeContent { sc: 0, first: Position(1), msgs: Arc::new(blobs(7, 3)) },
            &mut rout,
        );
        let share = out1
            .iter()
            .find_map(|a| match a {
                Action::ToPeerSender { to: 0, msg } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let mut certs = Vec::new();
        let _ = s0.on_peer_message(1, share, &mut certs);
        let cert = certs
            .iter()
            .find_map(|a| match a {
                Action::ToReceiver { to: 0, msg: m @ ChannelMsg::RangeCertificate { .. } } => {
                    Some(m.clone())
                }
                _ => None,
            })
            .unwrap();
        let _ = r.on_sender_message(SimTime::ZERO, 0, cert, &mut rout);
        for p in 1..=3u64 {
            assert_eq!(
                r.try_receive(0, Position(p)),
                ReceiveResult::Pending,
                "mismatching content must not deliver under the certificate"
            );
        }
    }

    // ------------------------------------------------------------------
    // RC digest-only range fan-in
    // ------------------------------------------------------------------

    use crate::messages::carrier_for;
    use spider_types::WireSize;

    fn dedup_cfg() -> IrmcConfig {
        cfg(RC)
    }

    /// Everything sender `idx` ships to receiver 0 for this batch.
    fn dedup_msgs_from(
        c: &IrmcConfig,
        idx: usize,
        sc: Subchannel,
        first: Position,
        msgs: Vec<Blob>,
    ) -> Vec<ChannelMsg<Blob>> {
        let mut s: SenderEndpoint<Blob> = SenderEndpoint::new(c.clone(), idx, Keyring::new(5));
        let mut out = Vec::new();
        s.send_batch(sc, first, msgs, &mut out);
        out.into_iter()
            .filter_map(|a| match a {
                Action::ToReceiver { to: 0, msg } => Some(msg),
                _ => None,
            })
            .collect()
    }

    fn charge_sum(out: &[Action<Blob>]) -> SimTime {
        out.iter()
            .filter_map(|a| match a {
                Action::Charge(t, _) => Some(*t),
                _ => None,
            })
            .fold(SimTime::ZERO, |acc, t| acc + t)
    }

    #[test]
    fn dedup_carrier_content_plus_one_vouch_delivers_primary() {
        let c = dedup_cfg();
        let carrier = carrier_for(0, Position(1), c.n_senders);
        let voucher = (carrier + 1) % c.n_senders;
        let mut r: ReceiverEndpoint<Blob> = ReceiverEndpoint::new(c.clone(), 0, Keyring::new(5));
        let msgs = blobs(1, 4);
        let mut out = Vec::new();
        for m in dedup_msgs_from(&c, carrier, 0, Position(1), msgs.clone()) {
            let _ = r.on_sender_message(SimTime::ZERO, carrier, m, &mut out);
        }
        assert_eq!(
            r.try_receive(0, Position(1)),
            ReceiveResult::Pending,
            "the carrier alone is one statement — not a quorum"
        );
        for m in dedup_msgs_from(&c, voucher, 0, Position(1), msgs.clone()) {
            let _ = r.on_sender_message(SimTime::ZERO, voucher, m, &mut out);
        }
        for (i, m) in msgs.iter().enumerate() {
            let got = r.try_receive(0, Position(1 + i as u64));
            let ReceiveResult::Ready(d) = got else { panic!("slot {i} should deliver") };
            assert_eq!(d.payload, *m, "byte-identical delivery, slot {i}");
            assert_eq!(d.carrier, carrier, "provenance names the carrier");
            assert_eq!(d.dedup, DedupOutcome::Primary);
        }
        assert!(out.iter().any(|a| matches!(a, Action::Ready { sc: 0, p } if *p == Position(1))));
    }

    #[test]
    fn dedup_vouch_order_does_not_matter() {
        // Vouches land before the carrier's content: delivery happens the
        // moment the content arrives, not before.
        let c = dedup_cfg();
        let carrier = carrier_for(0, Position(1), c.n_senders);
        let mut r: ReceiverEndpoint<Blob> = ReceiverEndpoint::new(c.clone(), 0, Keyring::new(5));
        let msgs = blobs(1, 3);
        let mut out = Vec::new();
        for s in 0..c.n_senders {
            if s == carrier {
                continue;
            }
            for m in dedup_msgs_from(&c, s, 0, Position(1), msgs.clone()) {
                let _ = r.on_sender_message(SimTime::ZERO, s, m, &mut out);
            }
        }
        assert_eq!(
            r.try_receive(0, Position(1)),
            ReceiveResult::Pending,
            "vouches alone carry no content"
        );
        for m in dedup_msgs_from(&c, carrier, 0, Position(1), msgs.clone()) {
            let _ = r.on_sender_message(SimTime::ZERO, carrier, m, &mut out);
        }
        assert_eq!(r.try_receive(0, Position(1)).into_payload(), Some(msgs[0].clone()));
    }

    #[test]
    fn dedup_quorum_without_content_arms_timer_and_refetches() {
        let c = dedup_cfg();
        let carrier = carrier_for(0, Position(1), c.n_senders);
        let vouchers: Vec<usize> = (0..c.n_senders).filter(|&s| s != carrier).collect();
        let mut r: ReceiverEndpoint<Blob> = ReceiverEndpoint::new(c.clone(), 0, Keyring::new(5));
        let msgs = blobs(1, 4);
        let mut out = Vec::new();
        for &v in &vouchers {
            for m in dedup_msgs_from(&c, v, 0, Position(1), msgs.clone()) {
                let _ = r.on_sender_message(SimTime::ZERO, v, m, &mut out);
            }
        }
        // fs + 1 = 2 vouches form a quorum with no content: supervise.
        assert!(
            out.iter().any(|a| matches!(a, Action::SetTimer { token: 0, .. })),
            "quorum without content must arm the carrier-supervision timer"
        );
        out.clear();
        let res = r.on_timer(0, SimTime::from_millis(500), &mut out);
        assert_eq!(
            res,
            Err(IrmcError::CarrierTimeout { sc: 0, first: Position(1) }),
            "the stalled range is reported"
        );
        let fetch = out
            .iter()
            .find_map(|a| match a {
                Action::ToSender { to, msg: ReceiverMsg::FetchRange { sc: 0, first, count } } => {
                    Some((*to, *first, *count))
                }
                _ => None,
            })
            .expect("a refetch goes out");
        assert_eq!(fetch.1, Position(1));
        assert_eq!(fetch.2, 4);
        assert!(vouchers.contains(&fetch.0), "refetch targets a voucher");
        assert!(
            out.iter().any(|a| matches!(a, Action::SetTimer { token: 0, .. })),
            "the timer re-arms until the content lands"
        );
        // The voucher answers with raw content: delivered as Refetched.
        let mut out2 = Vec::new();
        let _ = r.on_sender_message(
            SimTime::ZERO,
            fetch.0,
            ChannelMsg::RangeContent { sc: 0, first: Position(1), msgs: Arc::new(msgs.clone()) },
            &mut out2,
        );
        for (i, m) in msgs.iter().enumerate() {
            let ReceiveResult::Ready(d) = r.try_receive(0, Position(1 + i as u64)) else {
                panic!("slot {i} should deliver after the refetch")
            };
            assert_eq!(d.payload, *m);
            assert_eq!(d.carrier, fetch.0);
            assert_eq!(d.dedup, DedupOutcome::Refetched);
        }
        // The next timer expiry finds nothing stalled and stays quiet.
        let mut out3 = Vec::new();
        assert_eq!(r.on_timer(0, SimTime::from_millis(1000), &mut out3), Ok(()));
        assert!(!out3.iter().any(|a| matches!(a, Action::SetTimer { .. })));
    }

    #[test]
    fn dedup_successive_refetches_rotate_vouchers() {
        let c = dedup_cfg();
        let carrier = carrier_for(0, Position(1), c.n_senders);
        let vouchers: Vec<usize> = (0..c.n_senders).filter(|&s| s != carrier).collect();
        let mut r: ReceiverEndpoint<Blob> = ReceiverEndpoint::new(c.clone(), 0, Keyring::new(5));
        let msgs = blobs(1, 4);
        let mut out = Vec::new();
        for &v in &vouchers {
            for m in dedup_msgs_from(&c, v, 0, Position(1), msgs.clone()) {
                let _ = r.on_sender_message(SimTime::ZERO, v, m, &mut out);
            }
        }
        let mut targets = Vec::new();
        for round in 0..2u64 {
            out.clear();
            let _ = r.on_timer(0, SimTime::from_millis(500 * (round + 1)), &mut out);
            targets.extend(out.iter().filter_map(|a| match a {
                Action::ToSender { to, msg: ReceiverMsg::FetchRange { .. } } => Some(*to),
                _ => None,
            }));
        }
        assert_eq!(targets.len(), 2);
        assert_ne!(targets[0], targets[1], "a dead voucher is not re-asked immediately");
    }

    #[test]
    fn dedup_tampered_content_is_rejected_as_vouch_mismatch() {
        let c = dedup_cfg();
        let carrier = carrier_for(0, Position(1), c.n_senders);
        let vouchers: Vec<usize> = (0..c.n_senders).filter(|&s| s != carrier).collect();
        let mut r: ReceiverEndpoint<Blob> = ReceiverEndpoint::new(c.clone(), 0, Keyring::new(5));
        let msgs = blobs(1, 4);
        let mut out = Vec::new();
        for &v in &vouchers {
            for m in dedup_msgs_from(&c, v, 0, Position(1), msgs.clone()) {
                let _ = r.on_sender_message(SimTime::ZERO, v, m, &mut out);
            }
        }
        // A Byzantine sender ships content contradicting the quorum root.
        let res = r.on_sender_message(
            SimTime::ZERO,
            carrier,
            ChannelMsg::RangeContent { sc: 0, first: Position(1), msgs: Arc::new(blobs(50, 4)) },
            &mut out,
        );
        assert_eq!(res, Err(IrmcError::VouchMismatch { sc: 0, first: Position(1) }));
        assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
        // The honest copy still delivers afterwards.
        let _ = r.on_sender_message(
            SimTime::ZERO,
            vouchers[0],
            ChannelMsg::RangeContent { sc: 0, first: Position(1), msgs: Arc::new(msgs.clone()) },
            &mut out,
        );
        assert_eq!(r.try_receive(0, Position(1)).into_payload(), Some(msgs[0].clone()));
    }

    #[test]
    fn dedup_retransmitted_send_range_skips_the_second_signature_check() {
        // RootCache: the same signed range arriving twice (retransmission)
        // pays hashing twice but RSA verification only once.
        let c = dedup_cfg().with_cost(CostModel::default());
        let carrier = carrier_for(0, Position(1), c.n_senders);
        let mut r: ReceiverEndpoint<Blob> = ReceiverEndpoint::new(c.clone(), 0, Keyring::new(5));
        let frames = dedup_msgs_from(&c, carrier, 0, Position(1), blobs(1, 4));
        let mut out1 = Vec::new();
        for m in frames.clone() {
            let _ = r.on_sender_message(SimTime::ZERO, carrier, m, &mut out1);
        }
        let mut out2 = Vec::new();
        for m in frames {
            let _ = r.on_sender_message(SimTime::ZERO, carrier, m, &mut out2);
        }
        let (c1, c2) = (charge_sum(&out1), charge_sum(&out2));
        assert_eq!(
            c1 + c.cost.vouch_verify(),
            c2 + c.cost.rsa_verify(),
            "second copy trades the RSA verification for a root comparison"
        );
    }

    #[test]
    fn dedup_late_copy_of_a_delivered_range_is_not_rehashed() {
        let c = dedup_cfg().with_cost(CostModel::default());
        let carrier = carrier_for(0, Position(1), c.n_senders);
        let voucher = (carrier + 1) % c.n_senders;
        let mut r: ReceiverEndpoint<Blob> = ReceiverEndpoint::new(c.clone(), 0, Keyring::new(5));
        let msgs = blobs(1, 4);
        let mut out = Vec::new();
        for (s, frames) in [(carrier, dedup_msgs_from(&c, carrier, 0, Position(1), msgs.clone()))]
            .into_iter()
            .chain([(voucher, dedup_msgs_from(&c, voucher, 0, Position(1), msgs.clone()))])
        {
            for m in frames {
                let _ = r.on_sender_message(SimTime::ZERO, s, m, &mut out);
            }
        }
        assert!(r.try_receive(0, Position(1)).into_payload().is_some(), "delivered");
        // A late duplicate of the carrier's frame: transport MAC plus the
        // MAC of the window re-announcement that reminds the stale sender
        // — no Merkle rebuild, no signature.
        let bytes: usize = msgs.iter().map(|m| m.wire_size()).sum();
        let mut late = Vec::new();
        for m in dedup_msgs_from(&c, carrier, 0, Position(1), msgs.clone()) {
            let _ = r.on_sender_message(SimTime::ZERO, carrier, m, &mut late);
        }
        assert_eq!(
            charge_sum(&late),
            c.cost.hmac(bytes) + c.cost.hmac(32),
            "the hash wall is gone for late copies"
        );
        assert!(
            late.iter().any(|a| matches!(
                a,
                Action::ToSender { to, msg: ReceiverMsg::Move { sc: 0, p: Position(1) } } if *to == carrier
            )),
            "the stale carrier is reminded where the window starts"
        );
    }

    #[test]
    fn range_vouch_on_an_sc_channel_is_wrong_variant() {
        let mut r: ReceiverEndpoint<Blob> = ReceiverEndpoint::new(cfg(SC), 0, Keyring::new(5));
        let mut out = Vec::new();
        let res = r.on_sender_message(
            SimTime::ZERO,
            1,
            ChannelMsg::RangeVouch {
                sc: 0,
                first: Position(1),
                count: 4,
                root: Digest::of_bytes(b"x"),
            },
            &mut out,
        );
        assert_eq!(res, Err(IrmcError::WrongVariant));
    }

    #[test]
    fn legacy_delivery_reports_replicated_provenance() {
        let mut r = rc_receiver();
        let m = Blob::new(b"value");
        let mut out = Vec::new();
        let _ = r.on_sender_message(SimTime::ZERO, 0, send_from(0, 0, Position(1), &m), &mut out);
        let _ = r.on_sender_message(SimTime::ZERO, 1, send_from(1, 0, Position(1), &m), &mut out);
        let ReceiveResult::Ready(d) = r.try_receive(0, Position(1)) else { panic!("delivered") };
        assert_eq!(d.dedup, DedupOutcome::Replicated);
        assert_eq!(d.position, Position(1));
    }
}
