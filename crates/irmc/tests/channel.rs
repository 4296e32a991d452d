//! End-to-end IRMC tests: both variants driven through a miniature
//! network pump, with Byzantine senders, lagging receivers, and random
//! schedules checking the paper's IRMC-Correctness and IRMC-Liveness
//! properties (§A.5).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spider_crypto::{Digest, Digestible, Keyring};
use spider_irmc::{
    Action, ChannelMode, ChannelMsg, IrmcConfig, ReceiveResult, ReceiverEndpoint, SenderEndpoint,
};
use spider_types::{Position, SimTime, WireSize};
use std::collections::VecDeque;

#[derive(Debug, Clone, PartialEq)]
struct Blob(Vec<u8>);

impl Blob {
    fn of(tag: u64) -> Self {
        Blob(tag.to_be_bytes().to_vec())
    }
}

impl WireSize for Blob {
    fn wire_size(&self) -> usize {
        64 + self.0.len()
    }
}

impl Digestible for Blob {
    fn digest(&self) -> Digest {
        Digest::of_bytes(&self.0)
    }
}

enum Wire {
    ToReceiver { from: usize, to: usize, msg: ChannelMsg<Blob> },
    ToSender { from: usize, to: usize, msg: spider_irmc::ReceiverMsg },
    PeerSender { from: usize, to: usize, msg: ChannelMsg<Blob> },
}

/// A channel plus a message pump with optional random reordering.
struct Net {
    senders: Vec<SenderEndpoint<Blob>>,
    receivers: Vec<ReceiverEndpoint<Blob>>,
    wire: VecDeque<Wire>,
    rng: SmallRng,
    shuffle: bool,
    /// Ready events observed per receiver: (sc, position).
    ready: Vec<Vec<(u64, Position)>>,
    /// Pending SC supervision timers: (receiver, token).
    timers: Vec<(usize, u64)>,
    /// Standing fault rule: suppress certificates on this sender->receiver
    /// link (a faulty collector).
    drop_cert_link: Option<(usize, usize)>,
    now: SimTime,
}

impl Net {
    fn new(cfg: IrmcConfig, seed: u64, shuffle: bool) -> Self {
        let ring = Keyring::new(99);
        Net {
            senders: (0..cfg.n_senders)
                .map(|i| SenderEndpoint::new(cfg.clone(), i, ring.clone()))
                .collect(),
            receivers: (0..cfg.n_receivers)
                .map(|i| ReceiverEndpoint::new(cfg.clone(), i, ring.clone()))
                .collect(),
            wire: VecDeque::new(),
            rng: SmallRng::seed_from_u64(seed),
            shuffle,
            ready: vec![Vec::new(); cfg.n_receivers],
            timers: Vec::new(),
            drop_cert_link: None,
            now: SimTime::ZERO,
        }
    }

    fn absorb_sender(&mut self, from: usize, actions: Vec<Action<Blob>>) {
        for a in actions {
            match a {
                Action::ToReceiver { to, msg } => {
                    let faulty_link = self.drop_cert_link == Some((from, to))
                        && matches!(
                            msg,
                            ChannelMsg::Certificate { .. } | ChannelMsg::RangeCertificate { .. }
                        );
                    if !faulty_link {
                        self.wire.push_back(Wire::ToReceiver { from, to, msg })
                    }
                }
                Action::ToPeerSender { to, msg } => {
                    self.wire.push_back(Wire::PeerSender { from, to, msg })
                }
                _ => {}
            }
        }
    }

    fn absorb_receiver(&mut self, from: usize, actions: Vec<Action<Blob>>) {
        for a in actions {
            match a {
                Action::ToSender { to, msg } => {
                    self.wire.push_back(Wire::ToSender { from, to, msg })
                }
                Action::Ready { sc, p } => self.ready[from].push((sc, p)),
                Action::SetTimer { token, .. } => self.timers.push((from, token)),
                _ => {}
            }
        }
    }

    fn send_all(&mut self, sc: u64, p: Position, m: &Blob) {
        for i in 0..self.senders.len() {
            let mut out = Vec::new();
            self.senders[i].send_batch(sc, p, vec![m.clone()], &mut out);
            self.absorb_sender(i, out);
        }
    }

    /// All senders submit the same contiguous run via `send_many`.
    fn send_many_all(&mut self, sc: u64, first: Position, msgs: &[Blob]) {
        for i in 0..self.senders.len() {
            let mut out = Vec::new();
            self.senders[i].send_batch(sc, first, msgs.to_vec(), &mut out);
            self.absorb_sender(i, out);
        }
    }

    /// Delivers queued traffic; returns number of messages pumped.
    fn pump(&mut self) -> usize {
        let mut n = 0;
        while !self.wire.is_empty() {
            let idx = if self.shuffle { self.rng.gen_range(0..self.wire.len()) } else { 0 };
            let item = self.wire.remove(idx).expect("index in range");
            n += 1;
            match item {
                Wire::ToReceiver { from, to, msg } => {
                    let mut out = Vec::new();
                    let _ = self.receivers[to].on_sender_message(self.now, from, msg, &mut out);
                    self.absorb_receiver(to, out);
                }
                Wire::ToSender { from, to, msg } => {
                    let mut out = Vec::new();
                    let _ = self.senders[to].on_receiver_message(from, msg, &mut out);
                    self.absorb_sender(to, out);
                }
                Wire::PeerSender { from, to, msg } => {
                    let mut out = Vec::new();
                    let _ = self.senders[to].on_peer_message(from, msg, &mut out);
                    self.absorb_sender(to, out);
                }
            }
            assert!(n < 1_000_000, "message storm");
        }
        n
    }

    fn tick_senders(&mut self) {
        for i in 0..self.senders.len() {
            let mut out = Vec::new();
            self.senders[i].tick(self.now, &mut out);
            self.absorb_sender(i, out);
        }
    }
}

const RC: ChannelMode = ChannelMode::ReliableCast { dedup: true };
const SC: ChannelMode = ChannelMode::SenderCast { overlap: true };

fn cfg(mode: ChannelMode, capacity: u64) -> IrmcConfig {
    IrmcConfig::new(mode, 4, 1, 3, 1, capacity).with_cost(spider_crypto::CostModel::zero())
}

fn range_cfg(mode: ChannelMode, capacity: u64, max_range: usize) -> IrmcConfig {
    cfg(mode, capacity).with_range(max_range, SimTime::ZERO)
}

#[test]
fn rc_channel_delivers_end_to_end() {
    let mut net = Net::new(cfg(RC, 8), 1, false);
    let m = Blob::of(7);
    net.send_all(0, Position(1), &m);
    net.pump();
    for r in &mut net.receivers {
        assert_eq!(r.try_receive(0, Position(1)).into_payload(), Some(m.clone()));
    }
}

#[test]
fn sc_channel_delivers_end_to_end() {
    let mut net = Net::new(cfg(SC, 8), 1, false);
    let m = Blob::of(7);
    net.send_all(0, Position(1), &m);
    net.pump();
    for r in &mut net.receivers {
        assert_eq!(r.try_receive(0, Position(1)).into_payload(), Some(m.clone()));
    }
}

#[test]
fn capacity_limits_in_flight_positions_until_receivers_advance() {
    let mut net = Net::new(cfg(RC, 2), 1, false);
    // Send positions 1..=4 from all senders; only 1 and 2 fit the window.
    for p in 1..=4u64 {
        net.send_all(0, Position(p), &Blob::of(p));
    }
    net.pump();
    assert_eq!(
        net.receivers[0].try_receive(0, Position(3)),
        ReceiveResult::Pending,
        "position 3 is above the window"
    );
    // Receivers consume 1 and 2 and move their windows to 3.
    for i in 0..3 {
        let mut out = Vec::new();
        net.receivers[i].move_window(0, Position(3), &mut out);
        net.absorb_receiver(i, out);
    }
    net.pump(); // Moves reach senders; blocked sends flush back.
    for r in &mut net.receivers {
        assert_eq!(r.try_receive(0, Position(3)).into_payload(), Some(Blob::of(3)));
        assert_eq!(r.try_receive(0, Position(4)).into_payload(), Some(Blob::of(4)));
    }
}

#[test]
fn lagging_receiver_gets_too_old_after_peer_moves() {
    // Receivers 0 and 1 advance to position 11; receiver 2 stays. Senders'
    // windows move (fr + 1 = 2 confirmations), so old slots are gone. A
    // fresh message at position 11 still reaches receiver 2 (stored above
    // its window start is fine), but position 5 can never deliver there
    // once its own window moves via sender Moves.
    let mut net = Net::new(cfg(RC, 4), 1, false);
    net.send_all(0, Position(1), &Blob::of(1));
    net.pump();
    for i in 0..2 {
        let mut out = Vec::new();
        net.receivers[i].move_window(0, Position(11), &mut out);
        net.absorb_receiver(i, out);
    }
    net.pump();
    // Senders' windows are now [11, 14]: sending position 5 reports stale.
    let mut out = Vec::new();
    let st = net.senders[0].send_batch(0, Position(5), vec![Blob::of(5)], &mut out);
    assert_eq!(st, spider_irmc::SendStatus::TooOld(Position(11)));
}

#[test]
fn byzantine_minority_cannot_force_delivery() {
    // fs = 1: a single faulty sender submits garbage for a position no
    // correct sender uses. It must never deliver.
    let mut net = Net::new(cfg(RC, 8), 1, false);
    let evil = Blob::of(666);
    {
        let mut out = Vec::new();
        net.senders[3].send_batch(0, Position(2), vec![evil.clone()], &mut out);
        net.absorb_sender(3, out);
    }
    net.pump();
    for r in &mut net.receivers {
        assert_eq!(r.try_receive(0, Position(2)), ReceiveResult::Pending);
    }
}

#[test]
fn equivocating_sender_cannot_split_receivers() {
    // Correct senders 0..3 send A; faulty sender 3 sends B. Every receiver
    // delivers A (B has at most weight 1 < fs + 1).
    let mut net = Net::new(cfg(RC, 8), 1, true);
    let a = Blob::of(1);
    let b = Blob::of(2);
    for i in 0..3 {
        let mut out = Vec::new();
        net.senders[i].send_batch(0, Position(1), vec![a.clone()], &mut out);
        net.absorb_sender(i, out);
    }
    let mut out = Vec::new();
    net.senders[3].send_batch(0, Position(1), vec![b], &mut out);
    net.absorb_sender(3, out);
    net.pump();
    for r in &mut net.receivers {
        assert_eq!(r.try_receive(0, Position(1)).into_payload(), Some(a.clone()));
    }
}

#[test]
fn sc_faulty_collector_is_replaced_and_content_flows() {
    let c = cfg(SC, 8);
    let mut net = Net::new(c, 1, false);
    let m = Blob::of(9);
    // Sender 0 (receiver 0's default collector) is faulty: it assembles
    // certificates but never ships them to receiver 0.
    net.drop_cert_link = Some((0, 0));
    net.send_all(0, Position(1), &m);
    net.pump();
    // Everyone else has the message; receiver 0 does not.
    assert_eq!(net.receivers[0].try_receive(0, Position(1)), ReceiveResult::Pending);
    assert_eq!(net.receivers[1].try_receive(0, Position(1)).into_payload(), Some(m.clone()));

    // Progress announcements tell receiver 0 that fs+1 senders have the
    // certificate; its supervision timer arms.
    net.tick_senders();
    net.pump();
    let timer = net.timers.iter().find(|(r, _)| *r == 0).copied();
    let (r0, token) = timer.expect("receiver 0 armed its collector timer");
    // Timer fires: receiver 0 switches collectors; the Select makes the
    // new collector re-ship its bundle.
    let mut out = Vec::new();
    let _ = net.receivers[r0].on_timer(token, SimTime::from_millis(500), &mut out);
    net.absorb_receiver(r0, out);
    net.pump();
    assert_eq!(
        net.receivers[0].try_receive(0, Position(1)).into_payload(),
        Some(m),
        "collector switch restores delivery"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// IRMC-Correctness I + Liveness I under random delivery schedules,
    /// for both variants: content sent by all correct senders is delivered
    /// to every receiver; nothing else is ever delivered.
    #[test]
    fn random_schedule_delivery(seed in 0u64..10_000, variant_sc in any::<bool>(), n_msgs in 1u64..20) {
        let mode = if variant_sc { SC } else { RC };
        let mut net = Net::new(cfg(mode, 64), seed, true);
        for p in 1..=n_msgs {
            net.send_all(0, Position(p), &Blob::of(p));
        }
        net.pump();
        for r in &mut net.receivers {
            for p in 1..=n_msgs {
                prop_assert_eq!(r.try_receive(0, Position(p)).into_payload(), Some(Blob::of(p))
                );
            }
        }
    }

    /// IRMC-Correctness II: windows only move when a correct participant
    /// allowed it. With a single faulty sender spamming Move requests, no
    /// receiver window moves.
    #[test]
    fn faulty_sender_moves_alone_never_shift_windows(seed in 0u64..10_000, target in 2u64..100) {
        let mut net = Net::new(cfg(RC, 8), seed, true);
        let mut out = Vec::new();
        net.senders[2].move_window(0, Position(target), &mut out);
        net.absorb_sender(2, out);
        net.pump();
        for r in &net.receivers {
            prop_assert_eq!(r.window(0).start(), Position(1));
        }
    }

    /// Sender-requested window shifts do take effect once fs + 1 senders
    /// ask (IRMC-Liveness III).
    #[test]
    fn quorum_sender_moves_shift_windows(seed in 0u64..10_000, target in 2u64..100) {
        let mut net = Net::new(cfg(RC, 8), seed, true);
        for i in 0..2 {
            let mut out = Vec::new();
            net.senders[i].move_window(0, Position(target), &mut out);
            net.absorb_sender(i, out);
        }
        net.pump();
        for r in &net.receivers {
            prop_assert_eq!(r.window(0).start(), Position(target));
        }
    }
}

#[test]
fn single_byzantine_receiver_cannot_advance_sender_windows() {
    // IRMC-Correctness II, sender side: a sender's window follows the
    // fr+1-highest receiver request, so one lying receiver (fr = 1)
    // cannot make senders discard undelivered messages.
    let mut net = Net::new(cfg(RC, 4), 21, false);
    let mut out = Vec::new();
    // Receiver 2 claims everyone may discard up to position 1000.
    net.receivers[2].move_window(0, Position(1000), &mut out);
    net.absorb_receiver(2, out);
    net.pump();
    for s in &net.senders {
        assert_eq!(
            s.window(0).start(),
            Position(1),
            "a single receiver must not move sender windows"
        );
    }
    // Content sent afterwards still reaches the honest receivers.
    let m = Blob::of(5);
    net.send_all(0, Position(1), &m);
    net.pump();
    for r in net.receivers.iter_mut().take(2) {
        assert_eq!(r.try_receive(0, Position(1)).into_payload(), Some(m.clone()));
    }
}

#[test]
fn capacity_one_channel_is_live_with_stop_and_wait() {
    // The minimum legal capacity degenerates to stop-and-wait: each
    // position only flows after every receiver consumed the previous one.
    let mut net = Net::new(cfg(RC, 1), 22, false);
    for p in 1..=5u64 {
        net.send_all(0, Position(p), &Blob::of(p));
        net.pump();
        for i in 0..3 {
            let got = net.receivers[i].try_receive(0, Position(p));
            assert_eq!(got.into_payload(), Some(Blob::of(p)), "position {p}");
            let mut out = Vec::new();
            net.receivers[i].move_window(0, Position(p + 1), &mut out);
            net.absorb_receiver(i, out);
        }
        net.pump();
    }
}

#[test]
fn subchannels_are_independent_queues() {
    // Blocking subchannel 1 at its capacity must not affect subchannel 2
    // (the request channel runs one subchannel per client, §3.2).
    let mut net = Net::new(cfg(RC, 2), 23, false);
    // Fill subchannel 1 beyond capacity: positions 3.. block.
    for p in 1..=4u64 {
        net.send_all(1, Position(p), &Blob::of(p));
    }
    net.pump();
    assert_eq!(net.receivers[0].try_receive(1, Position(3)), ReceiveResult::Pending);
    // Subchannel 2 is unaffected.
    net.send_all(2, Position(1), &Blob::of(100));
    net.pump();
    for r in &mut net.receivers {
        assert_eq!(r.try_receive(2, Position(1)).into_payload(), Some(Blob::of(100)));
    }
}

// ----------------------------------------------------------------------
// Multi-slot range certification (one signature per contiguous range)
// ----------------------------------------------------------------------

#[test]
fn sc_range_faulty_collector_is_replaced_and_content_flows() {
    // Range analogue of the single-slot supervision test: the collector
    // ships the early content (§A.9 overlap) but never the shares-only
    // certificate. The content alone must not deliver; the collector
    // switch restores delivery.
    let mut net = Net::new(range_cfg(SC, 16, 8), 1, false);
    net.drop_cert_link = Some((0, 0));
    let msgs: Vec<Blob> = (1..=4u64).map(Blob::of).collect();
    net.send_many_all(0, Position(1), &msgs);
    net.pump();
    for p in 1..=4u64 {
        assert_eq!(
            net.receivers[0].try_receive(0, Position(p)),
            ReceiveResult::Pending,
            "early content without a certificate must never deliver (slot {p})"
        );
        assert_eq!(
            net.receivers[1].try_receive(0, Position(p)).into_payload(),
            Some(Blob::of(p)),
            "other receivers certified normally (slot {p})"
        );
    }
    // Progress announcements arm receiver 0's supervision timer; firing it
    // switches collectors and the new collector re-ships content + cert.
    net.tick_senders();
    net.pump();
    let (r0, token) = net
        .timers
        .iter()
        .find(|(r, _)| *r == 0)
        .copied()
        .expect("receiver 0 armed its collector timer");
    let mut out = Vec::new();
    let _ = net.receivers[r0].on_timer(token, SimTime::from_millis(500), &mut out);
    net.absorb_receiver(r0, out);
    net.pump();
    for p in 1..=4u64 {
        assert_eq!(
            net.receivers[0].try_receive(0, Position(p)).into_payload(),
            Some(Blob::of(p)),
            "collector switch restores range delivery (slot {p})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Range analogue of `random_schedule_delivery`: contiguous runs
    /// submitted via `send_many` deliver every slot to every receiver
    /// under random schedules, for both variants and arbitrary chunking.
    #[test]
    fn random_schedule_range_delivery(
        seed in 0u64..10_000,
        variant_sc in any::<bool>(),
        n_msgs in 2u64..40,
        chunk in 2usize..9,
    ) {
        let mode = if variant_sc { SC } else { RC };
        let mut net = Net::new(range_cfg(mode, 64, chunk), seed, true);
        let msgs: Vec<Blob> = (1..=n_msgs).map(Blob::of).collect();
        net.send_many_all(0, Position(1), &msgs);
        net.pump();
        for r in &mut net.receivers {
            for p in 1..=n_msgs {
                prop_assert_eq!(r.try_receive(0, Position(p)).into_payload(), Some(Blob::of(p))
                );
            }
        }
    }

    /// No slot ever delivers without signature coverage of its digest:
    /// tampering one member of every in-flight range invalidates the
    /// Merkle root, so the WHOLE range is rejected on every receiver —
    /// including the untampered member slots.
    #[test]
    fn tampered_range_member_rejects_whole_range(
        seed in 0u64..10_000,
        n_msgs in 2u64..20,
        tamper in 0u64..20,
    ) {
        let tamper_idx = (tamper % n_msgs) as usize;
        let mut net = Net::new(range_cfg(RC, 64, 64), seed, true);
        let msgs: Vec<Blob> = (1..=n_msgs).map(Blob::of).collect();
        net.send_many_all(0, Position(1), &msgs);
        // Corrupt the tampered member in every in-flight copy (the
        // signatures still cover the original content).
        for item in net.wire.iter_mut() {
            if let Wire::ToReceiver { msg: ChannelMsg::SendRange { msgs, .. }, .. } = item {
                let mut tampered = (**msgs).clone();
                tampered[tamper_idx] = Blob::of(666);
                *msgs = std::sync::Arc::new(tampered);
            }
        }
        net.pump();
        for r in &mut net.receivers {
            for p in 1..=n_msgs {
                prop_assert_eq!(
                    r.try_receive(0, Position(p)),
                    ReceiveResult::Pending,
                    "slot {} must not deliver from a tampered range", p
                );
            }
        }
    }

    /// SC ranges with certificates withheld (gap between claimed progress
    /// and delivered certificates) never deliver from content alone, and
    /// window moves still only happen with quorum backing.
    #[test]
    fn sc_withheld_certificates_never_deliver_early(
        seed in 0u64..10_000,
        n_msgs in 2u64..16,
    ) {
        let mut net = Net::new(range_cfg(SC, 64, 64), seed, true);
        // Every collector withholds certificates from its receiver — only
        // early content and shares flow.
        net.drop_cert_link = Some((0, 0));
        let msgs: Vec<Blob> = (1..=n_msgs).map(Blob::of).collect();
        net.send_many_all(0, Position(1), &msgs);
        net.pump();
        for p in 1..=n_msgs {
            prop_assert_eq!(
                net.receivers[0].try_receive(0, Position(p)),
                ReceiveResult::Pending,
                "content-before-shares must not deliver slot {}", p
            );
        }
    }
}
