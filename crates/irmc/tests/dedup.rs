//! End-to-end properties of the IRMC-RC digest-only range fan-in
//! (dedup), checked against the channel's specification rather than
//! another implementation: under message reordering, a crashed carrier,
//! or a Byzantine sender shipping tampered content, every receiver
//! delivers exactly the submitted content for every slot and announces
//! each slot exactly once — and it does so deterministically (double-run
//! equivalence, covering the refetch fallback).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spider_crypto::{Digest, Digestible, Keyring};
use spider_irmc::{Action, ChannelMode, ChannelMsg, IrmcConfig, ReceiverEndpoint, SenderEndpoint};
use spider_types::{Position, SimTime, WireSize};
use std::collections::VecDeque;
use std::sync::Arc;

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

/// What a misbehaving sender does to the content frames it ships.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// The sender's `SendRange` frames are lost (crashed carrier).
    DropContent(usize),
    /// Byzantine sender: it tampers every content frame it ships
    /// (`SendRange` after signing, refetch answers) and follows each of
    /// its range frames with an unsolicited bogus `RangeContent` copy.
    TamperContent(usize),
}

struct Net {
    senders: Vec<SenderEndpoint<Blob>>,
    receivers: Vec<ReceiverEndpoint<Blob>>,
    wire: VecDeque<(bool, usize, usize, WireMsg)>,
    rng: SmallRng,
    shuffle: bool,
    fault: Fault,
    /// Armed supervision timers: (receiver, token).
    timers: Vec<(usize, u64)>,
    /// Ready announcements per receiver, in arrival order.
    ready_log: Vec<Vec<(u64, Position)>>,
}

enum WireMsg {
    Chan(ChannelMsg<Blob>),
    Recv(spider_irmc::ReceiverMsg),
}

/// One scenario outcome: per-receiver delivered slot sequences plus the
/// per-receiver ready announcements, in arrival order.
type RunOutcome = (Vec<Vec<Option<Blob>>>, Vec<Vec<(u64, Position)>>);

impl Net {
    fn new(cfg: IrmcConfig, seed: u64, shuffle: bool, fault: Fault) -> Self {
        let ring = Keyring::new(7);
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
            fault,
            timers: Vec::new(),
            ready_log: vec![Vec::new(); cfg.n_receivers],
        }
    }

    fn absorb_sender(&mut self, from: usize, actions: Vec<Action<Blob>>) {
        for a in actions {
            // Dedup RC has no sender-group-internal traffic; anything
            // other than receiver-bound frames (charges, readiness) is
            // dropped here.
            if let Action::ToReceiver { to, msg } = a {
                let mut bogus = None;
                let msg = match (&self.fault, msg) {
                    (Fault::DropContent(f), ChannelMsg::SendRange { .. }) if *f == from => continue,
                    (Fault::TamperContent(f), ChannelMsg::SendRange { sc, first, msgs, sig })
                        if *f == from =>
                    {
                        bogus = Some(ChannelMsg::RangeContent { sc, first, msgs: tamper(&msgs) });
                        ChannelMsg::SendRange { sc, first, msgs: tamper(&msgs), sig }
                    }
                    (Fault::TamperContent(f), ChannelMsg::RangeContent { sc, first, msgs })
                        if *f == from =>
                    {
                        ChannelMsg::RangeContent { sc, first, msgs: tamper(&msgs) }
                    }
                    (
                        Fault::TamperContent(f),
                        ChannelMsg::RangeVouch { sc, first, count, root },
                    ) if *f == from => {
                        let honest: Vec<Blob> =
                            (first.0..first.0 + u64::from(count)).map(Blob::of).collect();
                        bogus = Some(ChannelMsg::RangeContent { sc, first, msgs: tamper(&honest) });
                        ChannelMsg::RangeVouch { sc, first, count, root }
                    }
                    (_, msg) => msg,
                };
                self.wire.push_back((true, from, to, WireMsg::Chan(msg)));
                if let Some(bogus) = bogus {
                    self.wire.push_back((true, from, to, WireMsg::Chan(bogus)));
                }
            }
        }
    }

    fn absorb_receiver(&mut self, from: usize, actions: Vec<Action<Blob>>) {
        for a in actions {
            match a {
                Action::ToSender { to, msg } => {
                    self.wire.push_back((false, from, to, WireMsg::Recv(msg)))
                }
                Action::Ready { sc, p } => self.ready_log[from].push((sc, p)),
                Action::SetTimer { token, .. } => self.timers.push((from, token)),
                _ => {}
            }
        }
    }

    fn send_batch_all(&mut self, sc: u64, first: Position, msgs: &[Blob]) {
        for i in 0..self.senders.len() {
            let mut out = Vec::new();
            self.senders[i].send_batch(sc, first, msgs.to_vec(), &mut out);
            self.absorb_sender(i, out);
        }
    }

    fn pump(&mut self) {
        let mut n = 0u32;
        while !self.wire.is_empty() {
            let idx = if self.shuffle { self.rng.gen_range(0..self.wire.len()) } else { 0 };
            let (to_receiver, from, to, msg) = self.wire.remove(idx).expect("index in range");
            n += 1;
            match (to_receiver, msg) {
                (true, WireMsg::Chan(m)) => {
                    let mut out = Vec::new();
                    let _ = self.receivers[to].on_sender_message(SimTime::ZERO, from, m, &mut out);
                    self.absorb_receiver(to, out);
                }
                (false, WireMsg::Recv(m)) => {
                    let mut out = Vec::new();
                    let _ = self.senders[to].on_receiver_message(from, m, &mut out);
                    self.absorb_sender(to, out);
                }
                _ => unreachable!("wire direction matches payload kind"),
            }
            assert!(n < 1_000_000, "message storm");
        }
    }

    /// Fires every armed supervision timer once, then pumps the refetch
    /// traffic it generated.
    fn fire_timers(&mut self) {
        let due = std::mem::take(&mut self.timers);
        for (r, token) in due {
            let mut out = Vec::new();
            let _ = self.receivers[r].on_timer(token, SimTime::from_millis(500), &mut out);
            self.absorb_receiver(r, out);
        }
        self.pump();
    }

    /// The delivered slot sequence of one receiver over `1..=n`.
    fn delivered(&mut self, r: usize, sc: u64, n: u64) -> Vec<Option<Blob>> {
        (1..=n).map(|p| self.receivers[r].try_receive(sc, Position(p)).into_payload()).collect()
    }
}

/// A range payload with its first member replaced.
fn tamper(msgs: &[Blob]) -> Arc<Vec<Blob>> {
    let mut bad = msgs.to_vec();
    bad[0] = Blob::of(u64::MAX);
    Arc::new(bad)
}

fn dedup_cfg(chunk: usize) -> IrmcConfig {
    IrmcConfig::new(ChannelMode::ReliableCast { dedup: true }, 4, 1, 3, 1, 64)
        .with_cost(spider_crypto::CostModel::zero())
        .with_range(chunk, SimTime::ZERO)
}

/// The specification oracle: every receiver delivers exactly
/// `Blob::of(p)` for every submitted slot `p` in `1..=n_msgs`, and
/// announces each of those slots exactly once and nothing else.
fn check_spec(outcome: &RunOutcome, n_msgs: u64) {
    let (delivered, ready_log) = outcome;
    for (r, slots) in delivered.iter().enumerate() {
        for (i, slot) in slots.iter().enumerate() {
            let p = i as u64 + 1;
            assert_eq!(
                slot.clone(),
                Some(Blob::of(p)),
                "receiver {} slot {} must deliver the submitted content",
                r,
                p
            );
        }
    }
    for (r, log) in ready_log.iter().enumerate() {
        let mut announced: Vec<u64> = log.iter().map(|&(_, p)| p.0).collect();
        announced.sort_unstable();
        assert_eq!(
            announced,
            (1..=n_msgs).collect::<Vec<u64>>(),
            "receiver {} must announce every slot exactly once",
            r
        );
    }
}

/// Runs one scenario to completion (including up to three supervision
/// rounds, enough for any single-fault refetch) and returns each
/// receiver's delivered slot sequence plus its ready log.
fn run(cfg: IrmcConfig, seed: u64, fault: Fault, n_msgs: u64) -> RunOutcome {
    let mut net = Net::new(cfg, seed, true, fault);
    let msgs: Vec<Blob> = (1..=n_msgs).map(Blob::of).collect();
    net.send_batch_all(0, Position(1), &msgs);
    net.pump();
    for _ in 0..3 {
        if net.timers.is_empty() {
            break;
        }
        net.fire_timers();
    }
    let delivered = (0..3).map(|r| net.delivered(r, 0, n_msgs)).collect();
    (delivered, net.ready_log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under random reordering, every receiver delivers every slot's
    /// submitted content.
    #[test]
    fn dedup_delivers_submitted_content_under_reordering(
        seed in 0u64..10_000,
        n_msgs in 2u64..40,
        chunk in 2usize..9,
    ) {
        check_spec(&run(dedup_cfg(chunk), seed, Fault::None, n_msgs), n_msgs);
    }

    /// A crashed sender (its content frames are lost — including every
    /// range it carries) does not cost a single slot: the vouch quorum
    /// plus refetch recovers the submitted content.
    #[test]
    fn dedup_delivers_submitted_content_under_carrier_drop(
        seed in 0u64..10_000,
        n_msgs in 2u64..40,
        chunk in 2usize..9,
        faulty in 0usize..4,
    ) {
        let fault = Fault::DropContent(faulty);
        check_spec(&run(dedup_cfg(chunk), seed, fault, n_msgs), n_msgs);
    }

    /// A Byzantine sender shipping tampered content cannot corrupt or
    /// stall delivery: every tampered copy is rejected (signature or
    /// vouch root mismatch) and the honest content is refetched.
    #[test]
    fn dedup_delivers_submitted_content_under_byzantine_carrier(
        seed in 0u64..10_000,
        n_msgs in 2u64..40,
        chunk in 2usize..9,
        faulty in 0usize..4,
    ) {
        let fault = Fault::TamperContent(faulty);
        check_spec(&run(dedup_cfg(chunk), seed, fault, n_msgs), n_msgs);
    }

    /// Determinism: the same seed produces the identical delivery AND the
    /// identical ready-announcement schedule twice in a row — including
    /// runs that exercise the refetch fallback (dropped carrier).
    #[test]
    fn dedup_double_run_is_deterministic(
        seed in 0u64..10_000,
        n_msgs in 2u64..24,
        chunk in 2usize..9,
    ) {
        let fault = Fault::DropContent(0);
        let (d1, log1) = run(dedup_cfg(chunk), seed, fault, n_msgs);
        let (d2, log2) = run(dedup_cfg(chunk), seed, fault, n_msgs);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(log1, log2);
    }
}
