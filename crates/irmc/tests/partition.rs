//! Partition-and-heal properties of the IRMC-RC channel: a network cut
//! that swallows in-flight casts mid-range must never wedge the channel.
//! After the heal, the senders' stalled-window re-cast (plus the range
//! refetch machinery) delivers exactly the slot sequence an unfaulted
//! run delivers — and the re-cast terminates once receivers re-announce
//! their windows, so the channel quiesces again.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spider_crypto::{Digest, Digestible, Keyring};
use spider_irmc::{
    Action, ChannelMode, ChannelMsg, IrmcConfig, ReceiverEndpoint, SenderEndpoint, RC_RECAST_TICKS,
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

/// Which traffic the partition eats (loss, not delay: frames crossing
/// the cut are gone for good, exactly what a healed WAN cut leaves
/// behind).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cut {
    None,
    /// Every frame between the sender and receiver groups is lost, in
    /// both directions (total blackout of the channel).
    Total,
    /// Only frames *from* this sender are lost — severing a range's
    /// primary carrier from the receivers while its vouchers get
    /// through.
    FromSender(usize),
}

struct Net {
    senders: Vec<SenderEndpoint<Blob>>,
    receivers: Vec<ReceiverEndpoint<Blob>>,
    wire: VecDeque<(bool, usize, usize, WireMsg)>,
    rng: SmallRng,
    cut: Cut,
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
    fn new(cfg: IrmcConfig, seed: u64) -> Self {
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
            cut: Cut::None,
            timers: Vec::new(),
            ready_log: vec![Vec::new(); cfg.n_receivers],
        }
    }

    fn absorb_sender(&mut self, from: usize, actions: Vec<Action<Blob>>) {
        for a in actions {
            if let Action::ToReceiver { to, msg } = a {
                match self.cut {
                    Cut::Total => continue,
                    Cut::FromSender(f) if f == from => continue,
                    _ => {}
                }
                self.wire.push_back((true, from, to, WireMsg::Chan(msg)));
            }
        }
    }

    fn absorb_receiver(&mut self, from: usize, actions: Vec<Action<Blob>>) {
        for a in actions {
            match a {
                Action::ToSender { to, msg } => {
                    if self.cut == Cut::Total {
                        continue;
                    }
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
            let idx = self.rng.gen_range(0..self.wire.len());
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

    /// Runs `rounds` of the actors' periodic sender tick, pumping after
    /// each round — enough rounds cross the stalled-window threshold and
    /// trigger the re-cast.
    fn tick_senders(&mut self, rounds: usize) {
        for _ in 0..rounds {
            for i in 0..self.senders.len() {
                let mut out = Vec::new();
                self.senders[i].tick(SimTime::ZERO, &mut out);
                self.absorb_sender(i, out);
            }
            self.pump();
        }
    }

    /// The delivered slot sequence of one receiver over `1..=n`.
    fn delivered(&mut self, r: usize, sc: u64, n: u64) -> Vec<Option<Blob>> {
        (1..=n).map(|p| self.receivers[r].try_receive(sc, Position(p)).into_payload()).collect()
    }
}

/// An IRMC-RC channel cutting ranges of at most `chunk` slots; `chunk`
/// 1 keeps every slot on the per-slot `Send` path request channels use.
fn rc_cfg(chunk: usize) -> IrmcConfig {
    IrmcConfig::new(ChannelMode::ReliableCast { dedup: true }, 4, 1, 3, 1, 64)
        .with_cost(spider_crypto::CostModel::zero())
        .with_range(chunk, SimTime::ZERO)
}

/// Runs one partition-and-heal scenario: the first half of the stream
/// goes through cleanly, the cut eats the second half mid-range, the
/// heal lets the stalled-window re-cast (plus up to three supervision
/// rounds) repair the damage. Returns each receiver's delivered slot
/// sequence plus its ready log.
fn run_partition(cfg: IrmcConfig, seed: u64, cut: Cut, n_msgs: u64) -> RunOutcome {
    let mut net = Net::new(cfg, seed);
    let msgs: Vec<Blob> = (1..=n_msgs).map(Blob::of).collect();
    let half = (n_msgs / 2).max(1) as usize;
    net.send_batch_all(0, Position(1), &msgs[..half]);
    net.pump();
    net.fire_timers();
    // The partition forms; everything sent across it from now on is lost.
    net.cut = cut;
    net.send_batch_all(0, Position(half as u64 + 1), &msgs[half..]);
    net.pump();
    net.fire_timers();
    // Heal, then let the periodic tick cross the recast threshold.
    net.cut = Cut::None;
    net.tick_senders(RC_RECAST_TICKS as usize + 1);
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

    /// A total blackout mid-range wedges nothing: after the heal the
    /// re-cast delivers the byte-identical slot sequence of an unfaulted
    /// run, for ranges and for per-slot sends (`chunk` 1).
    #[test]
    fn total_blackout_heals_to_unfaulted_sequence(
        seed in 0u64..10_000,
        n_msgs in 2u64..40,
        chunk in 1usize..9,
    ) {
        let (clean, _) = run_partition(rc_cfg(chunk), seed, Cut::None, n_msgs);
        let (healed, _) = run_partition(rc_cfg(chunk), seed, Cut::Total, n_msgs);
        prop_assert_eq!(&healed, &clean);
        for (r, slots) in healed.iter().enumerate() {
            for (i, slot) in slots.iter().enumerate() {
                prop_assert_eq!(
                    slot.clone(),
                    Some(Blob::of(i as u64 + 1)),
                    "receiver {} slot {} must deliver after the heal", r, i + 1
                );
            }
        }
    }

    /// Severing a range's primary carrier from the receivers while the
    /// vouchers still get through costs nothing even *without* a heal:
    /// the vouch quorum arms the supervision timer and the content is
    /// refetched from a voucher's retained copy.
    #[test]
    fn dedup_carrier_severed_from_vouchers_still_delivers(
        seed in 0u64..10_000,
        n_msgs in 2u64..40,
        chunk in 1usize..9,
        severed in 0usize..4,
    ) {
        let mut net = Net::new(rc_cfg(chunk), seed);
        let msgs: Vec<Blob> = (1..=n_msgs).map(Blob::of).collect();
        net.cut = Cut::FromSender(severed);
        net.send_batch_all(0, Position(1), &msgs);
        net.pump();
        for _ in 0..3 {
            if net.timers.is_empty() {
                break;
            }
            net.fire_timers();
        }
        for r in 0..3 {
            let slots = net.delivered(r, 0, n_msgs);
            for (i, slot) in slots.iter().enumerate() {
                prop_assert_eq!(
                    slot.clone(),
                    Some(Blob::of(i as u64 + 1)),
                    "receiver {} slot {} must deliver around the severed sender", r, i + 1
                );
            }
        }
    }

    /// Convergence: when the receivers delivered everything and moved
    /// their windows but the partition ate the `Move`s, the re-cast does
    /// not loop forever — the below-window duplicates make the receivers
    /// re-announce their window starts, the senders garbage-collect, and
    /// the channel quiesces.
    #[test]
    fn recast_converges_after_receivers_moved_on(
        seed in 0u64..10_000,
        n_msgs in 2u64..40,
        chunk in 1usize..9,
    ) {
        let mut net = Net::new(rc_cfg(chunk), seed);
        let msgs: Vec<Blob> = (1..=n_msgs).map(Blob::of).collect();
        net.send_batch_all(0, Position(1), &msgs);
        net.pump();
        net.fire_timers();
        // Receivers consume and move their windows — but the cut eats
        // every `Move`, so the senders still believe nothing happened.
        net.cut = Cut::Total;
        for r in 0..3 {
            let mut out = Vec::new();
            net.receivers[r].move_window(0, Position(n_msgs + 1), &mut out);
            net.absorb_receiver(r, out);
        }
        net.pump();
        prop_assert!(
            net.senders.iter().all(|s| s.has_unacked()),
            "with the Moves lost, every sender still holds retained content"
        );
        net.cut = Cut::None;
        net.tick_senders(RC_RECAST_TICKS as usize + 1);
        prop_assert!(
            net.senders.iter().all(|s| !s.has_unacked()),
            "the re-announced windows let the senders garbage-collect"
        );
    }

    /// Determinism: the same seed replays the same partition-and-heal
    /// scenario to the identical delivery AND ready-announcement
    /// schedule — the disaster suite's replayability rests on this.
    #[test]
    fn partition_heal_double_run_is_deterministic(
        seed in 0u64..10_000,
        n_msgs in 2u64..24,
        chunk in 1usize..9,
    ) {
        let (d1, log1) = run_partition(rc_cfg(chunk), seed, Cut::Total, n_msgs);
        let (d2, log2) = run_partition(rc_cfg(chunk), seed, Cut::Total, n_msgs);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(log1, log2);
    }
}
