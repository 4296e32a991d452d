//! Host-clock calibration of the sans-IO layers: each public call is
//! timed from outside with workload-shaped inputs, after a warm-up, in
//! batches of at least a minimum duration, and reported as the median
//! batch with its spread.

use crate::stats::{iqr_share, median};
use spider_app::{KvOp, KvStore};
use spider_consensus::{Input, Msg, Output, Pbft, PbftConfig};
use spider_crypto::hmac::hmac_sha256;
use spider_crypto::sha256::Sha256;
use spider_crypto::{merkle_root, CostModel, Digest, Digestible, KeyId, Keyring};
use spider_irmc::{Action, ChannelMode, IrmcConfig, ReceiverEndpoint, SenderEndpoint};
use spider_types::{Position, SimTime, WireSize};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(30);
const MIN_BATCH: Duration = Duration::from_millis(20);
const BATCHES: usize = 15;

/// Median and spread of one calibrated call.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median host nanoseconds per unit of work.
    pub ns: f64,
    /// Interquartile range of the batches as a share of the median.
    pub spread: f64,
}

/// Times `f`, which does `units` units of work per call, and reports
/// nanoseconds per unit.
fn time(units: f64, f: impl FnMut()) -> Timing {
    let mut batches = batches(units, BATCHES, f);
    let spread = iqr_share(&mut batches);
    Timing { ns: median(&mut batches), spread }
}

/// Warms `f` up, then times `count` batches of calls, each lasting at
/// least [`MIN_BATCH`]; returns nanoseconds per unit of each batch.
pub fn batches(units: f64, count: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < WARMUP || calls == 0 {
        f();
        calls += 1;
    }
    // Calls per batch so one batch lasts at least MIN_BATCH.
    let per_call = start.elapsed().as_secs_f64() / calls as f64;
    let n = ((MIN_BATCH.as_secs_f64() / per_call).ceil() as u64).max(1);
    (0..count)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_nanos() as f64 / (n as f64 * units)
        })
        .collect()
}

/// Nominal host time of one [`reference`] call in nanoseconds: about its
/// median on a shared 2-vCPU x86-64 Linux VM in its faster periods.
pub const REFERENCE_NS: f64 = 150_000.0;

/// Fixed work owned by the benchmark and built from the standard library
/// alone, so no change to the program can make it faster or slower: it
/// measures how fast the host runs at the moment. Like the simulator it
/// allocates, walks an ordered map and moves small buffers.
pub fn reference() {
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..1000u32 {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, vec![i as u8; 64 + (x % 128) as usize]);
    }
    let total: usize = map.values().map(Vec::len).sum();
    black_box(total);
}

/// A 200-byte commit-channel slot with a real digest.
#[derive(Debug, Clone, PartialEq)]
struct Slot(Vec<u8>);

impl WireSize for Slot {
    fn wire_size(&self) -> usize {
        self.0.len()
    }
}

impl Digestible for Slot {
    fn digest(&self) -> Digest {
        Digest::of_bytes(&self.0)
    }
}

const RANGE: u64 = 32;

/// A commit-channel shaped IRMC: four agreement senders, three
/// execution receivers, default RC-dedup mode at range 32.
struct Irmc {
    senders: Vec<SenderEndpoint<Slot>>,
    receivers: Vec<ReceiverEndpoint<Slot>>,
    next: u64,
    sender_ns: u64,
    receiver_ns: u64,
}

impl Irmc {
    fn new() -> Irmc {
        let cfg = IrmcConfig::new(ChannelMode::ReliableCast { dedup: true }, 4, 1, 3, 1, 4 * RANGE)
            .with_range(RANGE as usize, SimTime::ZERO);
        let ring = Keyring::new(1);
        Irmc {
            senders: (0..4).map(|i| SenderEndpoint::new(cfg.clone(), i, ring.clone())).collect(),
            receivers: (0..3)
                .map(|i| ReceiverEndpoint::new(cfg.clone(), i, ring.clone()))
                .collect(),
            next: 1,
            sender_ns: 0,
            receiver_ns: 0,
        }
    }

    /// Certifies, delivers and acknowledges one range of 32 slots.
    fn range(&mut self) {
        let first = self.next;
        let slots: Vec<Slot> = (first..first + RANGE)
            .map(|p| {
                let mut v = vec![b'x'; 200];
                v[..8].copy_from_slice(&p.to_le_bytes());
                Slot(v)
            })
            .collect();
        let mut to_receivers = Vec::new();
        let t = Instant::now();
        for (i, s) in self.senders.iter_mut().enumerate() {
            let mut out = Vec::new();
            s.send_batch(0, Position(first), slots.clone(), &mut out);
            to_receivers.extend(out.into_iter().filter_map(|a| match a {
                Action::ToReceiver { to, msg } => Some((i, to, msg)),
                _ => None,
            }));
        }
        self.sender_ns += t.elapsed().as_nanos() as u64;

        let mut to_senders = Vec::new();
        let t = Instant::now();
        for (from, to, msg) in to_receivers {
            let mut out = Vec::new();
            let _ = self.receivers[to].on_sender_message(SimTime::ZERO, from, msg, &mut out);
        }
        for (j, r) in self.receivers.iter_mut().enumerate() {
            for p in first..first + RANGE {
                black_box(r.try_receive(0, Position(p)).into_payload())
                    .expect("range delivered in order");
            }
            let mut out = Vec::new();
            r.move_window(0, Position(first + RANGE), &mut out);
            to_senders.extend(out.into_iter().filter_map(|a| match a {
                Action::ToSender { to, msg } => Some((j, to, msg)),
                _ => None,
            }));
        }
        self.receiver_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        for (from, to, msg) in to_senders {
            let mut out = Vec::new();
            let _ = self.senders[to].on_receiver_message(from, msg, &mut out);
        }
        self.sender_ns += t.elapsed().as_nanos() as u64;
        self.next += RANGE;
    }
}

/// Orders `ops` 200-byte payloads in batches of eight through a
/// four-replica in-memory PBFT group; returns the count replica 0
/// delivered.
fn pbft_loopback(ops: u64) -> usize {
    let cfg = PbftConfig::new(1).with_max_batch(8);
    let mut replicas: Vec<Pbft<Slot>> = (0..4).map(|i| Pbft::new(cfg.clone(), i)).collect();
    let mut inbox: VecDeque<(usize, usize, Msg<Slot>)> = VecDeque::new();
    let mut delivered = 0;
    for chunk in 0..ops.div_ceil(8) {
        for k in chunk * 8..(chunk * 8 + 8).min(ops) {
            let mut v = vec![b'x'; 200];
            v[..8].copy_from_slice(&k.to_le_bytes());
            for (i, replica) in replicas.iter_mut().enumerate() {
                let mut out = Vec::new();
                replica.handle(SimTime::ZERO, Input::Order(Slot(v.clone())), &mut out);
                inbox.extend(out.into_iter().filter_map(|o| match o {
                    Output::Send { to, msg } => Some((i, to, msg)),
                    _ => None,
                }));
            }
        }
        while let Some((from, to, msg)) = inbox.pop_front() {
            let mut out = Vec::new();
            replicas[to].handle(SimTime::ZERO, Input::Message { from, msg }, &mut out);
            for o in out {
                match o {
                    Output::Send { to: t, msg } => inbox.push_back((to, t, msg)),
                    Output::Deliver { batch, .. } if to == 0 => delivered += batch.len(),
                    _ => {}
                }
            }
        }
    }
    delivered
}

/// One calibrated call, its model charge (if the model charges one) and
/// whether that charge is modelled rather than measured work.
pub struct Row {
    /// Metric name of the host time.
    pub name: &'static str,
    /// Unit of the host time.
    pub unit: &'static str,
    /// The measurement.
    pub timing: Timing,
    /// `(ratio metric, model ns, modelled)`.
    pub model: Option<(&'static str, f64, bool)>,
}

/// `CostModel` charges for work no calibrated call does: signature
/// verification and threshold signatures are fixed charges, labelled
/// modelled.
pub fn modelled() -> Vec<(&'static str, SimTime)> {
    let cost = CostModel::default();
    vec![
        ("rsa_verify", cost.rsa_verify()),
        ("threshold_share", cost.threshold_share()),
        ("threshold_combine", cost.threshold_combine()),
        ("threshold_verify", cost.threshold_verify()),
    ]
}

/// Calibrates every sans-IO layer call.
pub fn run() -> Result<Vec<Row>, String> {
    let cost = CostModel::default();
    let ns = |t: SimTime| t.as_nanos() as f64;
    let mut rows = Vec::new();

    let block = vec![0xabu8; 16 * 1024];
    let sha = time(block.len() as f64, || {
        black_box(Sha256::digest(black_box(&block)));
    });
    rows.push(Row {
        name: "crypto.sha256_ns_per_byte",
        unit: "ns",
        timing: sha,
        model: Some(("crypto.sha256_model_ratio", cost.hash_per_byte_ns as f64, false)),
    });

    let request = vec![0x5au8; 200];
    let hmac = time(1.0, || {
        black_box(hmac_sha256(b"client-key", black_box(&request)));
    });
    rows.push(Row {
        name: "crypto.hmac_ns",
        unit: "ns",
        timing: hmac,
        model: Some(("crypto.hmac_model_ratio", ns(cost.hmac(request.len())), false)),
    });

    let leaves: Vec<Digest> = (0..32u64).map(|i| Digest::of_bytes(&i.to_le_bytes())).collect();
    let merkle = time(1.0, || {
        black_box(merkle_root(black_box(&leaves)));
    });
    rows.push(Row {
        name: "crypto.merkle32_ns",
        unit: "ns",
        timing: merkle,
        model: Some(("crypto.merkle32_model_ratio", ns(cost.merkle(32)), false)),
    });

    let ring = Keyring::new(1);
    let d = Digest::of_bytes(b"range root");
    let sign = time(1.0, || {
        black_box(ring.sign(KeyId(1), black_box(&d)));
    });
    // The code signs with a keyed-hash stand-in; the model charges an
    // RSA-1024 signature that never runs, so the charge is modelled.
    rows.push(Row {
        name: "crypto.sign_ns",
        unit: "ns",
        timing: sign,
        model: Some(("crypto.sign_model_ratio", ns(cost.rsa_sign()), true)),
    });

    let mut irmc = Irmc::new();
    for _ in 0..8 {
        irmc.range();
    }
    let (mut sends, mut receives) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + MIN_BATCH * BATCHES as u32 * 2;
    while Instant::now() < deadline || sends.len() < BATCHES {
        irmc.sender_ns = 0;
        irmc.receiver_ns = 0;
        let t = Instant::now();
        let mut n = 0u64;
        while t.elapsed() < MIN_BATCH {
            irmc.range();
            n += 1;
        }
        sends.push(irmc.sender_ns as f64 / (n * RANGE * 4) as f64);
        receives.push(irmc.receiver_ns as f64 / (n * RANGE * 3) as f64);
    }
    for (name, mut v) in [("irmc.send_ns_per_slot", sends), ("irmc.receive_ns_per_slot", receives)]
    {
        let spread = iqr_share(&mut v);
        rows.push(Row {
            name,
            unit: "ns",
            timing: Timing { ns: median(&mut v), spread },
            model: None,
        });
    }

    const PBFT_OPS: u64 = 64;
    if pbft_loopback(PBFT_OPS) != PBFT_OPS as usize {
        return Err("PBFT loopback did not deliver every payload".into());
    }
    let pbft = time(PBFT_OPS as f64, || {
        black_box(pbft_loopback(PBFT_OPS));
    });
    rows.push(Row { name: "consensus.ns_per_op", unit: "ns", timing: pbft, model: None });

    // A store the size of a run's working set, overwritten in place.
    const KEYS: u64 = 8192;
    let keys: Vec<Vec<u8>> =
        (0..KEYS).map(|i| format!("c{:04}/{i:08}", i % 97).into_bytes()).collect();
    let puts: Vec<_> = keys.iter().map(|k| KvOp::sized_put(k, 200, b'v').encode()).collect();
    let gets: Vec<_> = keys.iter().map(|k| KvOp::get(k).encode()).collect();
    let mut store = KvStore::new();
    for p in &puts {
        spider::Application::execute(&mut store, p);
    }
    let mut i = 0usize;
    let put = time(1.0, || {
        i = (i + 1) % puts.len();
        black_box(spider::Application::execute(&mut store, black_box(&puts[i])));
    });
    let get = time(1.0, || {
        i = (i + 1) % gets.len();
        black_box(spider::Application::execute_read(&store, black_box(&gets[i])));
    });
    rows.push(Row { name: "app.kv_put_ns", unit: "ns", timing: put, model: None });
    rows.push(Row { name: "app.kv_get_ns", unit: "ns", timing: get, model: None });
    Ok(rows)
}
