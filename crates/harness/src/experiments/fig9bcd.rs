//! Figures 9b–9d: IRMC microbenchmarks — throughput, CPU usage, and
//! LAN/WAN data transfer of IRMC-RC vs IRMC-SC for message sizes
//! 256 B … 16 KiB over a Virginia → Tokyo channel.
//!
//! Paper result: IRMC-RC reaches higher maximum throughput (sender
//! endpoints only sign, never verify certificate shares), while IRMC-SC
//! transfers far less WAN data (one certificate per receiver instead of
//! `n_s × n_r` signed copies) at the cost of LAN share traffic and extra
//! sender CPU.
//!
//! The harness floods the channel: every sender keeps each subchannel
//! window full, receivers consume and advance windows; the busy-server
//! CPU model then yields the saturation throughput directly.

use crate::topology::ec2_topology;
use spider_crypto::{CostModel, Digest, Digestible, Keyring};
use spider_irmc::{
    Action, ChannelMode, ChannelMsg, IrmcConfig, ReceiveResult, ReceiverEndpoint, ReceiverMsg,
    SenderEndpoint,
};
use spider_sim::{Actor, Context, NodeId, Simulation, Timer};
use spider_types::{Position, SimTime, WireSize};

/// Flood-test payload: identical content per position on all senders.
#[derive(Debug, Clone, PartialEq)]
struct Blob {
    pos: u64,
    size: usize,
}

impl WireSize for Blob {
    fn wire_size(&self) -> usize {
        self.size
    }
}

impl Digestible for Blob {
    fn digest(&self) -> Digest {
        Digest::builder().str("flood").u64(self.pos).u64(self.size as u64).finish()
    }
}

/// Transport frames of the benchmark channel.
#[derive(Debug, Clone)]
enum M {
    ToReceiver(ChannelMsg<Blob>),
    ToSender(ReceiverMsg),
    Peer(ChannelMsg<Blob>),
}

impl WireSize for M {
    fn wire_size(&self) -> usize {
        match self {
            M::ToReceiver(m) | M::Peer(m) => m.wire_size(),
            M::ToSender(m) => m.wire_size(),
        }
    }
}

const TAG_START: u64 = 0;
const TAG_TICK: u64 = 1;
const TAG_COLLECTOR: u64 = 2;

struct SenderHost {
    ep: SenderEndpoint<Blob>,
    msg_size: usize,
    next_pos: u64,
    receivers: Vec<NodeId>,
    peers: Vec<NodeId>,
    sc_tick: bool,
}

impl SenderHost {
    fn fill_window(&mut self, ctx: &mut Context<'_, M>) {
        let mut actions = Vec::new();
        loop {
            let w = self.ep.window(0);
            if w.is_above(Position(self.next_pos)) {
                break;
            }
            let p = self.next_pos.max(w.start().0);
            self.next_pos = p + 1;
            self.ep.send_batch(
                0,
                Position(p),
                vec![Blob { pos: p, size: self.msg_size }],
                &mut actions,
            );
        }
        self.apply(ctx, actions);
    }

    fn apply(&mut self, ctx: &mut Context<'_, M>, actions: Vec<Action<Blob>>) {
        let mut moved = false;
        for a in actions {
            match a {
                Action::ToReceiver { to, msg } => ctx.send(self.receivers[to], M::ToReceiver(msg)),
                Action::ToPeerSender { to, msg } => ctx.send(self.peers[to], M::Peer(msg)),
                Action::Charge(c, op) => ctx.charge_op("sender", op, c),
                Action::WindowMoved { .. } | Action::Unblocked { .. } => moved = true,
                _ => {}
            }
        }
        if moved {
            self.fill_window(ctx);
        }
    }
}

impl Actor<M> for SenderHost {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        // Delay the flood until every node exists.
        ctx.set_timer(SimTime::from_millis(1), TAG_START);
        if self.sc_tick {
            ctx.set_timer(SimTime::from_millis(20), TAG_TICK);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        let mut actions = Vec::new();
        match msg {
            M::ToSender(m) => {
                let Some(idx) = self.receivers.iter().position(|n| *n == from) else {
                    return;
                };
                let _ = self.ep.on_receiver_message(idx, m, &mut actions);
            }
            M::Peer(m) => {
                let Some(idx) = self.peers.iter().position(|n| *n == from) else {
                    return;
                };
                let _ = self.ep.on_peer_message(idx, m, &mut actions);
            }
            M::ToReceiver(_) => return,
        }
        self.apply(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: Timer) {
        match timer.tag {
            TAG_START => self.fill_window(ctx),
            TAG_TICK => {
                let mut actions = Vec::new();
                self.ep.tick(ctx.now(), &mut actions);
                self.apply(ctx, actions);
                ctx.set_timer(SimTime::from_millis(20), TAG_TICK);
            }
            _ => {}
        }
    }
}

struct ReceiverHost {
    ep: ReceiverEndpoint<Blob>,
    next: u64,
    delivered: u64,
    senders: Vec<NodeId>,
    /// Move the window forward after this many deliveries.
    move_every: u64,
}

impl ReceiverHost {
    fn drain(&mut self, ctx: &mut Context<'_, M>) {
        let mut actions = Vec::new();
        loop {
            match self.ep.try_receive(0, Position(self.next)) {
                ReceiveResult::Ready(_) => {
                    self.delivered += 1;
                    self.next += 1;
                    if self.delivered.is_multiple_of(self.move_every) {
                        self.ep.move_window(0, Position(self.next), &mut actions);
                    }
                }
                ReceiveResult::TooOld(start) => {
                    self.next = start.0;
                }
                ReceiveResult::Pending => break,
            }
        }
        self.apply(ctx, actions);
    }

    fn apply(&mut self, ctx: &mut Context<'_, M>, actions: Vec<Action<Blob>>) {
        for a in actions {
            match a {
                Action::ToSender { to, msg } => ctx.send(self.senders[to], M::ToSender(msg)),
                Action::Charge(c, op) => ctx.charge_op("receiver", op, c),
                Action::SetTimer { token, delay } => {
                    ctx.set_timer(delay, TAG_COLLECTOR + token);
                }
                _ => {}
            }
        }
    }
}

impl Actor<M> for ReceiverHost {
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        let M::ToReceiver(m) = msg else { return };
        let Some(idx) = self.senders.iter().position(|n| *n == from) else {
            return;
        };
        let mut actions = Vec::new();
        let _ = self.ep.on_sender_message(ctx.now(), idx, m, &mut actions);
        self.apply(ctx, actions);
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: Timer) {
        if timer.tag >= TAG_COLLECTOR {
            let mut actions = Vec::new();
            let _ = self.ep.on_timer(timer.tag - TAG_COLLECTOR, ctx.now(), &mut actions);
            self.apply(ctx, actions);
        }
    }
}

/// One measurement of the IRMC microbenchmark.
#[derive(Debug, Clone, serde::Serialize)]
pub struct IrmcRow {
    /// Channel variant.
    pub variant: String,
    /// Message size in bytes.
    pub msg_size: usize,
    /// Delivered messages per second (averaged over receivers).
    pub throughput_rps: f64,
    /// Mean CPU utilization of sender endpoints (0..1).
    pub sender_cpu: f64,
    /// Mean CPU utilization of receiver endpoints (0..1).
    pub receiver_cpu: f64,
    /// WAN bytes per second (sender group -> receiver group + control).
    pub wan_mbps: f64,
    /// LAN bytes per second within the sender group (IRMC-SC shares).
    pub lan_mbps: f64,
}

/// Scale configuration for Figures 9b–9d.
#[derive(Debug, Clone)]
pub struct Config {
    /// Message sizes to sweep (paper: 256, 1024, 4096, 16384).
    pub sizes: Vec<usize>,
    /// Measurement duration per point.
    pub duration: SimTime,
    /// Subchannel capacity (in-flight positions).
    pub capacity: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sizes: vec![256, 1024, 4096, 16384],
            duration: SimTime::from_secs(5),
            capacity: 256,
            seed: 42,
        }
    }
}

/// Runs one (mode, size) point and returns its row.
pub fn run_point(mode: ChannelMode, msg_size: usize, cfg: &Config) -> IrmcRow {
    let mut sim: Simulation<M> = Simulation::new(ec2_topology(), cfg.seed);
    let n_senders = 4;
    let n_receivers = 3;
    let icfg = IrmcConfig::new(mode, n_senders, 1, n_receivers, 1, cfg.capacity)
        .with_cost(CostModel::default());
    let ring = Keyring::new(7);

    // Reserve node ids: senders in Virginia zones, receivers in Tokyo.
    let sender_nodes: Vec<NodeId> = (0..n_senders as u32).map(NodeId).collect();
    let receiver_nodes: Vec<NodeId> =
        (n_senders as u32..(n_senders + n_receivers) as u32).map(NodeId).collect();

    for i in 0..n_senders {
        let zone = sim.topology().zone("virginia", i as u8);
        let host = SenderHost {
            ep: SenderEndpoint::new(icfg.clone(), i, ring.clone()),
            msg_size,
            next_pos: 1,
            receivers: receiver_nodes.clone(),
            peers: sender_nodes.clone(),
            sc_tick: matches!(mode, ChannelMode::SenderCast { .. }),
        };
        let id = sim.add_node(zone, host);
        debug_assert_eq!(id, sender_nodes[i]);
    }
    for (j, &expected_id) in receiver_nodes.iter().enumerate() {
        let zone = sim.topology().zone("tokyo", j as u8);
        let host = ReceiverHost {
            ep: ReceiverEndpoint::new(icfg.clone(), j, ring.clone()),
            next: 1,
            delivered: 0,
            senders: sender_nodes.clone(),
            move_every: (cfg.capacity / 4).max(1),
        };
        let id = sim.add_node(zone, host);
        debug_assert_eq!(id, expected_id);
    }

    sim.run_until(cfg.duration);
    let secs = cfg.duration.as_secs_f64();
    let delivered: u64 =
        receiver_nodes.iter().map(|n| sim.actor::<ReceiverHost>(*n).delivered).sum();
    let throughput = delivered as f64 / n_receivers as f64 / secs;

    let sender_cpu =
        sender_nodes.iter().map(|n| sim.stats().cpu(*n).utilization(cfg.duration)).sum::<f64>()
            / n_senders as f64;
    let receiver_cpu =
        receiver_nodes.iter().map(|n| sim.stats().cpu(*n).utilization(cfg.duration)).sum::<f64>()
            / n_receivers as f64;

    let wan_bytes: u64 = sender_nodes.iter().map(|n| sim.stats().net(*n).wan_sent).sum::<u64>()
        + receiver_nodes.iter().map(|n| sim.stats().net(*n).wan_sent).sum::<u64>();
    let lan_bytes: u64 = sender_nodes.iter().map(|n| sim.stats().net(*n).lan_sent).sum();

    IrmcRow {
        variant: mode.to_string(),
        msg_size,
        throughput_rps: throughput,
        sender_cpu,
        receiver_cpu,
        wan_mbps: wan_bytes as f64 / secs / 1e6,
        lan_mbps: lan_bytes as f64 / secs / 1e6,
    }
}

/// Runs the full sweep: both modes × all sizes.
pub fn run(cfg: &Config) -> Vec<IrmcRow> {
    let mut rows = Vec::new();
    for mode in
        [ChannelMode::ReliableCast { dedup: true }, ChannelMode::SenderCast { overlap: true }]
    {
        for &size in &cfg.sizes {
            rows.push(run_point(mode, size, cfg));
        }
    }
    rows
}

/// Renders Figures 9b (throughput), 9c (CPU), and 9d (network) as text.
pub fn render(rows: &[IrmcRow]) -> String {
    let mut out =
        String::from("Figures 9b-9d — IRMC variants over a Virginia->Tokyo channel (flooded)\n");
    out.push_str(&format!(
        "{:<9} {:>7} {:>12} {:>11} {:>13} {:>10} {:>10}\n",
        "variant",
        "size[B]",
        "thruput[r/s]",
        "sender-cpu",
        "receiver-cpu",
        "WAN[MB/s]",
        "LAN[MB/s]"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:>7} {:>12.0} {:>10.0}% {:>12.0}% {:>10.2} {:>10.2}\n",
            r.variant,
            r.msg_size,
            r.throughput_rps,
            r.sender_cpu * 100.0,
            r.receiver_cpu * 100.0,
            r.wan_mbps,
            r.lan_mbps
        ));
    }
    out
}
