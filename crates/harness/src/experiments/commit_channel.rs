//! Commit-channel microbenchmark: multi-slot range certification vs the
//! per-slot path, on the commit-channel shape of the fig9bcd
//! scenario (4 agreement-side senders, `fa = 1` → 3 execution-side
//! receivers, `fe = 1`, Virginia → Tokyo).
//!
//! Two modes:
//!
//! * **Flood** ([`run_flood`]): every sender keeps the subchannel window
//!   full with `send_batch` ranges of a given size; the busy-server CPU
//!   model yields the saturation throughput in **slots/s** directly.
//!   Range size 1 is the per-slot baseline (one RSA signature per slot on
//!   each sender — the cost PR 2 identified as the high-load plateau).
//! * **Paced** ([`run_paced`]): senders submit one range per interval
//!   well below saturation and receivers record submit→deliver latency
//!   per slot. Used to compare IRMC-SC **overlapped** shipping (§A.9:
//!   content ships before shares arrive, certificate follows
//!   shares-only) against ship-after-bundle.

use crate::topology::ec2_topology;
use spider_crypto::{CostModel, Digest, Digestible, Keyring};
use spider_irmc::{
    Action, ChannelMode, ChannelMsg, IrmcConfig, ReceiveResult, ReceiverEndpoint, ReceiverMsg,
    SenderEndpoint,
};
use spider_sim::{Actor, Context, NodeId, ObsConfig, ObsReport, Simulation, Timer, PHASE_REQUEST};
use spider_types::{Position, SimTime, WireSize};

/// Traced runs record full request spans for every `SAMPLE_STRIDE`-th slot
/// position. Flooding certifies hundreds of thousands of slots per run;
/// sampling keeps the recorder rings representative without letting trace
/// bookkeeping dominate. The stride is prime so it never beats against the
/// power-of-two range sizes the sweep uses.
const SAMPLE_STRIDE: u64 = 97;

/// Whether a slot position is one of the traced samples.
fn sampled(pos: u64) -> bool {
    pos.is_multiple_of(SAMPLE_STRIDE)
}

/// The IRMC-RC commit mode (digest-only range fan-in).
const RC: ChannelMode = ChannelMode::ReliableCast { dedup: true };

/// Flood/paced payload: identical content per position on all senders.
#[derive(Debug, Clone, PartialEq)]
struct Blob {
    pos: u64,
    size: usize,
}

impl WireSize for Blob {
    fn wire_size(&self) -> usize {
        self.size
    }

    fn trace_kind(&self) -> &'static str {
        "commit-slot"
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        // Positions start at 1, so sampled ids are always nonzero (the
        // recorder reserves req 0 for "untracked").
        if sampled(self.pos) {
            visit(self.pos);
        }
    }
}

impl Digestible for Blob {
    fn digest(&self) -> Digest {
        Digest::builder().str("commit").u64(self.pos).u64(self.size as u64).finish()
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

    fn trace_kind(&self) -> &'static str {
        match self {
            M::ToReceiver(m) | M::Peer(m) => m.trace_kind(),
            M::ToSender(m) => m.trace_kind(),
        }
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        match self {
            M::ToReceiver(m) | M::Peer(m) => m.trace_reqs(visit),
            M::ToSender(_) => {}
        }
    }
}

const TAG_START: u64 = 0;
const TAG_TICK: u64 = 1;
const TAG_SUBMIT: u64 = 2;
const TAG_NEXT: u64 = 3;
const TAG_COLLECTOR: u64 = 100;

struct SenderHost {
    ep: SenderEndpoint<Blob>,
    msg_size: usize,
    range: usize,
    next_pos: u64,
    receivers: Vec<NodeId>,
    peers: Vec<NodeId>,
    sc_tick: bool,
    /// Paced mode: submit one range per interval instead of flooding.
    pace: Option<SimTime>,
    /// Paced mode: stop submitting after this time (drain tail cleanly).
    stop_at: SimTime,
    /// Paced mode: actual submission time per range (first position, at).
    submits: Vec<(u64, SimTime)>,
}

impl SenderHost {
    fn chunk(&mut self, first: u64) -> Vec<Blob> {
        (first..first + self.range as u64).map(|pos| Blob { pos, size: self.msg_size }).collect()
    }

    /// Flood mode: submits ONE range per handler invocation and re-arms a
    /// near-zero timer, so the busy-server CPU model paces submissions at
    /// the node's actual processing rate (a single handler that fills the
    /// whole window would hold every send back until all its CPU work is
    /// charged). The 1 ns re-arm delay lets queued incoming messages win
    /// the tie at the busy boundary — otherwise the pump would starve the
    /// IRMC-SC share exchange and nothing would ever certify.
    fn pump_one(&mut self, ctx: &mut Context<'_, M>) {
        let w = self.ep.window(0);
        let last = self.next_pos + self.range as u64 - 1;
        if w.is_above(Position(last)) {
            return; // The full next range does not fit; resume on WindowMoved.
        }
        let first = self.next_pos.max(w.start().0);
        self.next_pos = first + self.range as u64;
        let msgs = self.chunk(first);
        self.trace_submit(ctx, &msgs);
        let mut actions = Vec::new();
        self.ep.send_batch(0, Position(first), msgs, &mut actions);
        self.apply(ctx, actions);
        ctx.set_timer(SimTime::from_nanos(1), TAG_NEXT);
    }

    fn submit_paced(&mut self, ctx: &mut Context<'_, M>) {
        let mut actions = Vec::new();
        let first = self.next_pos;
        self.next_pos = first + self.range as u64;
        self.submits.push((first, ctx.now()));
        let msgs = self.chunk(first);
        self.trace_submit(ctx, &msgs);
        self.ep.send_batch(0, Position(first), msgs, &mut actions);
        self.apply(ctx, actions);
    }

    /// Opens a request span per sampled slot at submission. All senders
    /// submit every position, so the recorder keeps the earliest enter as
    /// the request's start (later enters fold into the same open span).
    fn trace_submit(&mut self, ctx: &mut Context<'_, M>, msgs: &[Blob]) {
        if !ctx.obs_enabled() {
            return;
        }
        for b in msgs {
            if sampled(b.pos) {
                ctx.span_enter(b.pos, PHASE_REQUEST);
            }
        }
    }

    fn apply(&mut self, ctx: &mut Context<'_, M>, actions: Vec<Action<Blob>>) {
        let mut moved = false;
        for a in actions {
            match a {
                Action::ToReceiver { to, msg } => {
                    let to = self.receivers[to];
                    ctx.edge_for(to, &msg);
                    ctx.send(to, M::ToReceiver(msg));
                }
                Action::ToPeerSender { to, msg } => {
                    let to = self.peers[to];
                    ctx.edge_for(to, &msg);
                    ctx.send(to, M::Peer(msg));
                }
                Action::Charge(c, op) => ctx.charge_op("sender", op, c),
                Action::WindowMoved { .. } | Action::Unblocked { .. } => {
                    moved = true;
                    ctx.health_mark("bench-commit", 0);
                }
                _ => {}
            }
        }
        if ctx.obs_enabled() {
            ctx.health_pending("bench-commit", 0, self.ep.unacked_slots());
        }
        if moved && self.pace.is_none() {
            self.pump_one(ctx);
        }
    }
}

impl Actor<M> for SenderHost {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        // Delay the start until every node exists.
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
            TAG_START => match self.pace {
                None => self.pump_one(ctx),
                Some(interval) => {
                    self.submit_paced(ctx);
                    ctx.set_timer(interval, TAG_SUBMIT);
                }
            },
            TAG_NEXT => self.pump_one(ctx),
            TAG_SUBMIT if ctx.now() < self.stop_at => {
                self.submit_paced(ctx);
                let interval = self.pace.expect("paced");
                ctx.set_timer(interval, TAG_SUBMIT);
            }
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
    /// Paced mode: (position, delivery time) per delivered slot.
    deliveries: Vec<(u64, SimTime)>,
    record: bool,
    senders: Vec<NodeId>,
    /// Move the window forward after this many deliveries.
    move_every: u64,
}

impl ReceiverHost {
    fn drain(&mut self, ctx: &mut Context<'_, M>) {
        let mut actions = Vec::new();
        let before = self.delivered;
        loop {
            match self.ep.try_receive(0, Position(self.next)) {
                ReceiveResult::Ready(_) => {
                    self.delivered += 1;
                    if self.record {
                        self.deliveries.push((self.next, ctx.now()));
                    }
                    if sampled(self.next) && ctx.obs_enabled() {
                        ctx.span_exit(self.next, PHASE_REQUEST);
                    }
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
        // Receiver-side progress mark, mirroring the core stack: the
        // watchdog follows delivery cadence, not window-move cadence.
        if self.delivered > before && ctx.obs_enabled() {
            ctx.health_mark("bench-commit", 0);
        }
        self.apply(ctx, actions);
    }

    fn apply(&mut self, ctx: &mut Context<'_, M>, actions: Vec<Action<Blob>>) {
        for a in actions {
            match a {
                Action::ToSender { to, msg } => {
                    let to = self.senders[to];
                    ctx.edge_for(to, &msg);
                    ctx.send(to, M::ToSender(msg));
                }
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
            // A `CarrierTimeout` is informational: the refetch frames it
            // triggered are already in `actions`.
            let _ = self.ep.on_timer(timer.tag - TAG_COLLECTOR, ctx.now(), &mut actions);
            self.apply(ctx, actions);
        }
    }
}

/// One measurement of the commit-channel benchmark.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CommitRow {
    /// Channel variant.
    pub variant: String,
    /// Slots per range certificate (1 = per-slot messages).
    pub range: usize,
    /// Payload size per slot in bytes.
    pub msg_size: usize,
    /// Delivered slots per second (averaged over receivers).
    pub slots_per_sec: f64,
    /// Mean CPU utilization of sender endpoints (0..1).
    pub sender_cpu: f64,
    /// Mean CPU utilization of receiver endpoints (0..1).
    pub receiver_cpu: f64,
    /// Paced mode: p50 submit→deliver commit latency (ms); NaN for flood.
    pub commit_p50_ms: f64,
    /// Paced mode: p99 submit→deliver commit latency (ms); NaN for flood.
    pub commit_p99_ms: f64,
}

/// Scale configuration of the commit-channel benchmark.
#[derive(Debug, Clone)]
pub struct Config {
    /// Payload size per slot (commit channels carry small `Execute`s).
    pub msg_size: usize,
    /// Measurement duration per point.
    pub duration: SimTime,
    /// Subchannel capacity (in-flight positions).
    pub capacity: u64,
    /// Paced mode: interval between range submissions.
    pub pace: SimTime,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            msg_size: 512,
            duration: SimTime::from_secs(3),
            // Large enough that the CPU cost model — not flow control —
            // is the binding constraint at saturation (the window admits
            // ~200k slots/s at this capacity over a 160 ms RTT; the
            // fastest mode, digest-only IRMC-RC, saturates near
            // 138k).
            capacity: 32768,
            pace: SimTime::from_millis(50),
            seed: 42,
        }
    }
}

struct RunOutcome {
    slots_per_sec: f64,
    sender_cpu: f64,
    receiver_cpu: f64,
    commit_p50_ms: f64,
    commit_p99_ms: f64,
    obs: Option<ObsReport>,
}

fn run_inner(
    mode: ChannelMode,
    range: usize,
    paced: bool,
    traced: bool,
    cfg: &Config,
) -> RunOutcome {
    let mut sim: Simulation<M> = Simulation::new(ec2_topology(), cfg.seed);
    if traced {
        sim.enable_obs(ObsConfig::default());
    }
    let n_senders = 4; // Agreement group, fa = 1.
    let n_receivers = 3; // Execution group, fe = 1.
    let icfg = IrmcConfig::new(mode, n_senders, 1, n_receivers, 1, cfg.capacity)
        .with_cost(CostModel::default())
        .with_range(range.max(1), SimTime::ZERO);
    let ring = Keyring::new(7);

    let sender_nodes: Vec<NodeId> = (0..n_senders as u32).map(NodeId).collect();
    let receiver_nodes: Vec<NodeId> =
        (n_senders as u32..(n_senders + n_receivers) as u32).map(NodeId).collect();

    for i in 0..n_senders {
        let zone = sim.topology().zone("virginia", i as u8);
        let host = SenderHost {
            ep: SenderEndpoint::new(icfg.clone(), i, ring.clone()),
            msg_size: cfg.msg_size,
            range: range.max(1),
            next_pos: 1,
            receivers: receiver_nodes.clone(),
            peers: sender_nodes.clone(),
            sc_tick: matches!(mode, ChannelMode::SenderCast { .. }),
            pace: paced.then_some(cfg.pace),
            stop_at: cfg.duration - cfg.pace,
            submits: Vec::new(),
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
            deliveries: Vec::new(),
            record: paced,
            senders: sender_nodes.clone(),
            move_every: (cfg.capacity / 8).max(1),
        };
        let id = sim.add_node(zone, host);
        debug_assert_eq!(id, expected_id);
    }

    sim.run_until(cfg.duration);
    let secs = cfg.duration.as_secs_f64();
    let delivered: u64 =
        receiver_nodes.iter().map(|n| sim.actor::<ReceiverHost>(*n).delivered).sum();
    let slots_per_sec = delivered as f64 / n_receivers as f64 / secs;

    let sender_cpu =
        sender_nodes.iter().map(|n| sim.stats().cpu(*n).utilization(cfg.duration)).sum::<f64>()
            / n_senders as f64;
    let receiver_cpu =
        receiver_nodes.iter().map(|n| sim.stats().cpu(*n).utilization(cfg.duration)).sum::<f64>()
            / n_receivers as f64;

    // Paced mode: latency of a slot is measured from the instant its
    // receiver's collector actually submitted the range (each sender
    // records its own submit times — timer schedules slip by the
    // handler's charged CPU, so a fixed schedule would overstate it).
    let (commit_p50_ms, commit_p99_ms) = if paced {
        let mut lat_ms: Vec<f64> = Vec::new();
        for (j, n) in receiver_nodes.iter().enumerate() {
            let collector = j % n_senders;
            let submits = &sim.actor::<SenderHost>(sender_nodes[collector]).submits;
            for &(pos, at) in &sim.actor::<ReceiverHost>(*n).deliveries {
                let first = (pos - 1) / range.max(1) as u64 * range.max(1) as u64 + 1;
                if let Some(&(_, submitted)) = submits.iter().find(|(f, _)| *f == first) {
                    lat_ms.push((at - submitted).as_secs_f64() * 1e3);
                }
            }
        }
        lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        if lat_ms.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (crate::stats::percentile(&lat_ms, 50.0), crate::stats::percentile(&lat_ms, 99.0))
        }
    } else {
        (f64::NAN, f64::NAN)
    };

    let obs = traced.then(|| sim.obs().report());
    RunOutcome { slots_per_sec, sender_cpu, receiver_cpu, commit_p50_ms, commit_p99_ms, obs }
}

/// Floods the channel with ranges of `range` slots and returns the
/// saturation throughput point. `mode` selects the fan-in.
pub fn run_flood(mode: ChannelMode, range: usize, cfg: &Config) -> CommitRow {
    let o = run_inner(mode, range, false, false, cfg);
    CommitRow {
        variant: mode.to_string(),
        range,
        msg_size: cfg.msg_size,
        slots_per_sec: o.slots_per_sec,
        sender_cpu: o.sender_cpu,
        receiver_cpu: o.receiver_cpu,
        commit_p50_ms: f64::NAN,
        commit_p99_ms: f64::NAN,
    }
}

/// Like [`run_flood`], but with the simulator's observability recorder
/// enabled: every `Action::Charge` is attributed per (node, component,
/// operation), so the returned [`ObsReport`] carries the CPU breakdown
/// that `bench_summary` folds into a flamegraph.
pub fn run_flood_traced(mode: ChannelMode, range: usize, cfg: &Config) -> (CommitRow, ObsReport) {
    let o = run_inner(mode, range, false, true, cfg);
    let row = CommitRow {
        variant: mode.to_string(),
        range,
        msg_size: cfg.msg_size,
        slots_per_sec: o.slots_per_sec,
        sender_cpu: o.sender_cpu,
        receiver_cpu: o.receiver_cpu,
        commit_p50_ms: f64::NAN,
        commit_p99_ms: f64::NAN,
    };
    (row, o.obs.expect("traced run records an obs report"))
}

/// Paced submissions measuring submit→deliver commit latency; the mode
/// carries the per-variant knob (e.g. `SenderCast { overlap }` toggles
/// the §A.9 content/share-exchange overlap).
pub fn run_paced(mode: ChannelMode, range: usize, cfg: &Config) -> CommitRow {
    let o = run_inner(mode, range, true, false, cfg);
    CommitRow {
        variant: mode.to_string(),
        range,
        msg_size: cfg.msg_size,
        slots_per_sec: o.slots_per_sec,
        sender_cpu: o.sender_cpu,
        receiver_cpu: o.receiver_cpu,
        commit_p50_ms: o.commit_p50_ms,
        commit_p99_ms: o.commit_p99_ms,
    }
}

/// The amortization curve: flood throughput for each range size, for
/// IRMC-RC and IRMC-SC.
pub fn run_range_sweep(ranges: &[usize], cfg: &Config) -> Vec<CommitRow> {
    let mut rows = Vec::new();
    for mode in [RC, ChannelMode::SenderCast { overlap: true }] {
        for &r in ranges {
            rows.push(run_flood(mode, r, cfg));
        }
    }
    rows
}

/// Renders commit-channel rows as an aligned text table.
pub fn render(rows: &[CommitRow]) -> String {
    let mut out = String::from(
        "Commit channel — range certification vs per-slot (Virginia->Tokyo, flooded)\n",
    );
    out.push_str(&format!(
        "{:<9} {:>6} {:>8} {:>13} {:>11} {:>13} {:>9} {:>9}\n",
        "variant",
        "range",
        "size[B]",
        "slots/s",
        "sender-cpu",
        "receiver-cpu",
        "p50[ms]",
        "p99[ms]"
    ));
    for r in rows {
        let fmt = |v: f64| if v.is_finite() { format!("{v:.1}") } else { "-".into() };
        out.push_str(&format!(
            "{:<9} {:>6} {:>8} {:>13.0} {:>10.0}% {:>12.0}% {:>9} {:>9}\n",
            r.variant,
            r.range,
            r.msg_size,
            r.slots_per_sec,
            r.sender_cpu * 100.0,
            r.receiver_cpu * 100.0,
            fmt(r.commit_p50_ms),
            fmt(r.commit_p99_ms)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config { duration: SimTime::from_secs(1), ..Config::default() }
    }

    #[test]
    fn flood_range_amortization_beats_per_slot() {
        let cfg = quick();
        let base = run_flood(RC, 1, &cfg);
        let ranged = run_flood(RC, 32, &cfg);
        assert_eq!(base.variant, "IRMC-RC");
        assert!(base.slots_per_sec > 0.0);
        assert!(
            ranged.slots_per_sec > 3.0 * base.slots_per_sec,
            "range 32 must deliver >= 3x the per-slot saturation throughput \
             (got {:.0} vs {:.0} slots/s)",
            ranged.slots_per_sec,
            base.slots_per_sec
        );
    }

    #[test]
    fn dedup_cuts_receiver_cpu_per_slot() {
        // The digest-only fan-in hashes content once per range, like an
        // IRMC-SC receiver; it must stay within 2x of SC's per-slot
        // receiver CPU despite the `fs` extra vouches (the same bound
        // `bench_summary` gates).
        let cfg = quick();
        let rc = run_flood(RC, 32, &cfg);
        let sc = run_flood(ChannelMode::SenderCast { overlap: true }, 32, &cfg);
        assert_eq!(rc.variant, "IRMC-RC");
        assert!(rc.slots_per_sec > 0.0 && sc.slots_per_sec > 0.0);
        let rc_per_slot = rc.receiver_cpu / rc.slots_per_sec;
        let sc_per_slot = sc.receiver_cpu / sc.slots_per_sec;
        assert!(
            rc_per_slot <= 2.0 * sc_per_slot,
            "digest-only fan-in must stay within 2x of IRMC-SC's per-slot receiver CPU \
             (got {:.3e} vs SC {:.3e} cpu-s/slot)",
            rc_per_slot,
            sc_per_slot
        );
    }

    #[test]
    fn sc_overlap_lowers_commit_latency() {
        // Big ranges of big payloads: the content WAN transfer is long
        // enough that overlapping it with signing + share exchange shows.
        let cfg = Config { msg_size: 16 * 1024, ..quick() };
        let overlapped = run_paced(ChannelMode::SenderCast { overlap: true }, 64, &cfg);
        let after_bundle = run_paced(ChannelMode::SenderCast { overlap: false }, 64, &cfg);
        assert!(overlapped.commit_p50_ms.is_finite() && after_bundle.commit_p50_ms.is_finite());
        assert!(
            overlapped.commit_p50_ms < after_bundle.commit_p50_ms,
            "§A.9 overlap must lower commit latency (got {:.3} vs {:.3} ms)",
            overlapped.commit_p50_ms,
            after_bundle.commit_p50_ms
        );
    }
}
