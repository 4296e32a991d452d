//! The four workloads: deployment, closed-loop clients, the drive loop
//! and the client-visible (virtual-clock) metrics.

use crate::gate::{self, Replica};
use crate::layers::HostProbe;
use crate::layers::Metric;
use crate::stats::{median, nearest_rank, tail};
use spider::client::OpFactory;
use spider::execution::ExecutionReplica;
use spider::WorkloadSpec;
use spider::{Deployment, DeploymentBuilder, Sample, SpiderClient, SpiderConfig, SpiderMsg};
use spider_app::{KvOp, KvStore};
use spider_harness::{ec2_topology, REGIONS4};
use spider_sim::{FaultPlan, NodeId, ObsConfig, Simulation};
use spider_types::{OpKind, SimTime};
use std::sync::{Arc, Mutex, MutexGuard};

/// Virtual-time interval between checks whether a run has settled.
const SETTLE_CHECK: SimTime = SimTime::from_millis(100);

/// Mean attempt gaps without a fresh issue after which a client whose
/// budget is not provably spent counts as done.
const IDLE_ATTEMPTS: f64 = 50.0;

/// When clients fire their first attempt.
const START_DELAY: SimTime = SimTime::from_millis(200);

/// Virtual time by which a sub-run must have drained.
const DEADLINE: SimTime = SimTime::from_secs(300);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 7 path: four-region writes at low load.
    GeoWrites,
    /// Two groups, default config, offered about twice the capacity.
    WriteSaturation,
    /// The geo-writes deployment with a weak/strong read mix.
    MixedReads,
    /// The disaster suite's 10 s WAN cut at `z = 0`, healed and drained.
    WanPartition,
}

impl Workload {
    /// Every workload the command accepts.
    pub const ALL: [Workload; 4] = [
        Workload::GeoWrites,
        Workload::WriteSaturation,
        Workload::MixedReads,
        Workload::WanPartition,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GeoWrites => "geo-writes",
            Workload::WriteSaturation => "write-saturation",
            Workload::MixedReads => "mixed-reads",
            Workload::WanPartition => "wan-partition",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's parameters.
    pub fn spec(self) -> Spec {
        // Writes with a light read share, so every workload reports the
        // read metrics too.
        let geo = Clients { per_group: 10, rate: 4.0, write: 0.8, strong: 0.1, ops: 40 };
        let base = Spec {
            groups: &REGIONS4,
            client_groups: &[0, 1, 2, 3],
            cfg: SpiderConfig::default(),
            payload: 200,
            clients: geo,
            sims: 5,
            warmup: SimTime::from_secs(1),
            partition: None,
            tails: Tails { write: 0.99, strong_read: 0.9, weak_read: 0.95 },
        };
        match self {
            Workload::GeoWrites => base,
            Workload::WriteSaturation => Spec {
                groups: &["virginia", "oregon"],
                client_groups: &[0],
                clients: Clients { per_group: 40, rate: 36.0, write: 0.9, strong: 0.05, ops: 60 },
                // 5 to 10 % of writes under saturation take 100 to 150 ms;
                // percentiles at the edge of that slow tail jump between
                // seeds.
                tails: Tails { write: 0.995, strong_read: 0.85, weak_read: 0.85 },
                sims: 7,
                ..base
            },
            Workload::MixedReads => Spec {
                clients: Clients { write: 0.3, strong: 0.2, ops: 60, ..geo },
                sims: 4,
                tails: Tails { write: 0.9, strong_read: 0.9, weak_read: 0.995 },
                ..base
            },
            Workload::WanPartition => Spec {
                // The disaster suite's tight flow-control windows, so the
                // cut stalls every client within seconds (§3.5).
                cfg: SpiderConfig {
                    ke: 8,
                    ka: 8,
                    ag_win: 16,
                    commit_capacity: 16,
                    z: 0,
                    view_change_timeout: SimTime::from_millis(400),
                    ..SpiderConfig::default()
                },
                payload: 64,
                clients: Clients { per_group: 6, ops: 120, ..geo },
                sims: 2,
                warmup: SimTime::from_secs(2),
                partition: Some((SimTime::from_secs(8), SimTime::from_secs(18))),
                tails: Tails { write: 0.99, strong_read: 0.9, weak_read: 0.9 },
                ..base
            },
        }
    }
}

/// The closed-loop clients, spawned `per_group` times per execution
/// group.
#[derive(Debug, Clone, Copy)]
pub struct Clients {
    /// Clients per execution group.
    pub per_group: usize,
    /// Poisson attempt rate per client (attempts per virtual second).
    pub rate: f64,
    /// Share of writes.
    pub write: f64,
    /// Share of strong reads (the rest are weak reads).
    pub strong: f64,
    /// Operations each client issues before it stops.
    pub ops: u64,
}

/// Tail percentile of each latency class.
#[derive(Debug, Clone, Copy)]
pub struct Tails {
    /// Write overhead tail.
    pub write: f64,
    /// Strong-read overhead tail.
    pub strong_read: f64,
    /// Weak-read latency tail.
    pub weak_read: f64,
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Home region of each execution group; the agreement group is in
    /// Virginia.
    pub groups: &'static [&'static str],
    /// Indices of the groups that get clients.
    pub client_groups: &'static [usize],
    /// Deployment configuration.
    pub cfg: SpiderConfig,
    /// Encoded size of a write in bytes.
    pub payload: usize,
    /// The clients.
    pub clients: Clients,
    /// Sub-runs, each with its own seed, whose samples are pooled.
    pub sims: usize,
    /// Samples completing before this are discarded.
    pub warmup: SimTime,
    /// Cut between Virginia+Ireland and Oregon+Tokyo: `(from, until)`.
    pub partition: Option<(SimTime, SimTime)>,
    /// Tail percentiles.
    pub tails: Tails,
}

/// One spawned client and the operations its factory handed out.
pub struct ClientHandle {
    /// Simulator node.
    pub node: NodeId,
    /// Factory sequence numbers in issue order.
    issued: Arc<Mutex<Vec<u64>>>,
}

impl ClientHandle {
    /// Factory sequence numbers handed out so far.
    fn log(&self) -> MutexGuard<'_, Vec<u64>> {
        self.issued.lock().expect("op log poisoned")
    }
}

/// A built deployment ready to drive.
pub struct Run {
    /// The simulation.
    pub sim: Simulation<SpiderMsg>,
    /// The Spider deployment inside it.
    pub dep: Deployment,
    /// Every benchmark client.
    pub clients: Vec<ClientHandle>,
    spec: Spec,
    seed: u64,
}

/// The benchmark's key for operation `seq` of client `client`.
fn key(seed: u64, client: usize, seq: u64) -> Vec<u8> {
    format!("s{seed:x}/c{client:04}/{seq:08}").into_bytes()
}

/// The encoded write the benchmark issues for `key`.
fn write_op(seed: u64, key: &[u8], payload: usize) -> KvOp {
    KvOp::sized_put(key, payload.max(key.len() + 16), b'a' + (seed % 26) as u8)
}

/// Every client writes its own keys and reads the key of its previous
/// operation; the log records each issued sequence number in order.
fn op_factory(seed: u64, client: usize, payload: usize, log: Arc<Mutex<Vec<u64>>>) -> OpFactory {
    Arc::new(move |seq, kind, _| {
        log.lock().expect("op log poisoned").push(seq);
        match kind {
            OpKind::Write => write_op(seed, &key(seed, client, seq), payload).encode(),
            _ => KvOp::get(&key(seed, client, seq.saturating_sub(1))).encode(),
        }
    })
}

/// Builds the workload's deployment and spawns its clients.
pub fn build(w: Workload, seed: u64, tracing: bool) -> Run {
    let spec = w.spec();
    let mut sim = Simulation::new(ec2_topology(), seed);
    if tracing {
        // Large span rings so the phase budget sees every request.
        sim.enable_obs(ObsConfig { span_capacity: 1 << 20, ..ObsConfig::default() });
    }
    let cfg = SpiderConfig { tracing, ..spec.cfg.clone() };
    let mut builder =
        DeploymentBuilder::new(cfg).with_app(KvStore::new).agreement_region("virginia");
    for region in spec.groups {
        builder = builder.execution_group(region);
    }
    let mut dep = builder.build(&mut sim);
    let mut clients = Vec::new();
    let class = spec.clients;
    for &group in spec.client_groups {
        for _ in 0..class.per_group {
            let ci = clients.len();
            let issued = Arc::new(Mutex::new(Vec::new()));
            let workload = WorkloadSpec {
                rate_per_sec: class.rate,
                payload_bytes: spec.payload,
                write_fraction: class.write,
                strong_read_fraction: class.strong,
                max_ops: class.ops,
                start_delay: START_DELAY,
                op_factory: op_factory(seed, ci, spec.payload, issued.clone()),
            };
            let node = dep.spawn_clients(&mut sim, group, 1, workload)[0];
            clients.push(ClientHandle { node, issued });
        }
    }
    if let Some((from, until)) = spec.partition {
        sim.install_fault_plan(FaultPlan::new().wan_partition(
            &["virginia", "ireland"],
            &["oregon", "tokyo"],
            from,
            until,
        ));
    }
    Run { sim, dep, clients, spec, seed }
}

/// Seed of sub-run `i` of a workload run seeded with `seed`.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(i as u64)
}

/// What the clients of one drained sub-run saw.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Window latencies in ms: write and strong-read overheads, weak
    /// reads.
    classes: [Vec<f64>; 3],
    /// Length of the measurement window in virtual seconds.
    window_s: f64,
    /// Completions inside the window.
    window_ops: u64,
    /// Each client's longest time with an operation in flight, less the
    /// WAN floor for ordered operations, in ms.
    client_stalls: Vec<f64>,
    /// Operations the clients issued.
    pub issued: u64,
    /// Operations that completed over the whole sub-run.
    pub completed: u64,
    /// Expected Poisson attempts over the clients' active time.
    pub attempts: f64,
}

impl Run {
    /// Runs the simulation until it has settled: every client is done
    /// and every execution replica applied the same number of ordered
    /// batches. Times each step when a probe is given. The deployment
    /// never quiesces (channel ticks run on), so the queue does not
    /// empty.
    pub fn drive(&mut self, mut probe: Option<&mut HostProbe>) -> Result<(), String> {
        let mut next_check = SimTime::ZERO;
        while self.sim.now() <= DEADLINE {
            if self.sim.now() >= next_check {
                if self.settled() {
                    return Ok(());
                }
                next_check = self.sim.now() + SETTLE_CHECK;
            }
            let stepped = match probe.as_deref_mut() {
                Some(p) => p.step(&mut self.sim),
                None => self.sim.step(),
            };
            if !stepped {
                break;
            }
        }
        let busy = self.clients.iter().filter(|c| !self.client_done(c)).count();
        Err(format!(
            "not settled at {:.1} s of virtual time ({busy} clients not done)",
            self.sim.now().as_secs_f64()
        ))
    }

    /// Whether every operation the client issued completed and no
    /// further issue can follow.
    ///
    /// The client stops once its issue counter reaches `ops`. Re-issues
    /// of skipped or escalated requests advance that counter without a
    /// call to the op factory, and the factory's `seq` is the counter at
    /// each fresh issue. So the budget is surely spent when the last
    /// `seq` reached `ops - 1`. Otherwise re-issues during the last
    /// operation may have spent it, or an attempt timer is still armed;
    /// the timer was armed before the last completion and fires after an
    /// exponential gap, so a client that issued nothing for
    /// [`IDLE_ATTEMPTS`] mean gaps after its last completion is done
    /// (an armed timer waits that long with probability e^-50).
    fn client_done(&self, c: &ClientHandle) -> bool {
        let log = c.log();
        let samples = self.samples(c);
        if log.len() != samples.len() {
            return false;
        }
        let spent = log.last().is_some_and(|&seq| seq + 1 >= self.spec.clients.ops);
        let idle = SimTime::from_secs_f64(IDLE_ATTEMPTS / self.spec.clients.rate);
        spent || samples.last().is_some_and(|s| self.sim.now() >= s.completed + idle)
    }

    fn settled(&self) -> bool {
        let mut seqs = self
            .dep
            .groups
            .iter()
            .flat_map(|(_, _, g)| g)
            .map(|&n| self.sim.actor::<ExecutionReplica<KvStore>>(n).sequence());
        let first = seqs.next();
        self.clients.iter().all(|c| self.client_done(c)) && seqs.all(|s| Some(s) == first)
    }

    fn samples(&self, c: &ClientHandle) -> &[Sample] {
        &self.sim.actor::<SpiderClient>(c.node).samples
    }

    /// Runs the correctness gate and collects what the clients saw.
    pub fn measure(&self) -> Result<Measured, String> {
        self.gate()?;
        let leader = self.sim.zone_of(self.dep.agreement[0]);
        // The window ends when the first client runs out of operations,
        // so every client is active throughout it.
        let end = self
            .clients
            .iter()
            .filter_map(|c| self.samples(c).last().map(|s| s.completed))
            .min()
            .ok_or("no client completed an operation")?;
        let start = self.spec.warmup;
        if end <= start {
            return Err("measurement window is empty".into());
        }
        let ms = |t: SimTime| t.as_nanos() as f64 / 1e6;
        let mut m = Measured {
            classes: Default::default(),
            window_s: (end - start).as_secs_f64(),
            window_ops: 0,
            client_stalls: Vec::new(),
            issued: 0,
            completed: 0,
            attempts: 0.0,
        };
        for c in &self.clients {
            let samples = self.samples(c);
            m.issued += c.log().len() as u64;
            m.completed += samples.len() as u64;
            if let Some(last) = samples.last() {
                let active = last.issued.saturating_sub(START_DELAY);
                m.attempts += 1.0 + self.spec.clients.rate * active.as_secs_f64();
            }
            let floor = ms(self.sim.topology().base_latency(self.sim.zone_of(c.node), leader) * 2);
            let mut worst = f64::NEG_INFINITY;
            for s in samples.iter().filter(|s| s.completed >= start && s.completed <= end) {
                m.window_ops += 1;
                let (class, v) = match s.kind {
                    OpKind::Write => (0, ms(s.latency()) - floor),
                    OpKind::StrongRead => (1, ms(s.latency()) - floor),
                    OpKind::WeakRead => (2, ms(s.latency())),
                };
                m.classes[class].push(v);
                worst = worst.max(v);
            }
            if worst.is_finite() {
                m.client_stalls.push(worst);
            }
        }
        Ok(m)
    }

    /// The correctness gate over the drained deployment.
    fn gate(&self) -> Result<(), String> {
        let mut writes = Vec::new();
        let mut failed = 0;
        for (ci, c) in self.clients.iter().enumerate() {
            let seqs = c.log();
            let samples = self.samples(c);
            // Closed loop: the i-th completed sample is the i-th issued op.
            for (seq, s) in seqs.iter().zip(samples) {
                if s.kind == OpKind::Write {
                    let k = key(self.seed, ci, *seq);
                    let KvOp::Put { value, .. } = write_op(self.seed, &k, self.spec.payload) else {
                        unreachable!("write_op builds a put")
                    };
                    writes.push((k, value));
                }
            }
            failed += seqs.len().saturating_sub(samples.len()) as u64;
        }
        let mut replicas = Vec::new();
        for (_, region, nodes) in &self.dep.groups {
            for (ri, &node) in nodes.iter().enumerate() {
                replicas.push(Replica {
                    label: format!("{region}/replica{ri}"),
                    store: self.sim.actor::<ExecutionReplica<KvStore>>(node).app(),
                });
            }
        }
        gate::check(&writes, failed, &replicas)
    }
}

/// The virtual-clock end-to-end metrics of a workload's sub-runs,
/// pooled. `unavailability_ms` is defined only on a workload with a
/// fault.
pub fn virtual_metrics(runs: &[Measured], spec: &Spec) -> Result<Vec<Metric>, String> {
    let mut classes: [Vec<f64>; 3] = Default::default();
    let mut stalls = Vec::new();
    let (mut ops, mut window_s) = (0, 0.0);
    for m in runs {
        for (pooled, class) in classes.iter_mut().zip(&m.classes) {
            pooled.extend_from_slice(class);
        }
        stalls.extend_from_slice(&m.client_stalls);
        ops += m.window_ops;
        window_s += m.window_s;
    }
    let names = ["write", "strong read", "weak read"];
    for (class, name) in classes.iter_mut().zip(names) {
        if class.is_empty() {
            return Err(format!("no {name} samples in the window"));
        }
        class.sort_by(f64::total_cmp);
    }
    let tail_of =
        |i: usize, q: f64| tail(&classes[i], q).map_err(|e| format!("{} tail: {e}", names[i]));
    let tails = spec.tails;
    let mut metrics = vec![
        ("write_overhead_p50_ms", "ms", nearest_rank(&classes[0], 0.5)),
        ("write_overhead_tail_ms", "ms", tail_of(0, tails.write)?),
        ("strong_read_overhead_p50_ms", "ms", nearest_rank(&classes[1], 0.5)),
        ("strong_read_overhead_tail_ms", "ms", tail_of(1, tails.strong_read)?),
        ("weak_read_p50_ms", "ms", nearest_rank(&classes[2], 0.5)),
        ("weak_read_tail_ms", "ms", tail_of(2, tails.weak_read)?),
        ("goodput_ops_s", "1/s", ops as f64 / window_s),
    ];
    if spec.partition.is_some() {
        metrics.push(("unavailability_ms", "ms", median(&mut stalls)));
    }
    Ok(metrics)
}
