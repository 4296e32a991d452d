//! Shared scenario machinery: deploy a system, run clients in every
//! region, collect per-region latency samples.

use crate::topology::{ec2_topology, REGIONS4};
use spider::{DeploymentBuilder, Sample, SpiderConfig, WorkloadSpec};
use spider_app::{kv_op_factory, KvStore};
use spider_baselines::{BftDeployment, StewardDeployment};
use spider_sim::{ObsConfig, ObsReport, Simulation};
use spider_types::{OpKind, SimTime};
use std::collections::BTreeMap;

/// Which architecture a scenario runs (§5 "Environment").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Traditional geo-distributed PBFT; leader at `REGIONS4[leader]`.
    Bft {
        /// Index into the region list.
        leader: usize,
    },
    /// Steward-style hierarchy; leader site at `REGIONS4[leader_site]`.
    Hft {
        /// Index into the region list.
        leader_site: u16,
    },
    /// Spider with the agreement group in Virginia; consensus leader in
    /// the given availability zone (0-based; the paper's V-1 is zone 0).
    Spider {
        /// Leader's availability zone within Virginia.
        leader_zone: u8,
    },
    /// Spider variant without execution groups: the agreement group also
    /// executes (Fig 9a).
    Spider0E,
    /// Spider variant with a single execution group co-located with the
    /// agreement group in Virginia (Fig 9a).
    Spider1E,
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemKind::Bft { leader } => write!(f, "BFT(leader={})", REGIONS4[*leader]),
            SystemKind::Hft { leader_site } => {
                write!(f, "HFT(leader-site={})", REGIONS4[*leader_site as usize])
            }
            SystemKind::Spider { leader_zone } => {
                write!(f, "SPIDER(leader=V-{})", leader_zone + 1)
            }
            SystemKind::Spider0E => write!(f, "SPIDER-0E"),
            SystemKind::Spider1E => write!(f, "SPIDER-1E"),
        }
    }
}

/// Scale and workload parameters of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioCfg {
    /// Clients per region (the paper uses 50; defaults are scaled down).
    pub clients_per_region: usize,
    /// Mean requests/second per client.
    pub rate_per_client: f64,
    /// Request payload bytes (the paper uses 200).
    pub payload: usize,
    /// Workload mix (fractions of writes / strong reads; rest weak).
    pub write_fraction: f64,
    /// Fraction of strong reads.
    pub strong_read_fraction: f64,
    /// Measurement duration.
    pub duration: SimTime,
    /// Warm-up cut: samples completing before this time are discarded.
    pub warmup: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Fault tolerance per group (`f = 1` in the main experiments).
    pub f: usize,
    /// Maximum consensus batch size (applies to Spider's agreement group
    /// and all PBFT baselines alike).
    pub max_batch: usize,
    /// Consensus batch linger cap; zero = propose immediately.
    pub batch_delay: SimTime,
    /// Rate-adaptive consensus batch sizing.
    pub adaptive_batching: bool,
    /// Consensus pipelining window.
    pub pipeline_depth: usize,
    /// End-to-end request tracing: enables the simulator's observability
    /// recorder (phase spans, per-node metrics, CPU attribution). Off by
    /// default; [`run_scenario_obs`] turns it on.
    pub tracing: bool,
}

impl Default for ScenarioCfg {
    fn default() -> Self {
        let base = SpiderConfig::default();
        ScenarioCfg {
            clients_per_region: 10,
            rate_per_client: 2.0,
            payload: 200,
            write_fraction: 1.0,
            strong_read_fraction: 0.0,
            duration: SimTime::from_secs(20),
            warmup: SimTime::from_secs(2),
            seed: 42,
            f: 1,
            max_batch: base.max_batch,
            batch_delay: base.batch_delay,
            adaptive_batching: base.adaptive_batching,
            pipeline_depth: base.pipeline_depth,
            tracing: false,
        }
    }
}

impl ScenarioCfg {
    fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            rate_per_sec: self.rate_per_client,
            payload_bytes: self.payload,
            write_fraction: self.write_fraction,
            strong_read_fraction: self.strong_read_fraction,
            max_ops: 0,
            start_delay: SimTime::from_millis(200),
            op_factory: kv_op_factory(1000),
        }
    }

    /// The deployment config this scenario induces (used for Spider and
    /// for the consensus cores of the BFT/HFT baselines).
    pub fn spider_config(&self) -> SpiderConfig {
        SpiderConfig {
            fa: self.f,
            fe: self.f,
            max_batch: self.max_batch,
            batch_delay: self.batch_delay,
            adaptive_batching: self.adaptive_batching,
            pipeline_depth: self.pipeline_depth,
            tracing: self.tracing,
            ..SpiderConfig::default()
        }
    }
}

/// Latency samples per client region.
pub type RegionSamples = BTreeMap<String, Vec<Sample>>;

fn keep(s: &Sample, warmup: SimTime) -> bool {
    s.completed >= warmup
}

/// Runs one scenario and returns per-region samples.
pub fn run_scenario(kind: SystemKind, cfg: &ScenarioCfg) -> RegionSamples {
    run_scenario_inner(kind, cfg).0
}

/// Runs one scenario with end-to-end tracing forced on and returns both
/// the per-region samples and the observability report (phase spans,
/// metrics snapshots, per-operation CPU attribution).
pub fn run_scenario_obs(kind: SystemKind, cfg: &ScenarioCfg) -> (RegionSamples, ObsReport) {
    let mut cfg = cfg.clone();
    cfg.tracing = true;
    let (samples, obs) = run_scenario_inner(kind, &cfg);
    (samples, obs.expect("tracing was enabled"))
}

fn run_scenario_inner(kind: SystemKind, cfg: &ScenarioCfg) -> (RegionSamples, Option<ObsReport>) {
    match kind {
        SystemKind::Bft { leader } => run_bft(leader, cfg),
        SystemKind::Hft { leader_site } => run_hft(leader_site, cfg),
        SystemKind::Spider { leader_zone } => run_spider(leader_zone, cfg, SpiderShape::Full),
        SystemKind::Spider0E => run_spider0e(cfg),
        SystemKind::Spider1E => run_spider(0, cfg, SpiderShape::OneGroup),
    }
}

enum SpiderShape {
    Full,
    OneGroup,
}

fn run_spider(
    leader_zone: u8,
    cfg: &ScenarioCfg,
    shape: SpiderShape,
) -> (RegionSamples, Option<ObsReport>) {
    let mut sim = Simulation::new(ec2_topology(), cfg.seed);
    let mut builder = DeploymentBuilder::new(cfg.spider_config())
        .with_app(KvStore::new)
        .agreement_region("virginia")
        .agreement_leader_zone(leader_zone);
    let group_regions: Vec<&str> = match shape {
        SpiderShape::Full => REGIONS4.to_vec(),
        SpiderShape::OneGroup => vec!["virginia"],
    };
    for r in &group_regions {
        builder = builder.execution_group(r);
    }
    let mut dep = builder.build(&mut sim);

    // Clients always live in all four regions; with fewer groups they all
    // attach to the Virginia group (Fig 9a's setup).
    let mut client_region: Vec<(String, Vec<spider_types::NodeId>)> = Vec::new();
    for region in REGIONS4 {
        let group_idx = group_regions.iter().position(|g| *g == region).unwrap_or(0);
        // Place the clients in their home region even when their group is
        // remote: spawn via deployment, then note the region.
        let nodes = spawn_spider_clients_in_region(&mut sim, &mut dep, group_idx, region, cfg);
        client_region.push((region.to_owned(), nodes));
    }
    sim.run_until(cfg.duration);
    let mut out = RegionSamples::new();
    for (region, nodes) in client_region {
        let samples: Vec<Sample> = nodes
            .iter()
            .flat_map(|n| sim.actor::<spider::SpiderClient>(*n).samples.clone())
            .filter(|s| keep(s, cfg.warmup))
            .collect();
        out.insert(region, samples);
    }
    let obs = cfg.tracing.then(|| sim.obs().report());
    (out, obs)
}

/// Spawns Spider clients whose *group* is `group_idx` but whose *node*
/// sits in `region` (needed when the local region has no group).
fn spawn_spider_clients_in_region(
    sim: &mut Simulation<spider::SpiderMsg>,
    dep: &mut spider::Deployment,
    group_idx: usize,
    region: &str,
    cfg: &ScenarioCfg,
) -> Vec<spider_types::NodeId> {
    use spider::SpiderClient;
    let (group, _, _) = dep.groups[group_idx].clone();
    let zones = sim.topology().num_zones(sim.topology().region(region));
    let mut nodes = Vec::new();
    for k in 0..cfg.clients_per_region {
        let id = spider_types::ClientId(10_000 + dep.clients.len() as u32);
        let zone = sim.topology().zone(region, (k % zones as usize) as u8);
        let client = SpiderClient::new(
            dep.cfg.clone(),
            id,
            group,
            dep.directory.clone(),
            Some(cfg.workload()),
        );
        let node = sim.add_node(zone, client);
        dep.directory.register_client(id, node);
        dep.clients.push((id, group, node));
        nodes.push(node);
    }
    nodes
}

fn run_spider0e(cfg: &ScenarioCfg) -> (RegionSamples, Option<ObsReport>) {
    // The agreement group executes directly: equivalent to a PBFT group
    // whose replicas all sit in separate Virginia zones.
    let mut sim = Simulation::new(ec2_topology(), cfg.seed);
    if cfg.tracing {
        sim.enable_obs(ObsConfig::default());
    }
    let n = 3 * cfg.f + 1;
    let placements: Vec<(&str, u8)> = (0..n).map(|i| ("virginia", i as u8 % 6)).collect();
    let mut dep =
        BftDeployment::build_in_zones(&mut sim, cfg.spider_config(), &placements, KvStore::new);
    let mut client_nodes = Vec::new();
    for region in REGIONS4 {
        let nodes = dep.spawn_clients(&mut sim, region, cfg.clients_per_region, cfg.workload());
        client_nodes.push((region.to_owned(), nodes));
    }
    sim.run_until(cfg.duration);
    let obs = cfg.tracing.then(|| sim.obs().report());
    (collect_baseline(&sim, client_nodes, cfg), obs)
}

fn run_bft(leader: usize, cfg: &ScenarioCfg) -> (RegionSamples, Option<ObsReport>) {
    let mut sim = Simulation::new(ec2_topology(), cfg.seed);
    if cfg.tracing {
        sim.enable_obs(ObsConfig::default());
    }
    // Leader region first: replica 0 is the view-0 leader.
    let mut regions = REGIONS4.to_vec();
    regions.rotate_left(leader);
    let mut dep = BftDeployment::build(&mut sim, cfg.spider_config(), &regions, KvStore::new);
    let mut client_nodes = Vec::new();
    for region in REGIONS4 {
        let nodes = dep.spawn_clients(&mut sim, region, cfg.clients_per_region, cfg.workload());
        client_nodes.push((region.to_owned(), nodes));
    }
    sim.run_until(cfg.duration);
    let obs = cfg.tracing.then(|| sim.obs().report());
    (collect_baseline(&sim, client_nodes, cfg), obs)
}

fn run_hft(leader_site: u16, cfg: &ScenarioCfg) -> (RegionSamples, Option<ObsReport>) {
    let mut sim = Simulation::new(ec2_topology(), cfg.seed);
    if cfg.tracing {
        sim.enable_obs(ObsConfig::default());
    }
    let mut dep = StewardDeployment::build(
        &mut sim,
        cfg.spider_config(),
        &REGIONS4,
        leader_site,
        KvStore::new,
    );
    let mut client_nodes = Vec::new();
    for (si, region) in REGIONS4.iter().enumerate() {
        let nodes =
            dep.spawn_clients(&mut sim, si as u16, region, cfg.clients_per_region, cfg.workload());
        client_nodes.push(((*region).to_owned(), nodes));
    }
    sim.run_until(cfg.duration);
    let obs = cfg.tracing.then(|| sim.obs().report());
    (collect_baseline(&sim, client_nodes, cfg), obs)
}

fn collect_baseline(
    sim: &Simulation<spider_baselines::BaseMsg>,
    client_nodes: Vec<(String, Vec<spider_types::NodeId>)>,
    cfg: &ScenarioCfg,
) -> RegionSamples {
    let mut out = RegionSamples::new();
    for (region, nodes) in client_nodes {
        let samples: Vec<Sample> = nodes
            .iter()
            .flat_map(|n| sim.actor::<spider_baselines::BaselineClient>(*n).samples.clone())
            .filter(|s| keep(s, cfg.warmup))
            .collect();
        out.insert(region, samples);
    }
    out
}

/// Filters samples of one kind out of a region map.
pub fn filter_kind(samples: &RegionSamples, kind: OpKind) -> RegionSamples {
    samples
        .iter()
        .map(|(r, s)| (r.clone(), s.iter().filter(|x| x.kind == kind).copied().collect()))
        .collect()
}
