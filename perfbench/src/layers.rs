//! Per-layer attribution of a traced run, measured from outside the
//! program: host time per simulator step charged to the role whose
//! handler ran, plus the simulator's counters and the obs report.

use crate::workload::{Measured, Run};
use spider::SpiderMsg;
use spider_obs::export::phase_breakdown;
use spider_obs::{Histogram, SpanKind};
use spider_sim::{NodeId, ObsReport, Simulation, PHASE_RECAST};
use std::time::Instant;

/// Who a simulator step is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// No handler ran: requeues, cancelled timers, dead nodes.
    Sim = 0,
    Agreement = 1,
    Execution = 2,
    Client = 3,
}

const ROLES: usize = 4;

/// Times every `Simulation::step` and charges it to the node whose
/// handled-event count advanced, or to the simulator when none did.
pub struct HostProbe {
    /// Scan order: agreement, execution, then clients, so the scan
    /// stops early on replica steps.
    nodes: Vec<(NodeId, Role)>,
    last: Vec<u64>,
    ns: [u64; ROLES],
    steps: [u64; ROLES],
}

impl HostProbe {
    /// A probe over every node of `run`.
    pub fn new(run: &Run) -> HostProbe {
        let mut nodes: Vec<(NodeId, Role)> =
            run.dep.agreement.iter().map(|&n| (n, Role::Agreement)).collect();
        for (_, _, group) in &run.dep.groups {
            nodes.extend(group.iter().map(|&n| (n, Role::Execution)));
        }
        nodes.extend(run.clients.iter().map(|c| (c.node, Role::Client)));
        let stats = run.sim.stats();
        HostProbe {
            last: nodes.iter().map(|(n, _)| stats.cpu(*n).events).collect(),
            nodes,
            ns: [0; ROLES],
            steps: [0; ROLES],
        }
    }

    /// Runs and times one step; `false` when the queue was empty.
    pub fn step(&mut self, sim: &mut Simulation<SpiderMsg>) -> bool {
        let t = Instant::now();
        if !sim.step() {
            return false;
        }
        let dt = t.elapsed().as_nanos() as u64;
        let stats = sim.stats();
        let mut role = Role::Sim;
        for (last, &(node, r)) in self.last.iter_mut().zip(&self.nodes) {
            let events = stats.cpu(node).events;
            if events != *last {
                *last = events;
                role = r;
                break;
            }
        }
        self.ns[role as usize] += dt;
        self.steps[role as usize] += 1;
        true
    }

    fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn share(&self, role: Role) -> f64 {
        self.ns[role as usize] as f64 / self.total_ns() as f64
    }

    fn ns_per_step(&self, role: Role) -> f64 {
        self.ns[role as usize] as f64 / self.steps[role as usize].max(1) as f64
    }
}

/// A per-layer metric: `(name, unit, value)`.
pub type Metric = (&'static str, &'static str, f64);

/// The simulator, agreement, execution, client, virtual-CPU and phase
/// metrics of one traced run.
pub fn metrics(
    run: &Run,
    probe: &HostProbe,
    report: &ObsReport,
    outcome: &Measured,
) -> Result<Vec<Metric>, String> {
    let stats = run.sim.stats();
    let steps: u64 = probe.steps.iter().sum();
    if steps != stats.total_events {
        return Err(format!(
            "host probe timed {steps} steps but the simulator processed {}",
            stats.total_events
        ));
    }
    let shares: f64 = [Role::Sim, Role::Agreement, Role::Execution, Role::Client]
        .into_iter()
        .map(|r| probe.share(r))
        .sum();
    if (shares - 1.0).abs() > 1e-9 {
        return Err(format!("per-role host shares sum to {shares}, not 1"));
    }
    let ops = outcome.completed as f64;
    let now = run.sim.now().as_nanos() as f64;
    let peak_util = |nodes: &mut dyn Iterator<Item = NodeId>| {
        nodes.map(|n| stats.cpu(n).busy.as_nanos() as f64 / now).fold(0.0, f64::max)
    };
    let all_nodes = || probe.nodes.iter().map(|(n, _)| *n);
    let (mut msgs, mut wan, mut lan) = (0u64, 0u64, 0u64);
    for n in all_nodes() {
        let net = stats.net(n);
        msgs += net.messages_sent;
        wan += net.wan_sent;
        lan += net.lan_sent;
    }
    let exec_nodes = || run.dep.groups.iter().flat_map(|(_, _, g)| g.iter().copied());

    let mut runs = Histogram::new();
    for &n in &run.dep.agreement {
        if let Some(h) = report.hists.get(&(n.0, "commit_run_len")) {
            runs.merge(h);
        }
    }
    let cpu = report.cpu_by_op();
    let vcpu_us = |component: &str, op: Option<&str>| {
        cpu.iter()
            .filter(|((c, o), _)| *c == component && op.is_none_or(|op| *o == op))
            .fold(0.0, |sum, (_, t)| sum + t.as_nanos() as f64 / 1e3)
            / ops
    };
    let phases = phase_breakdown(report);
    let phase =
        |segment: &str| phases.iter().find(|r| r.segment == segment).map_or(f64::NAN, |r| r.p50_ms);
    let segments = ["client->propose", "propose->commit", "commit->deliver", "deliver->reply"];
    let gap = phase("client->reply") - segments.iter().map(|s| phase(s)).sum::<f64>();
    let recasts =
        report.spans.iter().filter(|e| e.phase == PHASE_RECAST && e.kind != SpanKind::Exit).count();

    Ok(vec![
        ("sim.events_per_op", "count", stats.total_events as f64 / ops),
        ("sim.unhandled_share", "ratio", probe.steps[Role::Sim as usize] as f64 / steps as f64),
        ("sim.host_ns_per_event", "ns", probe.ns_per_step(Role::Sim)),
        ("sim.host_share", "ratio", probe.share(Role::Sim)),
        ("net.msgs_per_op", "count", msgs as f64 / ops),
        ("net.wan_bytes_per_op", "B", wan as f64 / ops),
        ("net.lan_bytes_per_op", "B", lan as f64 / ops),
        ("agreement.vcpu_util", "ratio", peak_util(&mut run.dep.agreement.iter().copied())),
        ("agreement.ops_per_commit_run", "count", runs.mean()),
        ("agreement.host_ns_per_event", "ns", probe.ns_per_step(Role::Agreement)),
        ("agreement.host_share", "ratio", probe.share(Role::Agreement)),
        ("execution.vcpu_util", "ratio", peak_util(&mut exec_nodes())),
        ("execution.host_ns_per_event", "ns", probe.ns_per_step(Role::Execution)),
        ("execution.host_share", "ratio", probe.share(Role::Execution)),
        ("client.host_share", "ratio", probe.share(Role::Client)),
        ("client.issued_share", "ratio", outcome.issued as f64 / outcome.attempts),
        ("vcpu.consensus_us_per_op", "us", vcpu_us("consensus", None)),
        ("vcpu.req-channel_us_per_op", "us", vcpu_us("req-channel", None)),
        ("vcpu.commit-channel_us_per_op", "us", vcpu_us("commit-channel", None)),
        (
            "vcpu.commit-channel.range_sign_us_per_op",
            "us",
            vcpu_us("commit-channel", Some("range_sign")),
        ),
        ("vcpu.execution_us_per_op", "us", vcpu_us("execution", None)),
        ("vcpu.checkpoint_us_per_op", "us", vcpu_us("checkpoint", None)),
        ("phase.client_to_propose_p50_ms", "ms", phase("client->propose")),
        ("phase.propose_to_commit_p50_ms", "ms", phase("propose->commit")),
        ("phase.commit_to_deliver_p50_ms", "ms", phase("commit->deliver")),
        ("phase.deliver_to_reply_p50_ms", "ms", phase("deliver->reply")),
        ("phase.budget_gap_ms", "ms", gap),
        ("irmc.recasts", "count", recasts as f64),
    ])
}
