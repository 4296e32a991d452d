//! Headless bench summary: regenerates the CI-tracked performance
//! numbers and writes them as machine-readable JSON.
//!
//! Runs (at a CI-friendly scale, all on the deterministic simulator):
//!
//! 1. the Figure 7 write-latency sweep (every system × client region),
//! 2. the Figure 10 adaptability write workload (whole-run summary per
//!    system),
//! 3. the batching ablation (greedy / fixed / adaptive across offered
//!    load),
//! 4. the commit-channel range-certification sweep (slots/s at
//!    agreement-replica saturation for range sizes 1/8/32/128, for
//!    IRMC-RC with its digest-only range fan-in, and IRMC-SC) and the
//!    IRMC-SC §A.9 overlap latency comparison,
//! 5. the disaster suite (correlated outage, WAN partition, view-change
//!    storm, placement frontier) with goodput/unavailability/recovery
//!    per scenario.
//!
//! On top of the numbers it runs two traced repeats with the
//! observability recorder on: a Spider fig7-scale run (per-phase
//! request-latency breakdown + Perfetto trace) and a dedup-RC range-32
//! flood (per-(component, operation) CPU attribution + folded stacks
//! for flamegraphs). The flood trace additionally records causal edges
//! and sampled request spans, from which the differential critical-path
//! profile (p99.9 cohort vs p50 cohort) is assembled; the traced
//! WAN-partition run feeds the streaming health watchdog, whose event
//! stream is checked against the fault schedule.
//!
//! Output: `BENCH_adaptive_batching.json` (override with `--out PATH`),
//! plus `BENCH_trace_perfetto.json` (load in ui.perfetto.dev),
//! `BENCH_cpu_folded.txt` (feed to flamegraph.pl / inferno),
//! `BENCH_critical_path_folded.txt` (speedscope-shaped differential
//! critical-path stacks), and `BENCH_health_events.jsonl` (the
//! watchdog's typed event stream from the traced partition run).
//!
//! `--check BASELINE` additionally gates (exit non-zero on failure):
//!
//! * fig7 Spider p50 within +20 % of the baseline's
//!   `fig7_spider_p50_ms`,
//! * adaptive batching still beating the static policies at both ends,
//! * commit-channel range certification delivering >= 3x the per-slot
//!   saturation throughput at range 32,
//! * the digest-only RC fan-in saturating above 100k slots/s at range 32
//!   with per-slot receiver CPU within 2x of IRMC-SC's,
//! * IRMC-SC overlapped shipping showing lower commit latency than
//!   ship-after-bundle,
//! * the WAN-partition disaster scenario losing zero ops, duplicating
//!   zero ops, converging every store, and recovering within 10 s of
//!   simulated time after the heal,
//! * CPU attribution naming range signing as the dominant sender cost
//!   of the dedup-RC flood at range 32,
//! * the traced WAN-partition run containing a commit-channel recast
//!   span after the heal (the liveness mechanism actually fired),
//! * the p99.9-cohort differential critical path of the traced flood
//!   attributing its dominant segment (>= 40 % of tail critical-path
//!   time) to the `(hop, component, operation)` named by the baseline's
//!   `tail_dominant_segment`,
//! * the health watchdog flagging the WAN partition as an
//!   `IrmcWindowStall` within 2 s of the cut and recovering after the
//!   heal, with zero stall events in the unfaulted traced fig7 run.

use spider_harness::experiments::{batching, commit_channel, disaster, fig10, fig7};
use spider_harness::scenarios::{run_scenario_obs, ScenarioCfg, SystemKind};
use spider_irmc::ChannelMode;
use spider_obs::export as obs_export;
use spider_obs::{causal, HealthEvent, ObsReport};
use spider_types::SimTime;
use std::fmt::Write as _;

/// Regression tolerance of the `--check` gate: fail above +20 %.
const P50_REGRESSION_TOLERANCE: f64 = 1.20;

/// Required commit-channel speedup of range-32 certification over the
/// per-slot baseline at saturation.
const COMMIT_RANGE_SPEEDUP_FLOOR: f64 = 3.0;

/// Range sizes of the commit-channel amortization curve.
const COMMIT_RANGES: [usize; 4] = [1, 8, 32, 128];

/// Saturation floor of the digest-only RC fan-in at range 32 (slots/s).
const DEDUP_SATURATION_FLOOR: f64 = 100_000.0;

/// Ceiling on dedup-RC per-slot receiver CPU relative to IRMC-SC's at
/// range 32. SC receivers verify one signature per range and hash
/// content once — the dedup fan-in must stay within 2x of that even
/// though it still collects `fs` extra digest vouches.
const DEDUP_RX_CPU_RATIO_CEIL: f64 = 2.0;

/// Recovery-time ceiling of the WAN-partition disaster gate: goodput
/// must return to 90 % of pre-fault within this much simulated time
/// after the heal.
const DISASTER_RECOVERY_CEIL_MS: f64 = 10_000.0;

/// The fig7 cell the perf gate tracks: Spider with the leader in
/// Virginia zone 1, measured from Virginia clients.
const GATED_SYSTEM: &str = "SPIDER(leader=V-1)";
const GATED_REGION: &str = "virginia";

/// Minimum share of p99.9-cohort critical-path time the dominant
/// segment must hold for the tail-forensics gate: the differential
/// profile must *name* where the tail goes, not spread it thin.
const TAIL_DOMINANT_SHARE_FLOOR: f64 = 0.40;

/// Detection-latency ceiling of the watchdog gate: the WAN-partition
/// stall event must be stamped within this long of the cut.
const STALL_DETECT_CEIL: SimTime = SimTime::from_secs(2);

fn fig7_scale() -> ScenarioCfg {
    ScenarioCfg {
        clients_per_region: 3,
        rate_per_client: 2.0,
        duration: SimTime::from_secs(12),
        warmup: SimTime::from_secs(2),
        ..ScenarioCfg::default()
    }
}

/// Disaster scale: the same scaled-down clock the CI `disaster` job's
/// integration tests use (fault at 6 s, heal at 14 s, 24 s of load).
fn disaster_scale() -> disaster::Config {
    disaster::Config {
        clients_per_region: 2,
        rate_per_client: 3.0,
        fault_at: SimTime::from_secs(6),
        heal_at: SimTime::from_secs(14),
        duration: SimTime::from_secs(24),
        ..disaster::Config::default()
    }
}

fn fig10_scale() -> fig10::Config {
    fig10::Config {
        clients_per_region: 3,
        duration: SimTime::from_secs(40),
        join_at: SimTime::from_secs(25),
        bucket: SimTime::from_secs(5),
        ..fig10::Config::default()
    }
}

/// Formats a float for JSON (`null` for non-finite values).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_owned()
    }
}

/// Extracts the number following `"key":` in a (flat) JSON document.
/// Hand-rolled because the workspace builds offline without serde_json;
/// the documents it reads are the ones this binary writes.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the quoted string following `"key":` in a (flat) JSON
/// document. Same hand-rolled spirit as [`extract_number`]; the strings
/// it reads (segment names) never contain escapes.
fn extract_string<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Prints the non-silent-truncation warning for a traced run. Dropped
/// events skew aggregate profiles toward the retained window; the
/// exemplar reservoir (slowest-K + uniform sample) keeps full detail
/// for its requests regardless, so tail forensics stay possible.
fn warn_drops(label: &str, rep: &ObsReport) {
    if rep.spans_dropped > 0 || rep.edges_dropped > 0 {
        println!(
            "WARNING: {label} trace truncated ({} span events, {} edge events dropped); \
             aggregate profiles cover retained events only — use the {} exemplar \
             requests (slowest-K + uniform sample) for full-detail tail forensics",
            rep.spans_dropped,
            rep.edges_dropped,
            rep.exemplars.len()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_adaptive_batching.json".to_owned();
    let mut baseline_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args.get(i + 1).expect("--out needs a path").clone();
                i += 2;
            }
            "--check" => {
                baseline_path = Some(args.get(i + 1).expect("--check needs a path").clone());
                i += 2;
            }
            other => panic!("unknown argument: {other} (expected --out PATH / --check PATH)"),
        }
    }

    println!("bench_summary: fig7 write-latency sweep…");
    let fig7_rows = fig7::run(&fig7::Config { scenario: fig7_scale(), only: None });
    println!("{}", fig7::render(&fig7_rows));
    let fig7_cfg = fig7_scale();
    let fig7_measured = (fig7_cfg.duration - fig7_cfg.warmup).as_secs_f64();

    println!("bench_summary: traced Spider run (fig7 scale, end-to-end request tracing)…");
    let (_, spider_trace) = run_scenario_obs(SystemKind::Spider { leader_zone: 0 }, &fig7_scale());
    let phase_rows = obs_export::phase_breakdown(&spider_trace);
    println!("per-phase request latency breakdown (traced Spider run):");
    println!(
        "  {:<16} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "segment", "n", "p50[ms]", "p90[ms]", "p99[ms]", "mean[ms]"
    );
    for r in &phase_rows {
        println!(
            "  {:<16} {:>7} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            r.segment, r.count, r.p50_ms, r.p90_ms, r.p99_ms, r.mean_ms
        );
    }
    println!();

    println!("bench_summary: fig10 adaptability write workload…");
    let fig10_rows = fig10::run_write_summaries(&fig10_scale());
    for r in &fig10_rows {
        println!(
            "  {:<8} p50={:>7.1}ms p90={:>7.1}ms thruput={:>7.1}r/s",
            r.system, r.summary.p50_ms, r.summary.p90_ms, r.throughput_rps
        );
    }

    println!("\nbench_summary: batching ablation sweep…");
    let sweep_cfg = batching::Config::default();
    let sweep = batching::run(&sweep_cfg);
    println!("{}", batching::render(&sweep));

    println!("bench_summary: commit-channel range certification sweep…");
    let commit_cfg = commit_channel::Config::default();
    let commit_rows = commit_channel::run_range_sweep(&COMMIT_RANGES, &commit_cfg);
    println!("{}", commit_channel::render(&commit_rows));
    let commit_row = |variant: &str, range: usize| {
        commit_rows.iter().find(|r| r.variant == variant && r.range == range)
    };
    let commit_cell = |variant: &str, range: usize| {
        commit_row(variant, range).map(|r| r.slots_per_sec).unwrap_or(f64::NAN)
    };
    // Per-slot receiver CPU in µs of CPU per delivered slot (utilization
    // normalized by throughput — raw utilization is meaningless across
    // variants that saturate at different rates).
    let rx_us_per_slot = |variant: &str, range: usize| {
        commit_row(variant, range)
            .map(|r| r.receiver_cpu / r.slots_per_sec * 1e6)
            .unwrap_or(f64::NAN)
    };
    let commit_slots_range1 = commit_cell("IRMC-RC", 1);
    let commit_slots_range32 = commit_cell("IRMC-RC", 32);
    let commit_speedup = commit_slots_range32 / commit_slots_range1;
    println!(
        "commit-channel saturation: {commit_slots_range1:.0} slots/s per-slot -> \
         {commit_slots_range32:.0} slots/s at range 32 ({commit_speedup:.1}x)"
    );
    // Receiver cost of the digest-only fan-in, the commit mode Spider
    // deploys by default, against IRMC-SC's.
    let rc_dedup_rx_us = rx_us_per_slot("IRMC-RC", 32);
    let sc_rx_us = rx_us_per_slot("IRMC-SC", 32);
    println!("RC fan-in at range 32: receiver {rc_dedup_rx_us:.2} µs/slot (SC {sc_rx_us:.2})\n");

    println!("bench_summary: traced dedup-RC range-32 flood (CPU attribution)…");
    let (_, commit_trace) = commit_channel::run_flood_traced(
        ChannelMode::ReliableCast { dedup: true },
        32,
        &commit_cfg,
    );
    println!("{}", obs_export::cpu_table(&commit_trace));
    let top_sender = obs_export::top_op(&commit_trace, "sender");
    warn_drops("dedup-RC flood", &commit_trace);

    println!("bench_summary: differential critical-path profile (p99.9 vs p50 cohort)…");
    let commit_paths = causal::assemble(&commit_trace);
    let commit_profiles = causal::differential_profile(&commit_paths);
    for p in &commit_profiles {
        println!(
            "  cohort {:<5} {:>5} requests, mean latency {:.2} ms",
            p.cohort,
            p.requests,
            p.mean_latency.as_millis_f64()
        );
        for row in p.rows.iter().take(5) {
            println!(
                "    {:<32} {:>5.1}%  {:>9.3} ms  (in {} requests)",
                format!("{}/{}/{}", row.hop, row.component, row.op),
                row.share * 100.0,
                row.total.as_millis_f64(),
                row.count
            );
        }
    }
    // The tail-forensics headline: where does the p99.9 cohort's
    // critical-path time go?
    let (tail_dominant, tail_share) = commit_profiles
        .iter()
        .find(|p| p.cohort == "p999")
        .and_then(|p| p.rows.first())
        .map(|r| (format!("{}/{}/{}", r.hop, r.component, r.op), r.share))
        .unwrap_or_else(|| ("none".to_owned(), 0.0));
    println!(
        "  tail-dominant segment: {tail_dominant} ({:.0} % of p99.9-cohort \
         critical-path time)\n",
        tail_share * 100.0
    );

    println!("bench_summary: disaster suite…");
    let dis_cfg = disaster_scale();
    let (partition_traced_row, partition_trace) = disaster::run_wan_partition_traced(&dis_cfg);
    let mut disaster_rows = vec![disaster::run_correlated_outage(&dis_cfg), partition_traced_row];
    disaster_rows.push(disaster::run_view_change_storm(&dis_cfg));
    disaster_rows.extend(disaster::run_placement_sweep(&dis_cfg, &[0, 3]));
    println!("{}", disaster::render(&disaster_rows));
    let partition_row = disaster_rows
        .iter()
        .find(|r| r.scenario == "wan-partition")
        .expect("disaster suite includes the wan-partition scenario");
    warn_drops("wan-partition", &partition_trace);
    warn_drops("spider fig7", &spider_trace);

    // Watchdog event stream vs the known fault schedule: the partition
    // cut must surface as an IRMC window stall shortly after `fault_at`,
    // the first post-heal window movement as a recovery; the unfaulted
    // fig7 run must stay stall-free (false-positive check).
    let first_stall = partition_trace.health.iter().find_map(|e| match e {
        HealthEvent::IrmcWindowStall { at, .. } => Some(*at),
        _ => None,
    });
    let recover_after_heal = partition_trace
        .health
        .iter()
        .any(|e| matches!(e, HealthEvent::IrmcWindowRecover { at, .. } if *at > dis_cfg.heal_at));
    let fig7_stalls = spider_trace
        .health
        .iter()
        .filter(|e| matches!(e, HealthEvent::IrmcWindowStall { .. }))
        .count();
    println!(
        "watchdog: wan-partition first stall at {} (cut at {} ms), recovery after heal: \
         {recover_after_heal}; stalls in unfaulted fig7 run: {fig7_stalls}",
        first_stall.map_or_else(|| "none".to_owned(), |t| format!("{} ms", t.as_millis())),
        dis_cfg.fault_at.as_millis()
    );

    println!("bench_summary: IRMC-SC §A.9 overlap latency…");
    let overlap_cfg =
        commit_channel::Config { msg_size: 16 * 1024, ..commit_channel::Config::default() };
    let overlapped =
        commit_channel::run_paced(ChannelMode::SenderCast { overlap: true }, 64, &overlap_cfg);
    let after_bundle =
        commit_channel::run_paced(ChannelMode::SenderCast { overlap: false }, 64, &overlap_cfg);
    let sc_overlap_p50 = overlapped.commit_p50_ms;
    let sc_after_bundle_p50 = after_bundle.commit_p50_ms;
    println!(
        "SC commit p50: overlapped {sc_overlap_p50:.2} ms vs ship-after-bundle \
         {sc_after_bundle_p50:.2} ms\n"
    );

    // Headline number for the CI gate.
    let spider_p50 = fig7_rows
        .iter()
        .find(|r| r.system == GATED_SYSTEM && r.client_region == GATED_REGION)
        .map(|r| r.summary.p50_ms)
        .unwrap_or(f64::NAN);

    // Did adaptive beat the static policies where each is weak? At low
    // load, fixed-size batching wastes its linger (p50); at high load,
    // the seed's greedy cut (fixed max_batch, no delay cap) under-batches
    // (throughput).
    let cell = |mode: &str, rps: f64| sweep.iter().find(|r| r.mode == mode && r.offered_rps == rps);
    let low = sweep_cfg.loads.first().map(|l| l.offered_rps()).unwrap_or(f64::NAN);
    let high = sweep_cfg.loads.last().map(|l| l.offered_rps()).unwrap_or(f64::NAN);
    let low_win = match (cell("adaptive", low), cell("fixed", low)) {
        (Some(a), Some(f)) => a.summary.p50_ms < f.summary.p50_ms,
        _ => false,
    };
    let high_win = match (cell("adaptive", high), cell("greedy", high)) {
        (Some(a), Some(g)) => a.throughput_rps > g.throughput_rps,
        _ => false,
    };
    println!("adaptive beats fixed-size batching at low load (p50): {low_win}");
    println!("adaptive beats the greedy default at high load (throughput): {high_win}");

    let mut json = String::from("{\n  \"schema\": 4,\n");
    let _ = writeln!(json, "  \"fig7_spider_p50_ms\": {},", json_f64(spider_p50));
    let _ = writeln!(json, "  \"tail_dominant_segment\": \"{tail_dominant}\",");
    let _ = writeln!(json, "  \"tail_dominant_share\": {},", json_f64(tail_share));
    let _ = writeln!(json, "  \"flood_spans_dropped\": {},", commit_trace.spans_dropped);
    let _ = writeln!(json, "  \"flood_edges_dropped\": {},", commit_trace.edges_dropped);
    let _ = writeln!(json, "  \"partition_spans_dropped\": {},", partition_trace.spans_dropped);
    let _ = writeln!(
        json,
        "  \"partition_first_stall_ms\": {},",
        first_stall.map_or_else(|| "null".to_owned(), |t| json_f64(t.as_millis_f64()))
    );
    let _ = writeln!(json, "  \"partition_recover_after_heal\": {recover_after_heal},");
    let _ = writeln!(json, "  \"fig7_stall_events\": {fig7_stalls},");
    let _ = writeln!(json, "  \"adaptive_beats_fixed_low_load_p50\": {low_win},");
    let _ = writeln!(json, "  \"adaptive_beats_greedy_high_load_throughput\": {high_win},");
    let _ = writeln!(json, "  \"commit_slots_per_sec_range1\": {},", json_f64(commit_slots_range1));
    let _ =
        writeln!(json, "  \"commit_slots_per_sec_range32\": {},", json_f64(commit_slots_range32));
    let _ = writeln!(json, "  \"commit_range32_speedup\": {},", json_f64(commit_speedup));
    let _ = writeln!(json, "  \"rc_dedup_rx_us_per_slot\": {},", json_f64(rc_dedup_rx_us));
    let _ = writeln!(json, "  \"sc_rx_us_per_slot\": {},", json_f64(sc_rx_us));
    let _ = writeln!(json, "  \"sc_overlap_p50_ms\": {},", json_f64(sc_overlap_p50));
    let _ = writeln!(json, "  \"sc_ship_after_bundle_p50_ms\": {},", json_f64(sc_after_bundle_p50));
    json.push_str("  \"commit_channel\": [\n");
    for (i, r) in commit_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"variant\": \"{}\", \"range\": {}, \"slots_per_sec\": {}, \
             \"sender_cpu\": {}, \"receiver_cpu\": {}}}",
            r.variant,
            r.range,
            json_f64(r.slots_per_sec),
            json_f64(r.sender_cpu),
            json_f64(r.receiver_cpu)
        );
        json.push_str(if i + 1 < commit_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"fig7\": [\n");
    for (i, r) in fig7_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"system\": \"{}\", \"region\": \"{}\", \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \"p999_ms\": {}, \"throughput_rps\": {}}}",
            r.system,
            r.client_region,
            json_f64(r.summary.p50_ms),
            json_f64(r.summary.p90_ms),
            json_f64(r.summary.p99_ms),
            json_f64(r.summary.p999_ms),
            json_f64(r.summary.count as f64 / fig7_measured)
        );
        json.push_str(if i + 1 < fig7_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"fig10_writes\": [\n");
    for (i, r) in fig10_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"system\": \"{}\", \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \"p999_ms\": {}, \"throughput_rps\": {}}}",
            r.system,
            json_f64(r.summary.p50_ms),
            json_f64(r.summary.p90_ms),
            json_f64(r.summary.p99_ms),
            json_f64(r.summary.p999_ms),
            json_f64(r.throughput_rps)
        );
        json.push_str(if i + 1 < fig10_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"adaptive_batching\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"offered_rps\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \"throughput_rps\": {}}}",
            r.mode,
            json_f64(r.offered_rps),
            json_f64(r.summary.p50_ms),
            json_f64(r.summary.p90_ms),
            json_f64(r.summary.p99_ms),
            json_f64(r.throughput_rps)
        );
        json.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"phase_breakdown\": [\n");
    for (i, r) in phase_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"segment\": \"{}\", \"count\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \
             \"p99_ms\": {}, \"mean_ms\": {}}}",
            r.segment,
            r.count,
            json_f64(r.p50_ms),
            json_f64(r.p90_ms),
            json_f64(r.p99_ms),
            json_f64(r.mean_ms)
        );
        json.push_str(if i + 1 < phase_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"critical_path\": [\n");
    let cp_rows: Vec<_> =
        commit_profiles.iter().flat_map(|p| p.rows.iter().map(move |r| (p.cohort, r))).collect();
    for (i, (cohort, r)) in cp_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"cohort\": \"{}\", \"hop\": \"{}\", \"component\": \"{}\", \"op\": \"{}\", \
             \"total_ms\": {}, \"share\": {}, \"count\": {}}}",
            cohort,
            r.hop,
            r.component,
            r.op,
            json_f64(r.total.as_millis_f64()),
            json_f64(r.share),
            r.count
        );
        json.push_str(if i + 1 < cp_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"disaster\": [\n");
    for (i, r) in disaster_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"scenario\": \"{}\", \"pre_fault_rps\": {}, \"goodput_rps\": {}, \
             \"pre_fault_p50_ms\": {}, \"unavailability_ms\": {}, \"recovery_ms\": {}, \
             \"lost_ops\": {}, \"duplicated_ops\": {}, \"diverged_replicas\": {}, \
             \"final_view\": {}}}",
            r.scenario,
            json_f64(r.pre_fault_rps),
            json_f64(r.goodput_rps),
            json_f64(r.pre_fault_p50_ms),
            json_f64(r.unavailability_ms),
            r.recovery_ms.map_or_else(|| "null".to_owned(), json_f64),
            r.lost_ops,
            r.duplicated_ops,
            r.diverged_replicas,
            r.final_view
        );
        json.push_str(if i + 1 < disaster_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write bench summary JSON");
    println!("\nwrote {out_path}");

    // Trace artifacts: the Perfetto track view of the traced Spider run
    // and the folded stacks of the traced commit-channel flood.
    let perfetto_path = "BENCH_trace_perfetto.json";
    std::fs::write(perfetto_path, obs_export::perfetto_json(&spider_trace))
        .expect("write Perfetto trace");
    println!("wrote {perfetto_path}");
    let folded_path = "BENCH_cpu_folded.txt";
    std::fs::write(folded_path, obs_export::folded_stacks(&commit_trace))
        .expect("write folded stacks");
    println!("wrote {folded_path}");
    let cp_path = "BENCH_critical_path_folded.txt";
    std::fs::write(cp_path, obs_export::critical_path_folded(&commit_profiles))
        .expect("write critical-path folded stacks");
    println!("wrote {cp_path}");
    let health_path = "BENCH_health_events.jsonl";
    std::fs::write(health_path, obs_export::health_jsonl(&partition_trace))
        .expect("write health event stream");
    println!("wrote {health_path}");

    if let Some(path) = baseline_path {
        let baseline =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let base_p50 = extract_number(&baseline, "fig7_spider_p50_ms")
            .expect("baseline lacks fig7_spider_p50_ms");
        assert!(
            spider_p50.is_finite() && base_p50.is_finite() && base_p50 > 0.0,
            "fig7 Spider p50 unavailable (current {spider_p50}, baseline {base_p50})"
        );
        let limit = base_p50 * P50_REGRESSION_TOLERANCE;
        println!(
            "perf gate: fig7 {GATED_SYSTEM} {GATED_REGION} p50 = {spider_p50:.2} ms \
             (baseline {base_p50:.2} ms, limit {limit:.2} ms)"
        );
        if spider_p50 > limit {
            eprintln!(
                "PERF REGRESSION: p50 {spider_p50:.2} ms exceeds baseline {base_p50:.2} ms \
                 by more than {:.0} %",
                (P50_REGRESSION_TOLERANCE - 1.0) * 100.0
            );
            std::process::exit(1);
        }
        // The headline property of adaptive batching must keep holding,
        // not just be recorded.
        if !(low_win && high_win) {
            eprintln!(
                "ADAPTIVE-BATCHING REGRESSION: adaptive no longer beats the static \
                 policies (low-load p50 win: {low_win}, high-load throughput win: {high_win})"
            );
            std::process::exit(1);
        }
        // Commit-channel range certification must keep amortizing: >= 3x
        // the per-slot saturation throughput at range 32.
        println!(
            "perf gate: commit-channel range-32 speedup = {commit_speedup:.2}x \
             (floor {COMMIT_RANGE_SPEEDUP_FLOOR:.1}x)"
        );
        if !(commit_speedup.is_finite() && commit_speedup >= COMMIT_RANGE_SPEEDUP_FLOOR) {
            eprintln!(
                "COMMIT-CHANNEL REGRESSION: range 32 delivers only {commit_speedup:.2}x the \
                 per-slot saturation throughput (floor {COMMIT_RANGE_SPEEDUP_FLOOR:.1}x)"
            );
            std::process::exit(1);
        }
        // The digest-only fan-in must keep the RC receiver off the hash
        // wall: saturation above the floor, and per-slot receiver CPU
        // within the SC ratio ceiling.
        let rx_ratio = rc_dedup_rx_us / sc_rx_us;
        println!(
            "perf gate: dedup RC range-32 saturation = {commit_slots_range32:.0} slots/s \
             (floor {DEDUP_SATURATION_FLOOR:.0}), receiver {rc_dedup_rx_us:.2} µs/slot = \
             {rx_ratio:.2}x SC (ceiling {DEDUP_RX_CPU_RATIO_CEIL:.1}x)"
        );
        if !(commit_slots_range32.is_finite() && commit_slots_range32 > DEDUP_SATURATION_FLOOR) {
            eprintln!(
                "DEDUP REGRESSION: digest-only RC saturates at {commit_slots_range32:.0} slots/s \
                 at range 32 (floor {DEDUP_SATURATION_FLOOR:.0})"
            );
            std::process::exit(1);
        }
        if !(rx_ratio.is_finite() && rx_ratio <= DEDUP_RX_CPU_RATIO_CEIL) {
            eprintln!(
                "DEDUP REGRESSION: digest-only RC burns {rc_dedup_rx_us:.2} µs of receiver CPU \
                 per slot at range 32 = {rx_ratio:.2}x SC's {sc_rx_us:.2} µs \
                 (ceiling {DEDUP_RX_CPU_RATIO_CEIL:.1}x)"
            );
            std::process::exit(1);
        }
        // The §A.9 overlap must keep lowering IRMC-SC commit latency.
        println!(
            "perf gate: SC overlap p50 = {sc_overlap_p50:.2} ms vs ship-after-bundle \
             {sc_after_bundle_p50:.2} ms"
        );
        if !(sc_overlap_p50.is_finite()
            && sc_after_bundle_p50.is_finite()
            && sc_overlap_p50 < sc_after_bundle_p50)
        {
            eprintln!(
                "SC-OVERLAP REGRESSION: overlapped shipping no longer lowers commit latency \
                 ({sc_overlap_p50:.2} ms vs {sc_after_bundle_p50:.2} ms)"
            );
            std::process::exit(1);
        }
        // The WAN-partition disaster must stay loss-free and bounded:
        // zero lost/duplicated ops, every store converged, goodput back
        // to 90 % of pre-fault within the recovery ceiling.
        let recovery = partition_row.recovery_ms.unwrap_or(f64::INFINITY);
        println!(
            "disaster gate: wan-partition lost={} dup={} diverged={} recovery={:.0} ms \
             (ceiling {DISASTER_RECOVERY_CEIL_MS:.0} ms)",
            partition_row.lost_ops,
            partition_row.duplicated_ops,
            partition_row.diverged_replicas,
            recovery
        );
        if partition_row.lost_ops != 0
            || partition_row.duplicated_ops != 0
            || partition_row.diverged_replicas != 0
            || recovery > DISASTER_RECOVERY_CEIL_MS
        {
            eprintln!(
                "DISASTER REGRESSION: wan-partition lost {} ops, duplicated {}, \
                 {} diverged replicas, recovery {recovery:.0} ms \
                 (gate: 0 / 0 / 0 / <= {DISASTER_RECOVERY_CEIL_MS:.0} ms)",
                partition_row.lost_ops,
                partition_row.duplicated_ops,
                partition_row.diverged_replicas
            );
            std::process::exit(1);
        }
        // CPU attribution must keep naming range signing as the dominant
        // sender cost of the dedup-RC flood — if another operation takes
        // the top slot, either the attribution plumbing broke or the
        // sender picked up an unplanned hot spot.
        match top_sender {
            Some(("range_sign", share)) => {
                println!(
                    "obs gate: dedup-RC range-32 top sender op = range_sign \
                     ({:.0} % of sender CPU)",
                    share * 100.0
                );
            }
            other => {
                eprintln!(
                    "OBS REGRESSION: expected range_sign as the top sender operation of the \
                     dedup-RC range-32 flood, got {other:?}"
                );
                std::process::exit(1);
            }
        }
        // Smoke gate on the traced partition run: the commit channel
        // must have recast unacked ranges after the heal, otherwise the
        // post-partition catch-up worked by accident (or the trace lost
        // the recast instants).
        let recast_after_heal = partition_trace
            .spans
            .iter()
            .any(|e| e.phase == spider_obs::PHASE_RECAST && e.at > dis_cfg.heal_at);
        println!("obs gate: wan-partition trace has a recast span after heal: {recast_after_heal}");
        if !recast_after_heal {
            eprintln!(
                "OBS REGRESSION: traced wan-partition run recorded no commit-channel recast \
                 span after the heal at {} ms",
                dis_cfg.heal_at.as_millis()
            );
            std::process::exit(1);
        }
        // Tail forensics: the p99.9-cohort differential critical path
        // must keep *naming* the tail — a dominant segment matching the
        // baseline, holding at least the floor share. A shifted name
        // means the tail moved (or the edge/span plumbing broke); a
        // diluted share means the profile no longer localizes it.
        let base_tail = extract_string(&baseline, "tail_dominant_segment")
            .expect("baseline lacks tail_dominant_segment");
        println!(
            "tail gate: dominant p99.9 critical-path segment = {tail_dominant} at \
             {:.0} % (baseline {base_tail}, floor {:.0} %)",
            tail_share * 100.0,
            TAIL_DOMINANT_SHARE_FLOOR * 100.0
        );
        if tail_dominant != base_tail || tail_share < TAIL_DOMINANT_SHARE_FLOOR {
            eprintln!(
                "TAIL-FORENSICS REGRESSION: expected {base_tail} to dominate the p99.9 \
                 cohort's critical path with >= {:.0} % share, got {tail_dominant} at {:.0} %",
                TAIL_DOMINANT_SHARE_FLOOR * 100.0,
                tail_share * 100.0
            );
            std::process::exit(1);
        }
        // Watchdog: the partition cut must be detected as a window stall
        // within the ceiling, the heal must produce a recovery event,
        // and the unfaulted fig7 run must produce no stalls at all.
        let stall_deadline = dis_cfg.fault_at + STALL_DETECT_CEIL;
        let stall_ok = first_stall.is_some_and(|at| at >= dis_cfg.fault_at && at <= stall_deadline);
        println!(
            "watchdog gate: stall detected in [{}, {}] ms: {stall_ok}; recovery after \
             heal: {recover_after_heal}; unfaulted fig7 stalls: {fig7_stalls}",
            dis_cfg.fault_at.as_millis(),
            stall_deadline.as_millis()
        );
        if !stall_ok || !recover_after_heal || fig7_stalls != 0 {
            eprintln!(
                "WATCHDOG REGRESSION: first partition stall at {} (must land within {} ms \
                 of the cut at {} ms), recovery after heal: {recover_after_heal}, \
                 stalls in unfaulted fig7 run: {fig7_stalls} (must be 0)",
                first_stall.map_or_else(|| "none".to_owned(), |t| format!("{} ms", t.as_millis())),
                STALL_DETECT_CEIL.as_millis(),
                dis_cfg.fault_at.as_millis()
            );
            std::process::exit(1);
        }
        println!("perf gate: OK");
    }
}
