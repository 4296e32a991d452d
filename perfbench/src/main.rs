//! Two-clock benchmark of the Spider reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on the deterministic simulator as a few sub-runs
//! seeded from `--seed`, repeated while another repetition fits in
//! `--seconds` of host time. With `--trace 0` it prints the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of separate traced runs plus the
//! sans-IO calibration. A table goes to standard output first; the last
//! line is one JSON object. Any failed check exits non-zero, naming the
//! workload and the check. `README.md` gives every metric's clock.

mod calib;
mod gate;
mod layers;
mod stats;
mod workload;

use layers::{HostProbe, Metric};
use stats::median;
use std::time::{Duration, Instant};
use workload::{sub_seed, Measured, Workload};

/// Set-up batches timed before each sub-run for `setup_s`.
const SETUP_BATCHES: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = Workload::parse(get("--workload")?)
        .ok_or(format!("unknown workload; expected one of {}", names.join(", ")))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Peak resident memory of this process in MiB, from `/proc`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One untraced sub-run: what the clients saw and its host seconds,
/// set-up excluded.
fn untraced(w: Workload, seed: u64) -> Result<(Measured, f64), String> {
    let mut run = workload::build(w, seed, false);
    let t = Instant::now();
    run.drive(None)?;
    let host = secs(t);
    Ok((run.measure()?, host))
}

/// One traced sub-run: what the clients saw, the per-layer metrics and
/// its host seconds.
fn traced(w: Workload, seed: u64) -> Result<(Measured, Vec<Metric>, f64), String> {
    let mut run = workload::build(w, seed, true);
    let mut probe = HostProbe::new(&run);
    let t = Instant::now();
    run.drive(Some(&mut probe))?;
    let host = secs(t);
    let measured = run.measure()?;
    let report = run.sim.obs().report();
    if report.spans_dropped > 0 {
        return Err(format!(
            "{} trace spans dropped, the phase budget is partial",
            report.spans_dropped
        ));
    }
    let metrics = layers::metrics(&run, &probe, &report, &measured)?;
    Ok((measured, metrics, host))
}

/// Whether one more repetition, timed like the mean of the `done` ones
/// since `start`, still ends within `budget`.
fn fits_again(start: Instant, done: usize, budget: Duration) -> bool {
    let elapsed = start.elapsed();
    elapsed + elapsed / done as u32 <= budget
}

fn row(name: &str, value: f64, unit: &str, clock: &str) {
    println!("{name:<42} {value:>16.6} {unit:<6} {clock}");
}

/// Untraced sub-runs, each after a few set-up and reference batches,
/// while another fits in the time budget: the end-to-end metrics.
fn end_to_end(a: &Args, budget: Duration) -> Result<(u64, u64, Vec<Metric>), String> {
    let spec = a.workload.spec();
    // The shared host runs the same code at speeds up to 1.6 times
    // apart, in periods of seconds to minutes. So before every sub-run,
    // and once after the last, a fixed reference workload is timed, and
    // each timing is scaled to the reference's nominal speed at the
    // readings beside it. A set-up is well under a millisecond, so it is
    // timed in batches, next to the same readings.
    let (mut setup, mut setup_raw) = (Vec::new(), Vec::new());
    let mut read_speed = || {
        let build = || workload::build(a.workload, sub_seed(a.seed, 0), false);
        let ns = calib::batches(1.0, SETUP_BATCHES, || drop(std::hint::black_box(build())));
        let reference = median(&mut calib::batches(1.0, SETUP_BATCHES, calib::reference));
        for ns in ns {
            setup_raw.push(ns / 1e9);
            setup.push(ns / 1e9 * calib::REFERENCE_NS / reference);
        }
        reference
    };
    // Sub-runs in turn, each at least once, while another fits in the
    // budget.
    let start = Instant::now();
    let (mut first, mut timed, mut readings): (Vec<Measured>, Vec<(usize, f64)>, Vec<f64>) =
        (Vec::new(), Vec::new(), Vec::new());
    while timed.len() < spec.sims || fits_again(start, timed.len(), budget) {
        let i = timed.len() % spec.sims;
        readings.push(read_speed());
        let (m, h) = untraced(a.workload, sub_seed(a.seed, i))?;
        timed.push((i, h));
        match first.get(i) {
            None => first.push(m),
            Some(f) if *f != m => return Err(format!("sub-run {i} changed when repeated")),
            Some(_) => {}
        }
    }
    readings.push(read_speed());
    // Sub-runs differ in work, so `host_s` is the mean over sub-runs of
    // each one's median time, whatever the repeats.
    let (mut host, mut host_raw) = (vec![Vec::new(); spec.sims], vec![Vec::new(); spec.sims]);
    for (j, &(i, h)) in timed.iter().enumerate() {
        host_raw[i].push(h);
        host[i].push(h * 2.0 * calib::REFERENCE_NS / (readings[j] + readings[j + 1]));
    }
    let mean_median =
        |runs: &mut [Vec<f64>]| runs.iter_mut().map(|h| median(h)).sum::<f64>() / runs.len() as f64;
    let mut metrics: Vec<Metric> =
        vec![("setup_s", "s", median(&mut setup)), ("host_s", "s", mean_median(&mut host))];
    metrics.extend(workload::virtual_metrics(&first, &spec)?);
    for &(name, unit, v) in &metrics {
        let host_clock = ["setup_s", "host_s"].contains(&name);
        row(name, v, unit, if host_clock { "host" } else { "virtual" });
    }
    let issued: u64 = first.iter().map(|m| m.issued).sum();
    let completed: u64 = first.iter().map(|m| m.completed).sum();
    row("failed_share", (issued - completed) as f64 / issued as f64, "ratio", "virtual");
    // Printed, not in the JSON: on write-saturation a single sub-run
    // raises it by about 20 MiB on some seeds, so it does not repeat
    // well enough to carry a bound.
    row("peak_rss_mb", peak_rss_mb()?, "MiB", "host");
    row("setup_s as measured", median(&mut setup_raw), "s", "host");
    row("host_s as measured", mean_median(&mut host_raw), "s", "host");
    row("reference", median(&mut readings), "ns", "host");
    println!("{} sub-runs, {} timed, {} set-up batches", spec.sims, timed.len(), setup.len());
    Ok((issued, issued - completed, metrics))
}

/// Calibration, then pairs of an untraced and a traced copy of the first
/// sub-run while another pair fits in the time budget: the per-layer
/// metrics.
fn per_layer(a: &Args, budget: Duration) -> Result<(u64, u64, Vec<Metric>), String> {
    let start = Instant::now();
    let calibration = calib::run()?;
    let calibrated = start.elapsed();
    let seed = sub_seed(a.seed, 0);
    let (mut host, mut traced_host, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let pairs = Instant::now();
    while runs.is_empty() || fits_again(pairs, runs.len(), budget.saturating_sub(calibrated)) {
        let (plain, h) = untraced(a.workload, seed)?;
        host.push(h);
        let (m, layers, h) = traced(a.workload, seed)?;
        if m != plain {
            return Err("tracing changed the virtual results".into());
        }
        traced_host.push(h);
        runs.push(layers);
        first = Some(m);
    }
    // Host-clock layer metrics vary run to run: report their medians.
    let mut metrics: Vec<Metric> = runs[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| {
            let mut v: Vec<f64> = runs.iter().map(|r| r[i].2).collect();
            (name, unit, median(&mut v))
        })
        .collect();
    metrics.push(("obs.traced_host_ratio", "ratio", median(&mut traced_host) / median(&mut host)));
    for &(name, unit, v) in &metrics {
        let host_clock = name.contains("host") || unit == "ns";
        row(name, v, unit, if host_clock { "host" } else { "virtual" });
    }
    println!("calibration, host clock (spread = IQR / median of the batches):");
    for r in &calibration {
        let model = match r.model {
            Some((_, ns, modelled)) => {
                format!("model {ns:>10.1} ns{}", if modelled { "  modelled" } else { "" })
            }
            None => String::new(),
        };
        println!(
            "  {:<28} {:>12.3} {:<3} spread {:>6.3}  {model}",
            r.name, r.timing.ns, r.unit, r.timing.spread
        );
        metrics.push((r.name, r.unit, r.timing.ns));
        if let Some((ratio, ns, _)) = r.model {
            metrics.push((ratio, "ratio", r.timing.ns / ns));
        }
    }
    for (name, t) in calib::modelled() {
        println!(
            "  {name:<28} {:>12} {:<3} {:>13}  model {:>10.1} ns  modelled",
            "-",
            "",
            "",
            t.as_nanos() as f64
        );
    }
    let m = first.expect("at least one run");
    Ok((m.issued, m.issued - m.completed, metrics))
}

fn run() -> Result<String, String> {
    let a = parse_args()?;
    let budget = Duration::from_secs(a.seconds);
    let (issued, failed, metrics) =
        if a.trace { per_layer(&a, budget) } else { end_to_end(&a, budget) }
            .map_err(|e| format!("workload {}: {e}", a.workload.name()))?;
    let mut json = Vec::new();
    for (name, unit, v) in metrics {
        if !v.is_finite() {
            return Err(format!("workload {}: metric {name} is {v}", a.workload.name()));
        }
        json.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {issued}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    ))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
