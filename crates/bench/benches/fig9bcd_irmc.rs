//! Figures 9b–9d — IRMC throughput, CPU usage, and network usage.

use criterion::{criterion_group, criterion_main, Criterion};
use spider_harness::experiments::fig9bcd;
use spider_irmc::ChannelMode;
use spider_types::SimTime;

fn regenerate() {
    let rows = fig9bcd::run(&fig9bcd::Config::default());
    println!("\n{}", fig9bcd::render(&rows));
}

fn bench(c: &mut Criterion) {
    regenerate();
    let quick = fig9bcd::Config {
        sizes: vec![1024],
        duration: SimTime::from_secs(2),
        ..fig9bcd::Config::default()
    };
    let mut g = c.benchmark_group("fig9bcd");
    g.sample_size(10);
    g.bench_function("irmc_rc_1kb_flood", |b| {
        b.iter(|| fig9bcd::run_point(ChannelMode::ReliableCast { dedup: true }, 1024, &quick))
    });
    g.bench_function("irmc_sc_1kb_flood", |b| {
        b.iter(|| fig9bcd::run_point(ChannelMode::SenderCast { overlap: true }, 1024, &quick))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
