//! Criterion benches for the O(1)-statistics correlation kernel: naive vs
//! kernel vs bracket per-offset evaluation, full-set scans, and the one-time
//! `HostStats` build cost the MDB amortizes at insert time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use emap_bench::{build_mdb, input_factory};
use emap_datasets::SignalClass;
use emap_dsp::kernel::{HostStats, KernelCorrelator, Omega};
use emap_mdb::SignalSet;

fn bench_kernel(c: &mut Criterion) {
    let mdb = build_mdb(1);
    let factory = input_factory();
    let query = emap_bench::query_for(&factory, SignalClass::Seizure, 0, 6.0);
    let rc = query.correlator();
    let kc = KernelCorrelator::from_range(rc);

    let set = mdb.iter().next().expect("non-empty corpus");
    let host = set.samples();
    let offsets = (host.len() - kc.window_len() + 1) as u64;

    // The acceptance criterion: ≥ 3× per-offset speedup of the kernel over
    // the naive path on the paper's 256-sample window.
    let mut group = c.benchmark_group("per_offset");
    group.throughput(Throughput::Elements(offsets));
    group.bench_function(BenchmarkId::new("naive", offsets), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for beta in 0..offsets as usize {
                acc += rc.correlation_at(host, beta).expect("in bounds");
            }
            acc
        });
    });
    group.bench_function(BenchmarkId::new("kernel", offsets), |b| {
        let stats = set.stats();
        b.iter(|| {
            let mut acc = 0.0f64;
            for beta in 0..offsets as usize {
                acc += kc.correlation_at(host, stats, beta).expect("in bounds");
            }
            acc
        });
    });
    // What the sweep pays for a window it only has to place: the certified
    // f32 bracket instead of the f64 dot product.
    group.bench_function(BenchmarkId::new("bracket", offsets), |b| {
        let scan = kc.on_host(host, set.stats()).expect("window fits");
        b.iter(|| {
            let mut acc = 0.0f64;
            for beta in 0..offsets as usize {
                acc += match scan.at(beta) {
                    Omega::Exact(omega) => omega,
                    Omega::Bracket { lo, .. } => lo,
                };
            }
            acc
        });
    });
    group.finish();

    // The one-time cost the MDB pays per set at insert/load time.
    let mut group = c.benchmark_group("host_stats");
    group.throughput(Throughput::Elements(host.len() as u64));
    group.bench_function("build_1000", |b| {
        b.iter(|| HostStats::new(host));
    });
    group.finish();

    // Full corpus scans: the shape of an exhaustive search over many sets.
    let sets: Vec<&SignalSet> = mdb.iter().take(64).collect();
    let mut group = c.benchmark_group("full_scan");
    group.sample_size(10);
    group.throughput(Throughput::Elements(offsets * sets.len() as u64));
    group.bench_function(BenchmarkId::new("naive", sets.len()), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for set in &sets {
                for beta in 0..offsets as usize {
                    acc += rc.correlation_at(set.samples(), beta).expect("in bounds");
                }
            }
            acc
        });
    });
    group.bench_function(BenchmarkId::new("kernel", sets.len()), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for set in &sets {
                let stats = set.stats();
                for beta in 0..offsets as usize {
                    acc += kc
                        .correlation_at(set.samples(), stats, beta)
                        .expect("in bounds");
                }
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
