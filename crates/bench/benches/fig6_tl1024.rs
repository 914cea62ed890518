//! Criterion bench regenerating Figure 6(b): ensemble speedup at thread
//! limit 1024 (see `fig6_tl32.rs` for the structure).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgc_bench::{measure_config, smoke_workloads};
use gpu_arch::GpuSpec;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_tl1024");
    group.sample_size(10);
    let a100 = GpuSpec::a100_40gb();
    for workload in smoke_workloads() {
        for &n in &[1u32, 8, 64] {
            if workload.name == "pagerank" && n > 4 {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(workload.name, n), &n, |b, &n| {
                b.iter(|| {
                    let t = measure_config(&a100, &workload, n, 1024, None).time_s;
                    assert!(t.is_some());
                    t
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
