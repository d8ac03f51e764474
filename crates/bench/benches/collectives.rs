//! Criterion wall-clock benches of the collective substrate (figure F4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vmp_bench::common::cm2;
use vmp_hypercube::collective;
use vmp_hypercube::cost::CostModel;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::{NodeSlab, SegSlab};
use vmp_hypercube::spanning::{allreduce_rabenseifner, broadcast_scatter_allgather};

const DIM: u32 = 8;

/// Node 0 holds `len` elements; every other node holds none.
fn rooted(p: usize, len: usize) -> NodeSlab<f64> {
    let mut lens = vec![0; p];
    lens[0] = len;
    NodeSlab::filled(&lens, 1.0)
}

fn bench_broadcast_schedules(c: &mut Criterion) {
    let mut g = c.benchmark_group("f4_broadcast");
    g.sample_size(10);
    let dims: Vec<u32> = (0..DIM).collect();
    for len in [64usize, 4096] {
        for (name, cost, balanced) in [
            ("binomial", CostModel::cm2(), false),
            ("scatter_allgather", CostModel::cm2(), true),
            ("allport_esbt", CostModel::cm2_allport(), false),
        ] {
            g.bench_with_input(BenchmarkId::new(name, len), &len, |b, &len| {
                b.iter(|| {
                    let mut hc = Hypercube::new(DIM, cost);
                    let mut slab = rooted(hc.p(), len);
                    if balanced {
                        broadcast_scatter_allgather(&mut hc, &mut slab, &dims, 0);
                    } else {
                        collective::broadcast_slab(&mut hc, &mut slab, &dims, 0);
                    }
                    std::hint::black_box(slab)
                });
            });
        }
    }
    g.finish();
}

fn bench_allreduce_schedules(c: &mut Criterion) {
    let mut g = c.benchmark_group("f4_allreduce");
    g.sample_size(10);
    let dims: Vec<u32> = (0..DIM).collect();
    let labelled = |hc: &Hypercube, len: usize| {
        NodeSlab::from_nested(&hc.locals_from_fn(|n| vec![n as f64; len]))
    };
    for len in [64usize, 4096] {
        g.bench_with_input(BenchmarkId::new("butterfly", len), &len, |b, &len| {
            b.iter(|| {
                let mut hc = cm2(DIM);
                let mut slab = labelled(&hc, len);
                collective::allreduce_slab(&mut hc, &mut slab, &dims, |a, b| a + b);
                std::hint::black_box(slab)
            });
        });
        g.bench_with_input(BenchmarkId::new("rabenseifner", len), &len, |b, &len| {
            b.iter(|| {
                let mut hc = cm2(DIM);
                let mut slab = labelled(&hc, len);
                allreduce_rabenseifner(&mut hc, &mut slab, &dims, |a, b| a + b);
                std::hint::black_box(slab)
            });
        });
    }
    g.finish();
}

fn bench_scan_and_alltoall(c: &mut Criterion) {
    let mut g = c.benchmark_group("f4_scan_alltoall");
    g.sample_size(10);
    let dims: Vec<u32> = (0..DIM).collect();
    g.bench_function("scan_inclusive_256", |b| {
        b.iter(|| {
            let mut hc = cm2(DIM);
            let mut slab = NodeSlab::from_nested(&hc.locals_from_fn(|n| vec![n as u64; 256]));
            collective::scan_inclusive_slab(&mut hc, &mut slab, &dims, |a, b| a.wrapping_add(b));
            std::hint::black_box(slab)
        });
    });
    g.bench_function("alltoall_16_per_pair", |b| {
        b.iter(|| {
            let mut hc = cm2(DIM);
            let p = hc.p();
            let send: Vec<Vec<Vec<u32>>> =
                (0..p).map(|s| (0..p).map(|c| vec![(s * p + c) as u32; 16]).collect()).collect();
            let send = SegSlab::from_nested(&send, p);
            std::hint::black_box(collective::alltoall_slab(&mut hc, &send, &dims))
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_broadcast_schedules,
    bench_allreduce_schedules,
    bench_scan_and_alltoall
);
criterion_main!(benches);
