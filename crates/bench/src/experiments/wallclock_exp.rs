//! WC — wall-clock benchmark of the slab data plane against the seed
//! nested-`Vec` path.
//!
//! Every other experiment in this harness reports **simulated** time;
//! this one reports **host** time, establishing the perf trajectory the
//! ROADMAP asks for. Each primitive is timed twice over the same data:
//!
//! * **seed**: the pre-slab implementation — per-node `Vec<Vec<T>>`
//!   buffers, hop-by-hop collectives from [`reference`], per-element
//!   `off / lc` address arithmetic — reproduced verbatim here;
//! * **slab**: the current arena-backed path (one contiguous allocation
//!   per container, analytic collective schedules, tiled kernels).
//!
//! Both paths run on identical fresh machines and their simulated
//! `elapsed_us` is asserted **bit-identical** before any wall-clock
//! number is reported: the data plane may only change how fast the host
//! simulates, never what the simulation says.
//!
//! Results are also written to `BENCH_wallclock.json` (or the
//! `--json-path` override) so future PRs have a baseline to regress
//! against; the write is guarded (see [`crate::baseline`]) so a smoke
//! run or a stale re-run never silently replaces a good baseline
//! without `--force`.

use serde::Serialize;
use vmp_algos::serial::SimplexStatus;
use vmp_algos::{gauss, matvec, simplex, workloads};
use vmp_core::prelude::*;
use vmp_core::primitives;
use vmp_hypercube::collective::{self, reference};
use vmp_hypercube::slab::{NodeSlab, SegSlab};
use vmp_hypercube::topology::Cube;

use crate::baseline::guarded_write;
use crate::common::{
    cm2, hash_entry, random_aligned_vector, random_dist_matrix, square_grid, time_ns,
};
use crate::experiments::RunOpts;
use crate::table::Table;

/// One benchmark measurement, as serialised into `BENCH_wallclock.json`.
#[derive(Debug, Clone, Serialize)]
pub struct WallclockEntry {
    /// Benchmark name (`collective/allreduce`, `primitive/reduce-row`, …).
    pub bench: String,
    /// Machine size.
    pub p: usize,
    /// Problem-size descriptor (matrix side, per-node elements, …).
    pub size: String,
    /// Mean nanoseconds per iteration, seed nested-Vec path (`None` for
    /// application rows, which have no preserved seed twin).
    pub seed_ns: Option<f64>,
    /// Mean nanoseconds per iteration, slab path.
    pub slab_ns: f64,
    /// `seed_ns / slab_ns` where both exist.
    pub speedup: Option<f64>,
    /// Simulated time charged per iteration (identical across paths).
    pub sim_us: f64,
    /// Host iterations timed.
    pub iters: usize,
}

/// Nested per-node blocks for `layout` — the seed storage representation,
/// filled exactly like [`random_dist_matrix`].
fn nested_matrix(layout: &MatrixLayout) -> Vec<Vec<f64>> {
    (0..layout.grid().p())
        .map(|node| layout.local_elements(node).map(|(i, j, _)| hash_entry(i, j)).collect())
        .collect()
}

/// Seed `reduce` along `Axis::Row`: per-node `Vec` partials + hop-by-hop
/// butterfly. Charges exactly what the slab path charges.
fn seed_reduce_row(
    hc: &mut Hypercube,
    locals: &[Vec<f64>],
    layout: &MatrixLayout,
) -> Vec<Vec<f64>> {
    let p = layout.grid().p();
    let mut partials: Vec<Vec<f64>> = Vec::with_capacity(p);
    for node in 0..p {
        let (lr, lc) = layout.local_shape(node);
        let buf = &locals[node];
        let mut acc = vec![0.0f64; lc];
        for li in 0..lr {
            let row = &buf[li * lc..(li + 1) * lc];
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        partials.push(acc);
    }
    hc.charge_flops(layout.max_local_len());
    reference::allreduce(hc, &mut partials, layout.grid().row_dims(), |a, b| a + b);
    partials
}

/// Seed `distribute` of a replicated row vector into `out_layout`
/// (communication-free: local replication from per-node chunk copies).
fn seed_distribute_row(
    hc: &mut Hypercube,
    chunks: &[Vec<f64>],
    out_layout: &MatrixLayout,
) -> Vec<Vec<f64>> {
    let chunks: Vec<Vec<f64>> = chunks.to_vec();
    let p = out_layout.grid().p();
    let mut locals: Vec<Vec<f64>> = Vec::with_capacity(p);
    for node in 0..p {
        let (lr, _lc) = out_layout.local_shape(node);
        let chunk = &chunks[node];
        let mut buf = Vec::with_capacity(out_layout.local_len(node));
        for _ in 0..lr {
            buf.extend_from_slice(chunk);
        }
        locals.push(buf);
    }
    hc.charge_moves(out_layout.max_local_len());
    locals
}

/// Seed `rank1_update` (`a -= c * r`): per-element `off / lc`, `off % lc`
/// address arithmetic over nested buffers.
fn seed_rank1(
    hc: &mut Hypercube,
    locals: &mut [Vec<f64>],
    layout: &MatrixLayout,
    col_chunks: &[Vec<f64>],
    row_chunks: &[Vec<f64>],
) {
    for node in 0..layout.grid().p() {
        let lc = layout.local_shape(node).1;
        let buf = &mut locals[node];
        let col_chunk = &col_chunks[node];
        let row_chunk = &row_chunks[node];
        for (_i, _j, off) in layout.local_elements(node) {
            let li = off / lc.max(1);
            let lj = off % lc.max(1);
            buf[off] -= col_chunk[li] * row_chunk[lj];
        }
    }
    hc.charge_flops(2 * layout.max_local_len());
}

struct Sizes {
    dims: Vec<u32>,
    n: usize,        // matrix side for primitive benches
    coll_len: usize, // per-node elements for collective benches
    app_n: usize,    // matrix side for application benches
    iters: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes { dims: vec![4], n: 32, coll_len: 64, app_n: 16, iters: 2 }
    } else {
        Sizes { dims: vec![6, 8, 10], n: 256, coll_len: 1024, app_n: 64, iters: 30 }
    }
}

/// WC: wall-clock of the slab data plane vs the seed nested-Vec path.
/// `opts.smoke` shrinks everything to a CI-sized run; `opts.json_path`
/// and `opts.force` steer the guarded baseline write.
#[must_use]
pub fn wallclock(opts: &RunOpts) -> Table {
    let smoke = opts.smoke;
    let s = sizes(smoke);
    let mut entries: Vec<WallclockEntry> = Vec::new();

    for &dim in &s.dims {
        let p = 1usize << dim;
        let all_dims: Vec<u32> = Cube::new(dim).iter_dims().collect();

        // --- collective: allreduce over the whole cube -------------------
        {
            let make_nested = || -> Vec<Vec<f64>> {
                (0..p).map(|n| (0..s.coll_len).map(|i| hash_entry(n, i)).collect()).collect()
            };
            let mut hc_seed = cm2(dim);
            let mut nested = make_nested();
            let seed_ns = time_ns(s.iters, || {
                reference::allreduce(&mut hc_seed, &mut nested, &all_dims, |a, b| a + b);
            });
            let mut hc_slab = cm2(dim);
            let mut slab = NodeSlab::from_nested(&make_nested());
            let slab_ns = time_ns(s.iters, || {
                collective::allreduce_slab(&mut hc_slab, &mut slab, &all_dims, |a, b| a + b);
            });
            assert_eq!(
                hc_seed.elapsed_us(),
                hc_slab.elapsed_us(),
                "allreduce simulated time must be bit-identical"
            );
            entries.push(WallclockEntry {
                bench: "collective/allreduce".into(),
                p,
                size: format!("{} elems/node", s.coll_len),
                seed_ns: Some(seed_ns),
                slab_ns,
                speedup: Some(seed_ns / slab_ns),
                sim_us: hc_slab.elapsed_us() / (s.iters + 1) as f64, // +1: warm-up run
                iters: s.iters,
            });
        }

        // --- collective: all-to-all over the whole cube ------------------
        {
            let block = (s.coll_len / p).max(1);
            let send: Vec<Vec<Vec<f64>>> = (0..p)
                .map(|src| (0..p).map(|c| vec![hash_entry(src, c); block]).collect())
                .collect();
            let mut hc_seed = cm2(dim);
            let seed_ns =
                time_ns(s.iters, || reference::alltoall(&mut hc_seed, send.clone(), &all_dims));
            let send_slab = SegSlab::from_nested(&send, p);
            let mut hc_slab = cm2(dim);
            let slab_ns =
                time_ns(s.iters, || collective::alltoall_slab(&mut hc_slab, &send_slab, &all_dims));
            assert_eq!(
                hc_seed.elapsed_us(),
                hc_slab.elapsed_us(),
                "alltoall simulated time must be bit-identical"
            );
            entries.push(WallclockEntry {
                bench: "collective/alltoall".into(),
                p,
                size: format!("{block} elems/block"),
                seed_ns: Some(seed_ns),
                slab_ns,
                speedup: Some(seed_ns / slab_ns),
                sim_us: hc_slab.elapsed_us() / (s.iters + 1) as f64, // +1: warm-up run
                iters: s.iters,
            });
        }

        // --- primitives on an n x n cyclic matrix ------------------------
        let grid = square_grid(dim);
        let m = random_dist_matrix(s.n, grid.clone());
        let layout = m.layout().clone();
        let nested = nested_matrix(&layout);

        // reduce along rows
        {
            let mut hc_seed = cm2(dim);
            let seed_ns = time_ns(s.iters, || seed_reduce_row(&mut hc_seed, &nested, &layout));
            let mut hc_slab = cm2(dim);
            let slab_ns = time_ns(s.iters, || primitives::reduce(&mut hc_slab, &m, Axis::Row, Sum));
            assert_eq!(
                hc_seed.elapsed_us(),
                hc_slab.elapsed_us(),
                "reduce simulated time must be bit-identical"
            );
            entries.push(WallclockEntry {
                bench: "primitive/reduce-row".into(),
                p,
                size: format!("{0}x{0}", s.n),
                seed_ns: Some(seed_ns),
                slab_ns,
                speedup: Some(seed_ns / slab_ns),
                sim_us: hc_slab.elapsed_us() / (s.iters + 1) as f64, // +1: warm-up run
                iters: s.iters,
            });
        }

        // distribute a replicated row vector into an n x n matrix
        {
            let v = random_aligned_vector(&m, Axis::Row);
            let chunks = v.chunks().to_nested();
            let mut hc_seed = cm2(dim);
            let seed_ns = time_ns(s.iters, || seed_distribute_row(&mut hc_seed, &chunks, &layout));
            let mut hc_slab = cm2(dim);
            let slab_ns =
                time_ns(s.iters, || primitives::distribute(&mut hc_slab, &v, s.n, Dist::Cyclic));
            assert_eq!(
                hc_seed.elapsed_us(),
                hc_slab.elapsed_us(),
                "distribute simulated time must be bit-identical"
            );
            entries.push(WallclockEntry {
                bench: "primitive/distribute".into(),
                p,
                size: format!("{0}x{0}", s.n),
                seed_ns: Some(seed_ns),
                slab_ns,
                speedup: Some(seed_ns / slab_ns),
                sim_us: hc_slab.elapsed_us() / (s.iters + 1) as f64, // +1: warm-up run
                iters: s.iters,
            });
        }

        // rank-1 update (the GE / simplex inner kernel)
        {
            let col = random_aligned_vector(&m, Axis::Col);
            let row = random_aligned_vector(&m, Axis::Row);
            let col_chunks = col.chunks().to_nested();
            let row_chunks = row.chunks().to_nested();
            let mut nested_m = nested.clone();
            let mut hc_seed = cm2(dim);
            let seed_ns = time_ns(s.iters, || {
                seed_rank1(&mut hc_seed, &mut nested_m, &layout, &col_chunks, &row_chunks);
            });
            let mut slab_m = m.clone();
            let mut hc_slab = cm2(dim);
            let slab_ns = time_ns(s.iters, || {
                slab_m.rank1_update(&mut hc_slab, &col, &row, |_, _, a, c, r| a - c * r);
            });
            assert_eq!(
                hc_seed.elapsed_us(),
                hc_slab.elapsed_us(),
                "rank1_update simulated time must be bit-identical"
            );
            // Same arithmetic in the same order: both copies drift
            // identically through the repeated updates.
            let dense = slab_m.to_dense();
            for (i, drow) in dense.iter().enumerate() {
                for (j, &d) in drow.iter().enumerate() {
                    let node = layout.owner(i, j);
                    let off = layout.local_offset(i, j);
                    assert_eq!(d, nested_m[node][off], "rank1 payload divergence at ({i},{j})");
                }
            }
            entries.push(WallclockEntry {
                bench: "primitive/rank1-update".into(),
                p,
                size: format!("{0}x{0}", s.n),
                seed_ns: Some(seed_ns),
                slab_ns,
                speedup: Some(seed_ns / slab_ns),
                sim_us: hc_slab.elapsed_us() / (s.iters + 1) as f64, // +1: warm-up run
                iters: s.iters,
            });
        }

        // --- applications (slab path only: the perf trajectory) ----------
        {
            let x = random_aligned_vector(&m, Axis::Row);
            let mut hc = cm2(dim);
            let ns = time_ns(s.iters, || matvec(&mut hc, &m, &x));
            entries.push(WallclockEntry {
                bench: "app/matvec".into(),
                p,
                size: format!("{0}x{0}", s.n),
                seed_ns: None,
                slab_ns: ns,
                speedup: None,
                sim_us: hc.elapsed_us() / (s.iters + 1) as f64, // +1: warm-up run
                iters: s.iters,
            });
        }
        {
            let (a, b, _) = workloads::diag_dominant_system(s.app_n, s.app_n as u64);
            let ge_layout = MatrixLayout::cyclic(MatShape::new(s.app_n, s.app_n + 1), grid.clone());
            let mut sim_us = 0.0;
            let ns = time_ns(1, || {
                let mut hc = cm2(dim);
                let mut aug = DistMatrix::from_fn(ge_layout.clone(), |i, j| {
                    if j < s.app_n {
                        a.get(i, j)
                    } else {
                        b[i]
                    }
                });
                let r = gauss::ge_solve_dist(&mut hc, &mut aug).expect("diag dominant");
                sim_us = hc.elapsed_us();
                r
            });
            entries.push(WallclockEntry {
                bench: "app/gauss".into(),
                p,
                size: format!("n={}", s.app_n),
                seed_ns: None,
                slab_ns: ns,
                speedup: None,
                sim_us,
                iters: 1,
            });
        }
        {
            let lp = workloads::random_dense_lp(s.app_n, s.app_n, 7);
            let mut sim_us = 0.0;
            let ns = time_ns(1, || {
                let mut hc = cm2(dim);
                let r = simplex::solve_parallel(&mut hc, &lp, grid.clone(), 10_000);
                assert_eq!(r.status, SimplexStatus::Optimal);
                sim_us = hc.elapsed_us();
                r
            });
            entries.push(WallclockEntry {
                bench: "app/simplex".into(),
                p,
                size: format!("{0}x{0}", s.app_n),
                seed_ns: None,
                slab_ns: ns,
                speedup: None,
                sim_us,
                iters: 1,
            });
        }
    }

    if !smoke {
        // The slab data plane must never lose to the seed path at full
        // sizes — the committed baseline is also a regression gate.
        // (Smoke runs are too noisy at 2 iterations to enforce this.)
        for e in &entries {
            if e.bench == "primitive/reduce-row" {
                let speedup = e.speedup.expect("comparison row");
                assert!(
                    speedup >= 1.0,
                    "primitive/reduce-row regressed at p={}: {speedup:.2}x (slab slower than seed)",
                    e.p
                );
            }
        }
    }

    // Emit the JSON baseline wherever the harness runs (guarded: a
    // smoke run or a stale re-run never replaces a good baseline).
    let path = opts.json_path.as_deref().unwrap_or("BENCH_wallclock.json");
    let outcome = guarded_write(path, &entries, smoke, opts.force);

    let mut t = Table::new(
        "WC",
        if smoke {
            "wall-clock: slab data plane vs seed nested-Vec path (smoke sizes)"
        } else {
            "wall-clock: slab data plane vs seed nested-Vec path"
        },
        "host time of the simulator itself — not a paper claim; the repo's own perf baseline",
        &["bench", "p", "size", "seed/iter", "slab/iter", "speedup", "sim time"],
    );
    for e in &entries {
        t.row(vec![
            e.bench.clone(),
            e.p.to_string(),
            e.size.clone(),
            e.seed_ns.map_or_else(|| "-".into(), fmt_ns),
            fmt_ns(e.slab_ns),
            e.speedup.map_or_else(|| "-".into(), |x| format!("{x:.2}x")),
            crate::table::fmt_us(e.sim_us),
        ]);
    }
    t.note(format!("{} ({} entries)", outcome.describe(path), entries.len()));
    t.note("simulated elapsed_us asserted bit-identical between seed and slab paths");
    if smoke {
        t.note("smoke sizes — timings indicative only; run without --smoke for the baseline");
    }
    t
}

/// Format nanoseconds human-scaled.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}us", ns / 1_000.0)
    } else {
        format!("{:.2}ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_and_slab_reduce_agree_on_payload_and_clock() {
        let dim = 4u32;
        let grid = square_grid(dim);
        let m = random_dist_matrix(24, grid);
        let layout = m.layout().clone();
        let nested = nested_matrix(&layout);
        let mut hc_seed = cm2(dim);
        let partials = seed_reduce_row(&mut hc_seed, &nested, &layout);
        let mut hc_slab = cm2(dim);
        let v = primitives::reduce(&mut hc_slab, &m, Axis::Row, Sum);
        assert_eq!(hc_seed.elapsed_us(), hc_slab.elapsed_us());
        assert_eq!(hc_seed.counters(), hc_slab.counters());
        assert_eq!(v.chunks().to_nested(), partials);
    }

    #[test]
    fn smoke_run_produces_rows_for_every_bench() {
        let mut path = std::env::temp_dir();
        path.push(format!("vmp-wallclock-test-{}.json", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let opts = RunOpts { smoke: true, force: true, json_path: Some(path.clone()) };
        let t = wallclock(&opts);
        assert_eq!(t.rows.len(), 8, "5 comparisons + 3 applications on one cube");
        let json = std::fs::read_to_string(&path).expect("bench json written");
        let _ = std::fs::remove_file(&path);
        assert!(json.contains("\"smoke\": true"), "envelope records the run mode: {json}");
        assert!(json.contains("primitive/reduce-row"), "{json}");
    }
}
