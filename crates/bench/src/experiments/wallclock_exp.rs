//! WC — host wall-clock of the simulator's own kernels.
//!
//! Every other experiment in this harness reports **simulated** time;
//! this one reports **host** time, establishing the perf trajectory the
//! ROADMAP asks for. Each row times one collective, primitive or
//! application of the slab data plane on a fresh machine and records
//! the simulated time it charges per iteration, so a host-speed change
//! can be checked for moving nothing the simulation says. (That the
//! slab path is bit-identical to the seed nested-`Vec` path is a test
//! matter: `tests/data_plane.rs`.)
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
use vmp_hypercube::collective;
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
    /// Mean host nanoseconds per iteration.
    pub host_ns: f64,
    /// Simulated time charged per iteration.
    pub sim_us: f64,
    /// Host iterations timed.
    pub iters: usize,
}

/// Time `iters` calls of `f` on one fresh `dim`-cube (after the warm-up
/// call [`time_ns`] makes) and report the simulated time per call.
fn timed<R>(
    bench: &str,
    dim: u32,
    size: String,
    iters: usize,
    mut f: impl FnMut(&mut Hypercube) -> R,
) -> WallclockEntry {
    let mut hc = cm2(dim);
    let host_ns = time_ns(iters, || f(&mut hc));
    WallclockEntry {
        bench: bench.into(),
        p: hc.p(),
        size,
        host_ns,
        sim_us: hc.elapsed_us() / (iters + 1) as f64, // +1: warm-up run
        iters,
    }
}

/// Time one call of `f` on a fresh `dim`-cube (after a warm-up call on
/// another) and report the simulated time of that call.
fn timed_once<R>(
    bench: &str,
    dim: u32,
    size: String,
    mut f: impl FnMut(&mut Hypercube) -> R,
) -> WallclockEntry {
    let mut sim_us = 0.0;
    let host_ns = time_ns(1, || {
        let mut hc = cm2(dim);
        let r = f(&mut hc);
        sim_us = hc.elapsed_us();
        r
    });
    WallclockEntry { bench: bench.into(), p: 1 << dim, size, host_ns, sim_us, iters: 1 }
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

/// WC: host wall-clock of the slab data plane.
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

        // --- collectives over the whole cube -----------------------------
        let nested: Vec<Vec<f64>> =
            (0..p).map(|n| (0..s.coll_len).map(|i| hash_entry(n, i)).collect()).collect();
        let mut slab = NodeSlab::from_nested(&nested);
        entries.push(timed(
            "collective/allreduce",
            dim,
            format!("{} elems/node", s.coll_len),
            s.iters,
            |hc| collective::allreduce_slab(hc, &mut slab, &all_dims, |a, b| a + b),
        ));

        let block = (s.coll_len / p).max(1);
        let send: Vec<Vec<Vec<f64>>> =
            (0..p).map(|src| (0..p).map(|c| vec![hash_entry(src, c); block]).collect()).collect();
        let send = SegSlab::from_nested(&send, p);
        entries.push(timed(
            "collective/alltoall",
            dim,
            format!("{block} elems/block"),
            s.iters,
            |hc| collective::alltoall_slab(hc, &send, &all_dims),
        ));

        // --- primitives on an n x n cyclic matrix ------------------------
        let grid = square_grid(dim);
        let m = random_dist_matrix(s.n, grid.clone());
        let square = format!("{0}x{0}", s.n);

        entries.push(timed("primitive/reduce-row", dim, square.clone(), s.iters, |hc| {
            primitives::reduce(hc, &m, Axis::Row, Sum)
        }));

        // distribute a replicated row vector into an n x n matrix
        let v = random_aligned_vector(&m, Axis::Row);
        entries.push(timed("primitive/distribute", dim, square.clone(), s.iters, |hc| {
            primitives::distribute(hc, &v, s.n, Dist::Cyclic)
        }));

        // rank-1 update (the GE / simplex inner kernel)
        let col = random_aligned_vector(&m, Axis::Col);
        let row = random_aligned_vector(&m, Axis::Row);
        let mut updated = m.clone();
        entries.push(timed("primitive/rank1-update", dim, square.clone(), s.iters, |hc| {
            updated.rank1_update(hc, &col, &row, |_, _, a, c, r| a - c * r);
        }));

        // --- applications ------------------------------------------------
        let x = random_aligned_vector(&m, Axis::Row);
        entries.push(timed("app/matvec", dim, square, s.iters, |hc| matvec(hc, &m, &x)));
        let (a, b, _) = workloads::diag_dominant_system(s.app_n, s.app_n as u64);
        let ge_layout = MatrixLayout::cyclic(MatShape::new(s.app_n, s.app_n + 1), grid.clone());
        entries.push(timed_once("app/gauss", dim, format!("n={}", s.app_n), |hc| {
            let mut aug = DistMatrix::from_fn(ge_layout.clone(), |i, j| {
                if j < s.app_n {
                    a.get(i, j)
                } else {
                    b[i]
                }
            });
            gauss::ge_solve_dist(hc, &mut aug).expect("diag dominant")
        }));
        let lp = workloads::random_dense_lp(s.app_n, s.app_n, 7);
        entries.push(timed_once("app/simplex", dim, format!("{0}x{0}", s.app_n), |hc| {
            let r = simplex::solve_parallel(hc, &lp, grid.clone(), 10_000);
            assert_eq!(r.status, SimplexStatus::Optimal);
            r
        }));
    }

    // Emit the JSON baseline wherever the harness runs (guarded: a
    // smoke run or a stale re-run never replaces a good baseline).
    let path = opts.json_path.as_deref().unwrap_or("BENCH_wallclock.json");
    let outcome = guarded_write(path, &entries, smoke, opts.force);

    let mut t = Table::new(
        "WC",
        if smoke {
            "wall-clock: host time of the slab data plane (smoke sizes)"
        } else {
            "wall-clock: host time of the slab data plane"
        },
        "host time of the simulator itself — not a paper claim; the repo's own perf baseline",
        &["bench", "p", "size", "host/iter", "sim time"],
    );
    for e in &entries {
        t.row(vec![
            e.bench.clone(),
            e.p.to_string(),
            e.size.clone(),
            fmt_ns(e.host_ns),
            crate::table::fmt_us(e.sim_us),
        ]);
    }
    t.note(format!("{} ({} entries)", outcome.describe(path), entries.len()));
    t.note("bit-identity with the seed path is tested in tests/data_plane.rs");
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
    fn smoke_run_produces_rows_for_every_bench() {
        let mut path = std::env::temp_dir();
        path.push(format!("vmp-wallclock-test-{}.json", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let opts = RunOpts { smoke: true, force: true, json_path: Some(path.clone()) };
        let t = wallclock(&opts);
        assert_eq!(t.rows.len(), 8, "5 kernels + 3 applications on one cube");
        let json = std::fs::read_to_string(&path).expect("bench json written");
        let _ = std::fs::remove_file(&path);
        assert!(json.contains("\"smoke\": true"), "envelope records the run mode: {json}");
        assert!(json.contains("primitive/reduce-row"), "{json}");
    }
}
