//! The Gaussian-elimination workloads: a closed loop of
//! `gauss::ge_solve_dist` calls, and the traced column-by-column drive
//! with its public-primitive replay (also used on the scheduler's
//! elimination jobs).

use std::time::Instant;

use vmp_algos::gauss::{
    back_substitute, build_augmented, forward_eliminate_range, ge_solve_dist, GeError, GeStats,
    GE_EPS,
};
use vmp_algos::serial::{lu_solve, Dense};
use vmp_algos::workloads;
use vmp_core::prelude::*;
use vmp_hypercube::collective::{allreduce_slab, broadcast_slab};
use vmp_hypercube::{Counters, Cube, FaultPlan, NodeSlab, ResilientConfig};

use crate::host::HostClock;
use crate::layers::Layers;
use crate::report::{median, secs, Report};
use crate::spans::Spans;

/// One GE workload: machine dimension, system size, cost model.
pub struct GeSpec {
    pub dim: u32,
    pub n: usize,
    pub cost: CostModel,
}

pub fn spec(workload: &str) -> Option<GeSpec> {
    match workload {
        "ge-p1024-n64" => Some(GeSpec { dim: 10, n: 64, cost: CostModel::cm2() }),
        "ge-p64-n512-allport" => Some(GeSpec { dim: 6, n: 512, cost: CostModel::cm2_allport() }),
        _ => None,
    }
}

/// Largest allowed |difference| between a solution and both the
/// generator's `x_true` and the serial LU solution.
pub const TOL: f64 = 1e-8;
/// Untimed solves before the timed loop.
const WARMUP: usize = 2;
/// Fewest timed solves, so `host_ms_p90` has ten samples above it.
const MIN_SOLVES: usize = 100;
/// `charge_exchange_step` calls per unit-cost sample.
const CHARGE_REPS: u64 = 32;
/// The timed primitives of the replay, in report order.
pub const PRIMS: [&str; 5] = [
    "vmp.extract",
    "vmp.extract_replicated",
    "vmp.insert",
    "vmp.reduce_lifted",
    "vmp.rank1_update",
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded system `(A, b, x_true)`: `diag_dominant_system` with its
/// equations shuffled by the seed. The solution is unchanged, but
/// partial pivoting now swaps rows, so the swap path (row `extract` +
/// `insert`) runs and the simulated time depends on the seed.
pub fn system(n: usize, seed: u64) -> (Dense, Vec<f64>, Vec<f64>) {
    let (a, b, x_true) = workloads::diag_dominant_system(n, seed);
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x5eed_9e0f;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let pa = Dense::from_fn(n, n, |i, j| a.get(perm[i], j));
    let pb = perm.iter().map(|&r| b[r]).collect();
    (pa, pb, x_true)
}

fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    if x.len() != y.len() {
        return f64::INFINITY;
    }
    x.iter().zip(y).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
}

/// The solution checks: close to `x_true` and to the serial LU solve.
fn solution_ok(x: &[f64], x_true: &[f64], x_lu: &[f64]) -> bool {
    max_abs_diff(x, x_true) <= TOL && max_abs_diff(x, x_lu) <= TOL
}

struct Inputs {
    grid: ProcGrid,
    a: Dense,
    b: Vec<f64>,
    x_true: Vec<f64>,
    x_lu: Vec<f64>,
    aug: DistMatrix<f64>,
}

/// One set-up: generate and shuffle the system, then distribute it.
fn set_up(w: &GeSpec, seed: u64, grid: &ProcGrid) -> (Dense, Vec<f64>, Vec<f64>, DistMatrix<f64>) {
    let (a, b, x_true) = system(w.n, seed);
    let aug = build_augmented(&a, &b, grid.clone());
    (a, b, x_true, aug)
}

fn inputs(w: &GeSpec, seed: u64) -> Inputs {
    let grid = ProcGrid::square(Cube::new(w.dim));
    let (a, b, x_true, aug) = set_up(w, seed, &grid);
    let x_lu = lu_solve(&a, &b).unwrap_or_default();
    Inputs { grid, a, b, x_true, x_lu, aug }
}

/// The timed closed loop. The set-up is repeated once per solve, outside
/// the timed region, so that `setup_s` is a median over the same span of
/// time as the host metrics.
pub fn run_timed(w: &GeSpec, seed: u64, seconds: f64, rep: &mut Report) {
    let inp = inputs(w, seed);
    let mut sim_us = None;
    for _ in 0..WARMUP {
        let mut hc = Hypercube::new(w.dim, w.cost);
        let _ = ge_solve_dist(&mut hc, &mut inp.aug.clone());
        sim_us.get_or_insert(hc.elapsed_us());
    }
    let first = sim_us.unwrap_or_default();
    let mut clock = HostClock::new(1);
    let solve = |rep: &mut Report, clock: &mut HostClock| -> (Counters, GeStats) {
        let mut hc = Hypercube::new(w.dim, w.cost);
        let mut aug = inp.aug.clone();
        let stats = match clock.op(|| ge_solve_dist(&mut hc, &mut aug)) {
            Ok((x, stats)) => {
                rep.check(solution_ok(&x, &inp.x_true, &inp.x_lu), || {
                    format!("solution off by {:e}", max_abs_diff(&x, &inp.x_true))
                });
                stats
            }
            Err(e) => {
                rep.check(false, || format!("solve failed: {e:?}"));
                GeStats::default()
            }
        };
        let elapsed = hc.elapsed_us();
        rep.check(first.to_bits() == elapsed.to_bits(), || {
            format!("simulated time {elapsed} differs from {first}")
        });
        (*hc.counters(), stats)
    };
    let mut last = (Counters::default(), GeStats::default());
    let start = Instant::now();
    while secs(start) < seconds || (clock.samples() < MIN_SOLVES && secs(start) < 4.0 * seconds) {
        last = solve(rep, &mut clock);
        clock.setup(|| set_up(w, seed, &inp.grid));
    }
    let (c, stats) = last;
    clock.report(rep, 1.0, c.message_steps as f64);
    let sim_ms = first / 1e3;
    rep.metric("sim_ms", sim_ms, "ms");
    rep.metric("sim_p99_ms", sim_ms, "ms");
    rep.metric("sim_jobs_per_s", 1e3 / sim_ms, "1/s");
    rep.metric("sim_max_rate_jobs_per_s", 1e3 / sim_ms, "1/s");
    rep.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    rep.note(format!(
        "# {} timed solves; per solve: {} message steps ({} all-port), {} row swaps",
        clock.samples(),
        c.message_steps,
        c.allport_steps,
        stats.row_swaps
    ));
    rep.note("# sim_wait_p99_ms: n/a (closed loop, no queue)".into());
}

/// Counter deltas and counts gathered next to the spans.
#[derive(Default)]
pub struct GeTally {
    /// Message supersteps charged inside each of [`PRIMS`].
    pub prim_steps: [u64; 5],
    /// Matrix elements the replayed rank-1 updates touched.
    pub rank1_elems: u64,
    /// Supersteps charged by the direct collective calls.
    pub coll_steps: u64,
    /// Direct `charge_exchange_step` calls without / with a fault plan.
    pub charge_calls: u64,
    pub charge_faulted_calls: u64,
    /// Elimination steps the replay guard compared, and how many differed.
    pub steps_checked: u64,
    pub guard_failures: u64,
    /// Counters of each traced solve.
    pub counters: Vec<Counters>,
}

fn same_payload(a: &DistMatrix<f64>, b: &DistMatrix<f64>) -> bool {
    a.layout() == b.layout()
        && a.to_dense().iter().flatten().map(|v| v.to_bits()).eq(b
            .to_dense()
            .iter()
            .flatten()
            .map(|v| v.to_bits()))
}

/// Solve with elimination driven one column at a time through the
/// public `forward_eliminate_range(k, k+1)`, then `back_substitute`,
/// each call spanned. After every column the step is replayed from the
/// same state through the primitive calls it is made of, and the replay
/// must leave payload, clock and counters bit-identical (the replay
/// guard). Unit costs of the collectives and of the machine's charge
/// are then sampled at that step's shapes.
pub fn traced_solve(
    sp: &mut Spans,
    op: u64,
    hc: &mut Hypercube,
    aug: &mut DistMatrix<f64>,
    tally: &mut GeTally,
) -> Result<Vec<f64>, GeError> {
    let n = aug.shape().rows;
    let mut stats = GeStats::default();
    let x = sp.span("op.ge_solve", op, |sp| {
        for k in 0..n {
            let (mut rhc, mut raug) = (hc.clone(), aug.clone());
            sp.leaf("algos.forward_eliminate_range", op, || {
                forward_eliminate_range(hc, aug, k, k + 1, &mut stats)
            })?;
            let before = *rhc.counters();
            let replayed = sp.span("bench.replay_step", op, |sp| {
                replay_step(sp, op, &mut rhc, &mut raug, k, tally)
            });
            let same = replayed
                && same_payload(&raug, aug)
                && rhc.elapsed_us().to_bits() == hc.elapsed_us().to_bits()
                && rhc.counters() == hc.counters();
            tally.steps_checked += 1;
            if !same {
                tally.guard_failures += 1;
                eprintln!("replay guard: column {k} differs from forward_eliminate_range");
            }
            let step = rhc.counters().since(&before);
            sp.span("bench.unit_costs", op, |sp| unit_costs(sp, op, hc, aug, k, step, tally));
        }
        Ok(sp.leaf("algos.back_substitute", op, || back_substitute(hc, aug)))
    })?;
    tally.counters.push(*hc.counters());
    Ok(x)
}

/// Run one primitive call inside its span and record its counter deltas.
fn prim<R>(
    sp: &mut Spans,
    op: u64,
    which: usize,
    hc: &mut Hypercube,
    tally: &mut GeTally,
    f: impl FnOnce(&mut Hypercube) -> R,
) -> R {
    let before = *hc.counters();
    let r = sp.leaf(PRIMS[which], op, || f(hc));
    let d = hc.counters().since(&before);
    tally.prim_steps[which] += d.message_steps;
    r
}

/// Elimination step `k` as the sequence of public primitive calls that
/// `gauss` makes for it. Returns false when no pivot is found.
fn replay_step(
    sp: &mut Spans,
    op: u64,
    hc: &mut Hypercube,
    aug: &mut DistMatrix<f64>,
    k: usize,
    tally: &mut GeTally,
) -> bool {
    let n = aug.shape().rows;
    let width = aug.shape().cols;
    let col = prim(sp, op, 0, hc, tally, |hc| extract(hc, aug, Axis::Col, k));
    let piv = prim(sp, op, 3, hc, tally, |hc| {
        col.reduce_lifted(hc, ArgMaxAbs, |i, v| {
            if i >= k {
                Loc::new(v, i)
            } else {
                Loc::new(0.0, usize::MAX)
            }
        })
    });
    if piv.index == usize::MAX || piv.value.abs() < GE_EPS {
        return false;
    }
    if piv.index != k {
        let rk = prim(sp, op, 0, hc, tally, |hc| extract(hc, aug, Axis::Row, k));
        let rp = prim(sp, op, 0, hc, tally, |hc| extract(hc, aug, Axis::Row, piv.index));
        prim(sp, op, 2, hc, tally, |hc| insert(hc, aug, Axis::Row, k, &rp));
        prim(sp, op, 2, hc, tally, |hc| insert(hc, aug, Axis::Row, piv.index, &rk));
    }
    let row_k = prim(sp, op, 1, hc, tally, |hc| extract_replicated(hc, aug, Axis::Row, k));
    let col_k = prim(sp, op, 1, hc, tally, |hc| extract_replicated(hc, aug, Axis::Col, k));
    let akk = piv.value;
    prim(sp, op, 4, hc, tally, |hc| {
        aug.rank1_update_ranged(
            hc,
            &col_k,
            &row_k,
            k + 1..n,
            k + 1..width,
            move |_, _, a, c, r| a - (c / akk) * r,
        );
    });
    prim(sp, op, 4, hc, tally, |hc| {
        aug.rank1_update_ranged(hc, &col_k, &row_k, k + 1..n, k..k + 1, |_, _, _, _, _| 0.0);
    });
    tally.rank1_elems += ((n - k - 1) * (width - k)) as u64;
    true
}

/// Direct calls to the collectives and the machine charge at step
/// `k`'s shapes: the pivot row and column broadcasts, the one-element
/// all-reduce of the pivot search, and `charge_exchange_step` over a
/// butterfly's `p/2` pairs at the step's mean per-channel load.
fn unit_costs(
    sp: &mut Spans,
    op: u64,
    hc: &Hypercube,
    aug: &DistMatrix<f64>,
    k: usize,
    step: Counters,
    tally: &mut GeTally,
) {
    let mut scratch = Hypercube::new(hc.dim(), *hc.cost());
    scratch.set_algo_select(hc.algo_select());
    let p = scratch.p();
    let grid = aug.layout().grid().clone();
    for axis in [Axis::Row, Axis::Col] {
        let v = extract(&mut scratch, aug, axis, k);
        let VecEmbedding::Aligned { placement: Placement::Concentrated(line), .. } =
            v.layout().embedding()
        else {
            continue;
        };
        let (dims, root) = match axis {
            Axis::Row => (grid.row_dims().to_vec(), grid.row_coord(*line)),
            Axis::Col => (grid.col_dims().to_vec(), grid.col_coord(*line)),
        };
        let mut chunks = v.chunks().clone();
        let before = scratch.counters().message_steps;
        sp.leaf("hypercube.broadcast_slab", op, || {
            broadcast_slab(&mut scratch, &mut chunks, &dims, root);
        });
        tally.coll_steps += scratch.counters().message_steps - before;
    }
    let dims: Vec<u32> = scratch.cube().iter_dims().collect();
    let mut partials = NodeSlab::filled(&vec![1; p], 0.0f64);
    let before = scratch.counters().message_steps;
    sp.leaf("hypercube.allreduce_slab", op, || {
        allreduce_slab(&mut scratch, &mut partials, &dims, f64::max);
    });
    tally.coll_steps += scratch.counters().message_steps - before;

    if p < 2 {
        return;
    }
    let pairs: Vec<(usize, usize)> = (0..p).step_by(2).map(|a| (a, a | 1)).collect();
    let per_channel = step
        .elements_transferred
        .checked_div(step.message_steps * pairs.len() as u64)
        .map_or(1, |l| l.max(1) as usize);
    let total = per_channel as u64 * pairs.len() as u64;
    let mut plain = Hypercube::new(hc.dim(), *hc.cost());
    sp.leaf("hypercube.charge_exchange_step", op, || {
        for _ in 0..CHARGE_REPS {
            plain.charge_exchange_step(std::hint::black_box(&pairs), per_channel, total);
        }
    });
    tally.charge_calls += CHARGE_REPS;
    let mut faulted = Hypercube::new(hc.dim(), *hc.cost());
    faulted.install_faults(
        FaultPlan::none(k as u64).with_drops(0.02, 0, u64::MAX),
        ResilientConfig::default(),
    );
    sp.leaf("hypercube.charge_exchange_step_faulted", op, || {
        for _ in 0..CHARGE_REPS {
            faulted.charge_exchange_step(std::hint::black_box(&pairs), per_channel, total);
        }
    });
    tally.charge_faulted_calls += CHARGE_REPS;
}

/// Fill the GE-derived per-layer metrics from the spans and the tally.
pub fn ge_layers(sp: &Spans, tally: &GeTally, l: &mut Layers) {
    let fwd = sp.total_ns("algos.forward_eliminate_range");
    let back = sp.total_ns("algos.back_substitute");
    let steps = sp.durations("algos.forward_eliminate_range");
    if !steps.is_empty() {
        l.ge_step_us_p50 = median(&steps) / 1e3;
    }
    l.ge_back_sub_share = ratio(back, fwd + back);
    let replay = sp.total_ns("bench.replay_step");
    let prim_ns: Vec<f64> = PRIMS.iter().map(|name| sp.total_ns(name)).collect();
    for (share, ns) in l.prim_self_share.iter_mut().zip(&prim_ns) {
        *share = ratio(*ns, replay);
    }
    let rank1_ns = prim_ns[4];
    l.rank1_ns_per_elem = ratio(rank1_ns, tally.rank1_elems as f64);
    l.rank1_bytes_per_s = ratio(16.0 * tally.rank1_elems as f64, rank1_ns / 1e9);
    l.primitive_ns_per_step =
        ratio(prim_ns.iter().sum(), tally.prim_steps.iter().sum::<u64>() as f64);
    let coll = sp.total_ns("hypercube.broadcast_slab") + sp.total_ns("hypercube.allreduce_slab");
    l.collective_ns_per_step = ratio(coll, tally.coll_steps as f64);
    l.charge_ns_per_step =
        ratio(sp.total_ns("hypercube.charge_exchange_step"), tally.charge_calls as f64);
    l.charge_ns_per_step_faulted = ratio(
        sp.total_ns("hypercube.charge_exchange_step_faulted"),
        tally.charge_faulted_calls as f64,
    );
    l.guard_steps = tally.steps_checked as f64;
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sum of span durations per operation for the spans named in `names`.
pub fn per_op_ns(sp: &Spans, names: &[&str], ops: u64) -> Vec<f64> {
    let mut per = vec![0.0; ops as usize];
    for name in names {
        for s in sp.named(name) {
            if let Some(slot) = per.get_mut(s.op as usize) {
                *slot += s.ns();
            }
        }
    }
    per
}

/// The traced run: traced solves alternate with untraced ones, whose
/// difference is the tracing overhead.
pub fn run_traced(w: &GeSpec, seed: u64, seconds: f64, rep: &mut Report) -> Spans {
    let inp = inputs(w, seed);
    let mut sp = Spans::new();
    let mut tally = GeTally::default();
    let mut untraced = Vec::new();
    let mut op = 0u64;
    let start = Instant::now();
    while secs(start) < seconds || op < 3 {
        let mut hc = Hypercube::new(w.dim, w.cost);
        let t = Instant::now();
        let r = ge_solve_dist(&mut hc, &mut inp.aug.clone());
        untraced.push(secs(t));
        rep.check(r.is_ok_and(|(x, _)| solution_ok(&x, &inp.x_true, &inp.x_lu)), || {
            "untraced solve failed its check".into()
        });

        let mut aug = sp.leaf("layout.build_augmented", op, || {
            build_augmented(&inp.a, &inp.b, inp.grid.clone())
        });
        let mut hc = Hypercube::new(w.dim, w.cost);
        let guard_before = tally.guard_failures;
        let r = traced_solve(&mut sp, op, &mut hc, &mut aug, &mut tally);
        rep.check(
            tally.guard_failures == guard_before
                && r.is_ok_and(|x| solution_ok(&x, &inp.x_true, &inp.x_lu)),
            || format!("traced solve {op} failed its check or the replay guard"),
        );
        op += 1;
    }
    let mut l = Layers::default();
    ge_layers(&sp, &tally, &mut l);
    l.set_counts(tally.counters.iter(), tally.counters.len() as f64);
    l.build_ms = median(&sp.durations("layout.build_augmented")) / 1e6;
    let traced = per_op_ns(&sp, &["algos.forward_eliminate_range", "algos.back_substitute"], op);
    l.trace_overhead_ms = (median(&traced) / 1e6) - median(&untraced) * 1e3;
    l.emit(rep);
    rep.note(format!(
        "# {op} traced solves; replay guard compared {} steps, {} differed",
        tally.steps_checked, tally.guard_failures
    ));
    sp
}
