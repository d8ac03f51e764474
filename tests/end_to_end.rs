//! Cross-crate integration tests: full pipelines from workload
//! generation through the primitives to verified results.

use four_vmp::algos::serial::{self, simplex_solve, SimplexStatus};
use four_vmp::algos::{gauss, simplex, vecmat, workloads};
use four_vmp::core::elem::{Max, Sum};
use four_vmp::core::{naive, primitives};
use four_vmp::prelude::*;

fn machine(dim: u32) -> Hypercube {
    Hypercube::cm2(dim)
}

fn grid(dim: u32) -> ProcGrid {
    ProcGrid::square(Cube::new(dim))
}

use four_vmp::hypercube::{Counters, Cube};

#[test]
fn full_linear_solve_pipeline() {
    // Generate -> distribute -> eliminate -> back-substitute -> verify
    // against both the ground truth and the serial oracle.
    for dim in [0u32, 3, 5] {
        let n = 24;
        let (a, b, x_true) = workloads::diag_dominant_system(n, 2024);
        let mut hc = machine(dim);
        let (x, _) = gauss::ge_solve(&mut hc, &a, &b, grid(dim)).expect("nonsingular");
        let serial_x = serial::lu_solve(&a, &b).expect("nonsingular");
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-8, "truth, dim {dim}");
            assert!((x[i] - serial_x[i]).abs() < 1e-8, "oracle, dim {dim}");
        }
        assert!(hc.elapsed_us() > 0.0, "work was charged");
    }
}

#[test]
fn full_lp_pipeline_bit_matches_serial() {
    for seed in [1u64, 2, 3] {
        let lp = workloads::random_dense_lp(10, 8, seed);
        let mut hc = machine(4);
        let par = simplex::solve_parallel(&mut hc, &lp, grid(4), 1000);
        let ser = simplex_solve(&lp, 1000);
        assert_eq!(par.status, SimplexStatus::Optimal);
        assert_eq!(par.objective, ser.objective, "seed {seed}");
        assert_eq!(par.x, ser.x, "seed {seed}");
        assert!(lp.is_feasible(&par.x, 1e-7));
    }
}

#[test]
fn matvec_pipeline_with_embedding_changes() {
    // A vector arriving in the "wrong" (linear) embedding flows through
    // an automatic remap into the multiply.
    let n = 40;
    let d = workloads::random_matrix(n, n, 9);
    let xh = workloads::random_vector(n, 10);
    let g = grid(4);
    let a = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), g.clone()), |i, j| {
        d.get(i, j)
    });
    let x = DistVector::from_slice(VectorLayout::linear(n, g, Dist::Block), &xh);
    let mut hc = machine(4);
    let y = vecmat(&mut hc, &x, &a);
    let expect = d.vecmat(&xh);
    for (u, v) in y.to_dense().iter().zip(&expect) {
        assert!((u - v).abs() < 1e-10);
    }
}

#[test]
fn primitives_compose_into_power_iteration() {
    // A fourth application, composed only from the public API: a few
    // steps of power iteration y <- normalise(A y) on a symmetric
    // positive matrix.
    let n = 16;
    let g = grid(4);
    let a = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), g.clone()), |i, j| {
        1.0 / ((i + j + 1) as f64) + if i == j { 2.0 } else { 0.0 }
    });
    let mut hc = machine(4);
    let mut y = DistVector::constant(
        VectorLayout::aligned(n, g, Axis::Row, Placement::Replicated, Dist::Cyclic),
        1.0f64,
    );
    let mut lambda = 0.0;
    for _ in 0..30 {
        let ay = four_vmp::algos::matvec(&mut hc, &a, &y); // col-aligned
        lambda = ay.reduce_all(&mut hc, Max);
        // Normalise and re-orient for the next multiply.
        let normalised = ay.map(&mut hc, |_, v| v / lambda);
        y = four_vmp::core::remap::remap_vector(&mut hc, &normalised, y.layout().clone());
    }
    // Rayleigh-quotient check: A y ~= lambda y.
    let ay = four_vmp::algos::matvec(&mut hc, &a, &y);
    let yd = y.to_dense();
    let ayd = ay.to_dense();
    for i in 0..n {
        assert!((ayd[i] - lambda * yd[i]).abs() < 1e-6 * lambda, "eigenpair residual at {i}");
    }
    assert!(lambda > 2.0, "dominant eigenvalue exceeds the diagonal shift");
}

#[test]
fn naive_and_primitive_implementations_agree_end_to_end() {
    let n = 20;
    let g = grid(4);
    let a = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), g), |i, j| {
        ((i * 7 + j * 11) % 13) as f64
    });
    let mut h1 = machine(4);
    let mut h2 = machine(4);
    let r1 = naive::naive_reduce(&mut h1, &a, Axis::Col, Sum);
    let r2 = primitives::reduce(&mut h2, &a, Axis::Col, Sum);
    assert_eq!(r1.to_dense(), r2.to_dense());
    assert!(h1.elapsed_us() > h2.elapsed_us(), "and the naive one is slower");
}

#[test]
fn counters_tell_a_consistent_story() {
    // Cross-checks between the clock and the counters: zero counters
    // imply zero time; message steps imply alpha charges.
    let n = 32;
    let g = grid(6);
    let a =
        DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), g), |i, j| (i + j) as f64);
    let mut hc = machine(6);
    let (_, extract_delta) =
        Counters::scoped(&mut hc, |hc| primitives::extract(hc, &a, Axis::Row, 3));
    assert_eq!(extract_delta.message_steps, 0, "extract is local");
    assert!(extract_delta.local_moves > 0);

    let cost = *hc.cost();
    let t0 = hc.elapsed_us();
    let (_, reduce_delta) =
        Counters::scoped(&mut hc, |hc| primitives::reduce(hc, &a, Axis::Row, Sum));
    let dt = hc.elapsed_us() - t0;
    let steps = reduce_delta.message_steps;
    assert!(dt >= cost.alpha * steps as f64, "every superstep pays at least alpha");
}

/// FNV-1a over 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Payload bits, clock bits and every counter of one run, as words.
fn run_words(x: &[f64], hc: &Hypercube) -> Vec<u64> {
    let c = hc.counters();
    let mut words: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
    words.push(hc.elapsed_us().to_bits());
    words.extend([
        c.message_steps,
        c.allport_steps,
        c.elements_transferred,
        c.max_channel_load,
        c.flops,
        c.local_moves,
        c.router_elements,
        c.router_cycles,
        c.transient_drops,
        c.retries,
        c.reroutes,
        c.detour_hops,
        c.node_remaps,
        c.migrated_elements,
    ]);
    words
}

#[test]
fn substitution_fingerprints_are_pinned() {
    // Characterisation: elimination + back substitution and LU solve
    // over machine sizes, both layouts, both port models and a
    // transient-drop fault plan. Any change to a payload bit, the
    // simulated clock or a counter moves the fingerprint.
    use four_vmp::algos::lu;
    use four_vmp::hypercube::{CostModel, FaultPlan, ResilientConfig};
    let mut words = Vec::new();
    for (n, dim) in [(7usize, 0u32), (12, 3), (20, 5), (16, 6)] {
        let (a, b, _) = workloads::diag_dominant_system(n, 31 + n as u64);
        for cost in [CostModel::cm2(), CostModel::cm2_allport()] {
            for dist in [Dist::Cyclic, Dist::Block] {
                for faulted in [false, true] {
                    let mut hc = Hypercube::new(dim, cost);
                    if faulted {
                        let plan = FaultPlan::none(5).with_drops(0.1, 0, u64::MAX);
                        hc.install_faults(plan, ResilientConfig::default());
                    }
                    let layout = MatrixLayout::new(MatShape::new(n, n + 1), grid(dim), dist, dist);
                    let mut aug =
                        DistMatrix::from_fn(layout, |i, j| if j < n { a.get(i, j) } else { b[i] });
                    gauss::forward_eliminate(&mut hc, &mut aug).expect("nonsingular");
                    let x = gauss::back_substitute(&mut hc, &aug);
                    words.extend(run_words(&x, &hc));

                    let layout = MatrixLayout::new(MatShape::new(n, n), grid(dim), dist, dist);
                    let am = DistMatrix::from_fn(layout, |i, j| a.get(i, j));
                    let f = lu::lu_factor_dist(&mut hc, &am).expect("nonsingular");
                    let x = f.solve(&mut hc, &b);
                    words.extend(run_words(&x, &hc));
                }
            }
        }
    }
    assert_eq!(
        fnv1a(words),
        1_047_049_381_528_007_889,
        "fingerprint recorded before the fused forms"
    );
}

#[test]
fn row_interchange_fingerprints_are_pinned() {
    // Characterisation of the row interchange: pivot-stress systems
    // swap rows at every even step, so every elimination runs the
    // extract/insert swap and its line-to-line move, fault-free, under
    // transient drops and across a dead link. Any change to a payload
    // bit, the simulated clock or a counter moves the fingerprint.
    use four_vmp::algos::lu;
    use four_vmp::hypercube::{CostModel, FaultPlan, ResilientConfig};
    let mut words = Vec::new();
    for (n, dim) in [(9usize, 2u32), (14, 4), (20, 5), (16, 6)] {
        let a = workloads::pivot_stress_matrix(n, 17 + n as u64);
        let b: Vec<f64> = (0..n).map(|i| 1.0 - 0.25 * i as f64).collect();
        for cost in [CostModel::cm2(), CostModel::cm2_allport()] {
            for dist in [Dist::Cyclic, Dist::Block] {
                for plan in 0..3 {
                    let mut hc = Hypercube::new(dim, cost);
                    match plan {
                        1 => hc.install_faults(
                            FaultPlan::none(9).with_drops(0.15, 0, u64::MAX),
                            ResilientConfig::default(),
                        ),
                        2 => hc.install_faults(
                            FaultPlan::none(3).with_link_fault(0, 1 << (dim - 1), 0),
                            ResilientConfig::default(),
                        ),
                        _ => {}
                    }
                    let layout = MatrixLayout::new(MatShape::new(n, n + 1), grid(dim), dist, dist);
                    let mut aug =
                        DistMatrix::from_fn(layout, |i, j| if j < n { a.get(i, j) } else { b[i] });
                    let stats = gauss::forward_eliminate(&mut hc, &mut aug).expect("nonsingular");
                    assert!(stats.row_swaps >= n / 2, "n {n}: {} swaps", stats.row_swaps);
                    let x = gauss::back_substitute(&mut hc, &aug);
                    words.extend(run_words(&x, &hc));

                    let layout = MatrixLayout::new(MatShape::new(n, n), grid(dim), dist, dist);
                    let am = DistMatrix::from_fn(layout, |i, j| a.get(i, j));
                    let f = lu::lu_factor_dist(&mut hc, &am).expect("nonsingular");
                    let x = f.solve(&mut hc, &b);
                    words.extend(run_words(&x, &hc));
                    let c = hc.counters();
                    match plan {
                        1 => assert!(c.transient_drops > 0, "the drop plan fired"),
                        2 => assert!(c.reroutes > 0, "traffic detoured around the dead link"),
                        _ => {}
                    }
                }
            }
        }
    }
    assert_eq!(
        fnv1a(words),
        13_009_438_713_759_594_181,
        "fingerprint recorded before the line-local primitives"
    );
}
