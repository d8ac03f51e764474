//! Collective communication on subcubes.
//!
//! Every routine here operates on a *set of cube dimensions* `dims`: the
//! machine decomposes into `p / 2^{|dims|}` disjoint subcubes (one per
//! assignment of the remaining address bits), and the collective runs in
//! **all subcubes simultaneously** — the natural SPMD shape for row- and
//! column-wise matrix operations on a 2-D processor grid whose row dims
//! and column dims are disjoint subsets of the cube dims.
//!
//! Within a subcube, a node is identified by its *coordinate*: the packed
//! value of its address bits at `dims` (see [`Cube::extract_coords`]).
//! Orderings (scan order, gather concatenation order) are coordinate
//! order.
//!
//! Cost accounting: each routine issues `O(|dims|)` blocked message
//! supersteps, charging `alpha + beta * L` for the busiest channel plus
//! `gamma` per critical-path combine, exactly as analysed in Johnsson &
//! Ho, *Optimum Broadcasting and Personalized Communication in
//! Hypercubes* (TR-610, reproduced in the source booklet). Machines
//! whose [`crate::cost::AlgoSelect`] policy admits all-port schedules
//! charge the ported model instead (see [`allport`]); payload movement
//! and combine order are identical under every schedule.

pub mod allport;
mod alltoall;
mod broadcast;
mod exchange;
mod gather;
mod reduce;
pub mod reference;
mod scan;

pub use alltoall::alltoall_slab;
pub use broadcast::broadcast_slab;
pub use exchange::exchange_slab;
pub use gather::{allgather_slab, gather_slab, scatter_slab};
pub use reduce::{allreduce_line, allreduce_slab, reduce_slab};
pub use scan::{scan_exclusive_slab, scan_inclusive_slab};

use crate::topology::{Cube, NodeId};

/// Validate a dimension subset: all in range and pairwise distinct.
pub(crate) fn check_dims(cube: Cube, dims: &[u32]) {
    let mut mask = 0usize;
    for &d in dims {
        assert!(d < cube.dim(), "dimension {d} out of range for cube of dim {}", cube.dim());
        let bit = 1usize << d;
        assert_eq!(mask & bit, 0, "dimension {d} listed twice");
        mask |= bit;
    }
}

/// The nodes `n < p` with `n & mask == bits`, in ascending order: every
/// subset of the free bits `!mask`, or-ed with `bits`. A superstep's
/// senders are such a set (their coordinate bits relative to the root are
/// pinned on some dims), so loops visit only them.
pub(crate) fn nodes_matching(p: usize, mask: usize, bits: usize) -> impl Iterator<Item = NodeId> {
    debug_assert!(p.is_power_of_two() && bits & !mask == 0 && bits < p);
    let free = (p - 1) & !mask;
    let mut next = Some(0usize);
    std::iter::from_fn(move || {
        let s = next?;
        next = (s != free).then(|| s.wrapping_sub(free) & free);
        Some(s | bits)
    })
}

/// The transfer list of a superstep in which every node `n` with
/// `n & mask == bits` sends to `n ^ chan`, built only if the machine
/// asks for it (see [`crate::machine::StepPairs`]).
pub(crate) fn sends_where(
    p: usize,
    mask: usize,
    bits: usize,
    chan: usize,
) -> impl FnOnce() -> Vec<(NodeId, NodeId)> {
    move || nodes_matching(p, mask, bits).map(|n| (n, n ^ chan)).collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::cost::CostModel;
    use crate::machine::Hypercube;
    use crate::slab::NodeSlab;

    pub fn unit_machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }

    /// Per-node buffers where node `n` holds `len` copies of `n as f64`
    /// offset by the element index — distinguishable contents.
    pub fn labelled_locals(hc: &Hypercube, len: usize) -> Vec<Vec<f64>> {
        hc.locals_from_fn(|n| (0..len).map(|i| (n * 1000 + i) as f64).collect())
    }

    /// Run `op` on a slab copy of `locals`, then copy the result back.
    pub fn on_nested<T: Copy>(locals: &mut Vec<Vec<T>>, op: impl FnOnce(&mut NodeSlab<T>)) {
        let mut slab = NodeSlab::from_nested(locals);
        op(&mut slab);
        *locals = slab.to_nested();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::counters::Counters;
    use crate::fault::{FaultPlan, ResilientConfig};
    use crate::machine::Hypercube;
    use crate::slab::{NodeSlab, SegSlab};

    #[test]
    fn nodes_matching_is_the_filtered_range() {
        for p in [1usize, 2, 8, 32] {
            for mask in 0..p {
                for bits in (0..p).filter(|b| b & !mask == 0) {
                    let want: Vec<NodeId> = (0..p).filter(|n| n & mask == bits).collect();
                    let got: Vec<NodeId> = nodes_matching(p, mask, bits).collect();
                    assert_eq!(got, want, "p {p} mask {mask:b} bits {bits:b}");
                }
            }
        }
    }

    /// `f` on a machine with an installed empty fault plan leaves the same
    /// payload, clock and counters as on a machine with no plan.
    fn assert_zero_overhead(
        what: &str,
        dim: u32,
        cost: CostModel,
        f: impl Fn(&mut Hypercube) -> Vec<Vec<f64>>,
    ) {
        let run = |plan: bool| {
            let mut hc = Hypercube::new(dim, cost);
            if plan {
                hc.install_faults(FaultPlan::none(7), ResilientConfig::default());
            }
            let out = f(&mut hc);
            (out, hc.elapsed_us(), *hc.counters())
        };
        let (plain, planned): ((_, _, Counters), _) = (run(false), run(true));
        assert_eq!(plain, planned, "{what}");
        assert!(plain.2.message_steps > 0, "{what} charged something");
    }

    /// Run `op` on a slab built from `locals`; return the nested result.
    fn on<'a>(
        locals: &'a [Vec<f64>],
        op: impl Fn(&mut Hypercube, &mut NodeSlab<f64>) + 'a,
    ) -> impl Fn(&mut Hypercube) -> Vec<Vec<f64>> + 'a {
        move |hc| {
            let mut s = NodeSlab::from_nested(locals);
            op(hc, &mut s);
            s.to_nested()
        }
    }

    #[test]
    fn empty_fault_plan_is_zero_overhead_for_every_collective() {
        let dim = 5u32;
        let p = 1usize << dim;
        let uniform: Vec<Vec<f64>> =
            (0..p).map(|n| (0..3).map(|i| (n * 10 + i) as f64).collect()).collect();
        let ragged: Vec<Vec<f64>> =
            (0..p).map(|n| (0..n % 4).map(|i| (n * 10 + i) as f64).collect()).collect();
        let add = |a: f64, b: f64| a + b;
        for cost in [CostModel::unit(), CostModel::cm2(), CostModel::cm2_allport()] {
            for dims in [vec![0u32, 2, 3], (0..dim).collect()] {
                let k = dims.len();
                let root = 5 & ((1usize << k) - 1);
                let what = |name: &str| format!("{name} over {dims:?} ({cost:?})");
                assert_zero_overhead(
                    &what("broadcast"),
                    dim,
                    cost,
                    on(&ragged, |hc, s| broadcast_slab(hc, s, &dims, root)),
                );
                assert_zero_overhead(
                    &what("reduce"),
                    dim,
                    cost,
                    on(&uniform, |hc, s| reduce_slab(hc, s, &dims, root, add)),
                );
                assert_zero_overhead(
                    &what("allreduce"),
                    dim,
                    cost,
                    on(&uniform, |hc, s| allreduce_slab(hc, s, &dims, add)),
                );
                assert_zero_overhead(
                    &what("gather"),
                    dim,
                    cost,
                    on(&ragged, |hc, s| gather_slab(hc, s, &dims)),
                );
                assert_zero_overhead(
                    &what("allgather"),
                    dim,
                    cost,
                    on(&ragged, |hc, s| allgather_slab(hc, s, &dims)),
                );
                assert_zero_overhead(
                    &what("scan"),
                    dim,
                    cost,
                    on(&uniform, |hc, s| {
                        scan_inclusive_slab(hc, s, &dims, add);
                        scan_exclusive_slab(hc, s, &dims, 0.0, add);
                    }),
                );
                assert_zero_overhead(
                    &what("exchange"),
                    dim,
                    cost,
                    on(&ragged, |hc, s| exchange_slab(hc, s, 3)),
                );
                let send: Vec<Vec<Vec<f64>>> = (0..p)
                    .map(|n| (0..1usize << k).map(|c| vec![(n * 100 + c) as f64; c % 3]).collect())
                    .collect();
                let send = SegSlab::from_nested(&send, 1 << k);
                assert_zero_overhead(&what("alltoall"), dim, cost, |hc| {
                    alltoall_slab(hc, &send, &dims).to_nested().concat()
                });
            }
        }
    }
}
