//! The distributed vector.

use vmp_hypercube::collective::allreduce_line;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::{Placement, VecEmbedding, VectorLayout};

use crate::elem::{ReduceOp, Scalar};

/// A vector distributed over the simulated machine according to a
/// [`VectorLayout`]. Replicated embeddings store every copy, and the
/// copies are maintained bit-identical by every operation (checked by
/// [`DistVector::assert_consistent`]).
///
/// Storage is a single arena-backed [`NodeSlab`] — all chunks in one
/// contiguous allocation; see DESIGN.md § Data plane.
#[derive(Debug, Clone, PartialEq)]
pub struct DistVector<T> {
    layout: VectorLayout,
    locals: NodeSlab<T>,
}

impl<T: Scalar> DistVector<T> {
    /// Materialise a vector from `f(i)` (host-side; no machine charge).
    #[must_use]
    pub fn from_fn(layout: VectorLayout, mut f: impl FnMut(usize) -> T) -> Self {
        let p = layout.grid().p();
        let locals = NodeSlab::build(p, layout.stored_elements(), |node, buf| {
            let part = layout.part_of(node);
            buf.extend(
                (0..layout.local_len(node)).map(|slot| f(layout.dist().global_index(part, slot))),
            );
        });
        DistVector { layout, locals }
    }

    /// Materialise from a host slice.
    #[must_use]
    pub fn from_slice(layout: VectorLayout, data: &[T]) -> Self {
        assert_eq!(data.len(), layout.n(), "vector length mismatch");
        Self::from_fn(layout, |i| data[i])
    }

    /// A vector with every element `value`.
    #[must_use]
    pub fn constant(layout: VectorLayout, value: T) -> Self {
        Self::from_fn(layout, |_| value)
    }

    /// The embedding.
    #[must_use]
    pub fn layout(&self) -> &VectorLayout {
        &self.layout
    }

    /// Vector length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.layout.n()
    }

    /// Host-side read of element `i` (tests / output only).
    #[must_use]
    pub fn get(&self, i: usize) -> T {
        let node = self.layout.primary_holder(i);
        self.locals[node][self.layout.dist().local_index(i)]
    }

    /// Host-side copy to a dense `Vec` (tests / output only).
    #[must_use]
    pub fn to_dense(&self) -> Vec<T> {
        (0..self.n()).map(|i| self.get(i)).collect()
    }

    /// Per-node local chunks (crate-internal). Node `n`'s chunk is the
    /// slice `locals()[n]`.
    pub(crate) fn locals(&self) -> &NodeSlab<T> {
        &self.locals
    }

    /// Per-node local chunks, mutably (crate-internal).
    pub(crate) fn locals_mut(&mut self) -> &mut NodeSlab<T> {
        &mut self.locals
    }

    /// Assemble from nested per-node chunks (crate-internal).
    pub(crate) fn from_parts(layout: VectorLayout, locals: Vec<Vec<T>>) -> Self {
        debug_assert_eq!(locals.len(), layout.grid().p());
        DistVector { layout, locals: NodeSlab::from_nested_owned(locals) }
    }

    /// Assemble directly from an arena (crate-internal; the hot path).
    pub(crate) fn from_slab(layout: VectorLayout, locals: NodeSlab<T>) -> Self {
        debug_assert_eq!(locals.p(), layout.grid().p());
        DistVector { layout, locals }
    }

    /// Assemble from externally computed per-node chunks — the backend
    /// escape hatch for algorithms (e.g. the hypercube FFT) that run
    /// custom per-node kernels between primitive operations. Chunk
    /// lengths are validated against the layout.
    ///
    /// # Panics
    /// Panics if any node's chunk length disagrees with the layout.
    #[must_use]
    pub fn from_chunks(layout: VectorLayout, locals: Vec<Vec<T>>) -> Self {
        assert_eq!(locals.len(), layout.grid().p(), "one chunk per node");
        for (node, buf) in locals.iter().enumerate() {
            assert_eq!(buf.len(), layout.local_len(node), "node {node} chunk length");
        }
        DistVector { layout, locals: NodeSlab::from_nested_owned(locals) }
    }

    /// Read-only view of the per-node chunks (backend counterpart of
    /// [`DistVector::from_chunks`]): node `n`'s chunk is `chunks()[n]`,
    /// and `chunks().to_nested()` recovers the nested `Vec<Vec<T>>` form.
    #[must_use]
    pub fn chunks(&self) -> &NodeSlab<T> {
        &self.locals
    }

    /// Validate chunk lengths and (for replicated embeddings) that all
    /// replicas agree.
    pub fn assert_consistent(&self) {
        assert_eq!(self.locals.p(), self.layout.grid().p());
        for node in 0..self.locals.p() {
            assert_eq!(
                self.locals.len_of(node),
                self.layout.local_len(node),
                "node {node} chunk length"
            );
        }
        for i in 0..self.n() {
            let holders = self.layout.holders_of(i);
            let slot = self.layout.dist().local_index(i);
            let first = self.locals[holders[0]][slot];
            for &h in &holders[1..] {
                assert_eq!(self.locals[h][slot], first, "replica divergence at element {i}");
            }
        }
    }

    /// Reduce the whole vector to one scalar with `op`, lifting each
    /// element through `lift(global_index, value)` first. This is a
    /// collective: the machine is charged for an all-reduce that leaves
    /// the result on every node, but the host folds only the primary
    /// grid line and reads only the root value.
    ///
    /// The `lift` hook makes masked reductions free of special cases:
    /// return `op.identity()` for indices outside the range of interest —
    /// exactly how the Gaussian-elimination pivot search restricts itself
    /// to rows `k..n`.
    ///
    /// `lift` runs once per element, on the primary grid line only, so
    /// it must be pure: the replicas on other lines are never lifted.
    pub fn reduce_lifted<U: Scalar, O: ReduceOp<U>>(
        &self,
        hc: &mut Hypercube,
        op: O,
        lift: impl Fn(usize, T) -> U,
    ) -> U {
        self.fold_primary_line(hc, &self.locals, op, |i, v, _| lift(i, v))
    }

    /// Reduce to a scalar with `op` (charged as a replicated result; see
    /// [`DistVector::reduce_lifted`]).
    pub fn reduce_all<O: ReduceOp<T>>(&self, hc: &mut Hypercube, op: O) -> T {
        self.reduce_lifted(hc, op, |_, v| v)
    }

    /// `self.zip(hc, other, f).reduce_all(hc, op)` without building the
    /// zipped vector: each element's `f(global_index, x, y)` is folded
    /// as soon as it is computed. Payload, clock and counters are
    /// bit-identical to the two-call form; the zip's flops and the
    /// fold's flops are charged as two separate clock adds, as the two
    /// calls charge them. As in [`DistVector::reduce_lifted`], the
    /// machine is charged for a replicated result, but the host folds
    /// only the primary grid line and reads only the root value.
    ///
    /// # Panics
    /// Panics unless both vectors share a layout.
    pub fn zip_reduce<U: Scalar, V: Scalar, O: ReduceOp<V>>(
        &self,
        hc: &mut Hypercube,
        other: &DistVector<U>,
        f: impl Fn(usize, T, U) -> V,
        op: O,
    ) -> V {
        assert_eq!(self.layout, other.layout, "zip operands must share a layout");
        hc.charge_flops(self.layout.dist().max_count());
        self.fold_primary_line(hc, &other.locals, op, f)
    }

    /// The fold behind every scalar reduction: `lift(i, x, y)` over the
    /// elements of `self` and `other` (same segment lengths), folded per
    /// node and then combined machine-wide with `op`.
    ///
    /// A replicated embedding holds each chunk on every grid line, and
    /// folding every replica would count each element once per line,
    /// which is wrong for non-idempotent ops (sum). So only the nodes of
    /// one primary grid line fold (`node & mask == bits`: their bits on
    /// the orthogonal dims name that line); every other node stands for
    /// `op.identity()`. The machine is charged as if every node folded
    /// (the longest chunk) and then all-reduced its partial over every
    /// cube dim; the host folds the line's chunks only and combines
    /// their partials in that all-reduce's operand order
    /// ([`allreduce_line`]).
    fn fold_primary_line<W: Scalar, U: Scalar, O: ReduceOp<U>>(
        &self,
        hc: &mut Hypercube,
        other: &NodeSlab<W>,
        op: O,
        lift: impl Fn(usize, T, W) -> U,
    ) -> U {
        let grid = self.layout.grid();
        assert_eq!(grid.p(), hc.p(), "vector and machine sizes differ");
        let (mask, bits) = match self.layout.embedding() {
            VecEmbedding::Linear => (0, 0),
            VecEmbedding::Aligned { axis, placement: Placement::Replicated } => grid.line(*axis, 0),
            VecEmbedding::Aligned { axis, placement: Placement::Concentrated(line) } => {
                grid.line(*axis, *line)
            }
        };
        let dist = self.layout.dist();
        hc.charge_flops(dist.max_count());
        let partial = |node| {
            let part = self.layout.part_of(node);
            let pairs = self.locals[node].iter().zip(&other[node]);
            pairs.enumerate().fold(op.identity(), |acc, (slot, (&x, &y))| {
                op.combine(acc, lift(dist.global_index(part, slot), x, y))
            })
        };
        allreduce_line(hc, mask, bits, op.identity(), partial, |a, b| op.combine(a, b))
    }
}

impl<T: crate::elem::Numeric> DistVector<T> {
    /// Dot product with an identically laid-out vector: one fused
    /// multiply-and-fold pass plus a reduce-to-scalar (replicated
    /// result).
    pub fn dot(&self, hc: &mut Hypercube, other: &DistVector<T>) -> T {
        self.zip_reduce(hc, other, |_, a, b| a * b, crate::elem::Sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::{ArgMaxAbs, Loc, Max, Sum};
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Axis, Dist, ProcGrid};

    fn grid(dim: u32, dr: u32) -> ProcGrid {
        ProcGrid::new(Cube::new(dim), dr)
    }

    fn machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }

    #[test]
    fn from_fn_get_roundtrip_all_embeddings() {
        let g = grid(4, 2);
        for layout in [
            VectorLayout::aligned(11, g.clone(), Axis::Row, Placement::Replicated, Dist::Cyclic),
            VectorLayout::aligned(
                11,
                g.clone(),
                Axis::Row,
                Placement::Concentrated(3),
                Dist::Block,
            ),
            VectorLayout::aligned(11, g.clone(), Axis::Col, Placement::Replicated, Dist::Block),
            VectorLayout::linear(11, g.clone(), Dist::Cyclic),
        ] {
            let v = DistVector::from_fn(layout, |i| i as i64 * 3 - 5);
            v.assert_consistent();
            for i in 0..11 {
                assert_eq!(v.get(i), i as i64 * 3 - 5);
            }
            assert_eq!(v.to_dense(), (0..11).map(|i| i as i64 * 3 - 5).collect::<Vec<_>>());
        }
    }

    #[test]
    fn reduce_all_sums_each_element_once_despite_replication() {
        let g = grid(4, 2);
        let mut hc = machine(4);
        let layout = VectorLayout::aligned(10, g, Axis::Row, Placement::Replicated, Dist::Block);
        let v = DistVector::from_fn(layout, |i| (i + 1) as f64);
        let s = v.reduce_all(&mut hc, Sum);
        assert_eq!(s, 55.0, "each element counted exactly once");
        assert!(hc.elapsed_us() > 0.0, "reduction is charged");
    }

    #[test]
    fn reduce_all_concentrated_and_linear() {
        let g = grid(3, 1);
        let mut hc = machine(3);
        let conc = VectorLayout::aligned(
            9,
            g.clone(),
            Axis::Col,
            Placement::Concentrated(2),
            Dist::Cyclic,
        );
        let v = DistVector::from_fn(conc, |i| i as f64);
        assert_eq!(v.reduce_all(&mut hc, Sum), 36.0);
        let lin = VectorLayout::linear(9, g, Dist::Block);
        let w = DistVector::from_fn(lin, |i| i as f64);
        assert_eq!(w.reduce_all(&mut hc, Max), 8.0);
    }

    #[test]
    fn lifted_reduce_supports_masks_and_argmax() {
        let g = grid(4, 2);
        let mut hc = machine(4);
        let layout = VectorLayout::aligned(12, g, Axis::Col, Placement::Replicated, Dist::Cyclic);
        let data = [3.0, -9.0, 4.0, 8.5, -2.0, 0.0, -8.5, 7.0, 1.0, -1.0, 5.0, 2.0];
        let v = DistVector::from_slice(layout, &data);
        // Unmasked arg-max-abs: index 1 (|-9|).
        let top = v.reduce_lifted(&mut hc, ArgMaxAbs, |i, x| Loc::new(x, i));
        assert_eq!(top.index, 1);
        // Masked to i >= 4 (the pivot-search pattern): |-8.5| at 6 wins
        // over 8.5 at 3 which is masked out; tie at |8.5|? index 6 only.
        let masked = v.reduce_lifted(&mut hc, ArgMaxAbs, |i, x| {
            if i >= 4 {
                Loc::new(x, i)
            } else {
                Loc::new(0.0, usize::MAX)
            }
        });
        assert_eq!(masked.index, 6);
    }

    #[test]
    fn empty_vector_reduces_to_identity() {
        let g = grid(2, 1);
        let mut hc = machine(2);
        let layout = VectorLayout::linear(0, g, Dist::Block);
        let v: DistVector<f64> = DistVector::from_fn(layout, |_| unreachable!());
        assert_eq!(v.reduce_all(&mut hc, Sum), 0.0);
    }

    /// Every embedding family on a 16-node 4x4 grid: Linear, and
    /// Aligned Row/Col x Replicated/Concentrated, each Block and Cyclic;
    /// lengths below and above `p`.
    fn layouts() -> Vec<VectorLayout> {
        let g = grid(4, 2);
        let mut out = Vec::new();
        for n in [3usize, 13, 37] {
            for dist in [Dist::Block, Dist::Cyclic] {
                out.push(VectorLayout::linear(n, g.clone(), dist));
                for axis in [Axis::Row, Axis::Col] {
                    for placement in [Placement::Replicated, Placement::Concentrated(2)] {
                        out.push(VectorLayout::aligned(n, g.clone(), axis, placement, dist));
                    }
                }
            }
        }
        out
    }

    /// Pairs of identical fresh machines: healthy, and after a dead-node
    /// remap (load factor 2, so every flop charge doubles).
    fn machine_pairs() -> [[Hypercube; 2]; 2] {
        let make = |degraded: bool| {
            let mut hc = Hypercube::new(4, CostModel::cm2());
            if degraded {
                hc.remap_node(5, 4);
            }
            hc
        };
        [[make(false), make(false)], [make(true), make(true)]]
    }

    #[test]
    fn zip_reduce_is_bit_identical_to_zip_then_reduce_all() {
        for layout in layouts() {
            let a = DistVector::from_fn(layout.clone(), |i| (i as f64 * 0.37).sin());
            let b = DistVector::from_fn(layout.clone(), |i| 1.0 / (i as f64 + 0.5));
            // Non-commutative in its operands' roles: order matters.
            let f = |i: usize, x: f64, y: f64| x * y + i as f64 * 1e-3;
            for [mut h1, mut h2] in machine_pairs() {
                let want = a.zip(&mut h1, &b, f).reduce_all(&mut h1, Sum);
                let got = a.zip_reduce(&mut h2, &b, f, Sum);
                assert_eq!(want.to_bits(), got.to_bits(), "{layout:?}");
                assert_eq!(h1.elapsed_us().to_bits(), h2.elapsed_us().to_bits(), "{layout:?}");
                assert_eq!(h1.counters(), h2.counters(), "{layout:?}");

                let lift = |i: usize, x: f64, y: f64| Loc::new(x - y, i);
                let want = a.zip(&mut h1, &b, lift).reduce_all(&mut h1, ArgMaxAbs);
                let got = a.zip_reduce(&mut h2, &b, lift, ArgMaxAbs);
                assert_eq!((want.value.to_bits(), want.index), (got.value.to_bits(), got.index));
                assert_eq!(h1.elapsed_us().to_bits(), h2.elapsed_us().to_bits(), "{layout:?}");
                assert_eq!(h1.counters(), h2.counters(), "{layout:?}");
            }
        }
    }

    #[test]
    fn map_inplace_is_bit_identical_to_map() {
        for layout in layouts() {
            let v = DistVector::from_fn(layout.clone(), |i| (i as f64).cos());
            let f = |i: usize, x: f64| if i % 3 == 1 { x * 2.5 - 1.0 } else { x };
            for [mut h1, mut h2] in machine_pairs() {
                let want = v.map(&mut h1, f);
                let mut got = v.clone();
                got.map_inplace(&mut h2, f);
                got.assert_consistent();
                assert_eq!(want, got, "{layout:?}");
                assert_eq!(h1.elapsed_us().to_bits(), h2.elapsed_us().to_bits(), "{layout:?}");
                assert_eq!(h1.counters(), h2.counters(), "{layout:?}");
            }
        }
    }

    /// Componentwise sum of a triple, as back substitution folds it.
    #[derive(Clone, Copy)]
    struct Sum3;

    impl ReduceOp<(f64, f64, f64)> for Sum3 {
        fn identity(&self) -> (f64, f64, f64) {
            (0.0, 0.0, 0.0)
        }
        fn combine(&self, a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64) {
            (a.0 + b.0, a.1 + b.1, a.2 + b.2)
        }
    }

    /// Neither commutative nor associative, and its "identity" is not
    /// one: every operand order, every identity fold and the side the
    /// identity joins on show in the result bits.
    #[derive(Clone, Copy)]
    struct OrderProbe;

    impl ReduceOp<f64> for OrderProbe {
        fn identity(&self) -> f64 {
            0.25
        }
        fn combine(&self, a: f64, b: f64) -> f64 {
            a + a + b
        }
    }

    /// The scalar reduction built as a slab all-reduce: one partial per
    /// node (the primary line's nodes fold their chunk, every other node
    /// holds `op.identity()`), all-reduced over every cube dim, read at
    /// node 0, after a flop charge of the longest chunk.
    fn slab_reduce<T: Scalar, U: Scalar, O: ReduceOp<U>>(
        v: &DistVector<T>,
        hc: &mut Hypercube,
        op: O,
        lift: impl Fn(usize, T) -> U,
    ) -> U {
        let grid = v.layout().grid();
        let (mask, bits) = match v.layout().embedding() {
            VecEmbedding::Linear => (0, 0),
            VecEmbedding::Aligned { axis, placement } => {
                let line = match placement {
                    Placement::Replicated => 0,
                    Placement::Concentrated(line) => *line,
                };
                match axis {
                    Axis::Row => (grid.cube().dims_mask(grid.row_dims()), grid.node_at(line, 0)),
                    Axis::Col => (grid.cube().dims_mask(grid.col_dims()), grid.node_at(0, line)),
                }
            }
        };
        let dist = v.layout().dist();
        let mut partials = NodeSlab::build(grid.p(), grid.p(), |node, out| {
            let mut acc = op.identity();
            if node & mask == bits {
                let part = v.layout().part_of(node);
                for (slot, &x) in v.locals()[node].iter().enumerate() {
                    acc = op.combine(acc, lift(dist.global_index(part, slot), x));
                }
            }
            out.push(acc);
        });
        hc.charge_flops(v.locals().max_seg_len());
        let dims: Vec<u32> = grid.cube().iter_dims().collect();
        vmp_hypercube::collective::allreduce_slab(hc, &mut partials, &dims, |a, b| {
            op.combine(a, b)
        });
        partials[0][0]
    }

    #[test]
    fn line_fold_is_bit_identical_to_the_slab_allreduce() {
        use vmp_hypercube::cost::{AlgoPolicy, AlgoSelect};
        use vmp_hypercube::fault::{FaultPlan, ResilientConfig};
        use vmp_hypercube::Counters;

        const POLICIES: [AlgoPolicy; 4] = [
            AlgoPolicy::Auto,
            AlgoPolicy::ForceSinglePort,
            AlgoPolicy::ForceAllPort,
            AlgoPolicy::ForcePipelined,
        ];
        // (cost model, policy, transient drops installed)
        let mut machines = Vec::new();
        for cost in [CostModel::cm2(), CostModel::cm2_allport()] {
            for policy in POLICIES {
                machines.push((cost, policy, false));
            }
            machines.push((cost, AlgoPolicy::Auto, true));
        }
        let make = |dim: u32, (cost, policy, drops): (CostModel, AlgoPolicy, bool)| {
            let mut hc = Hypercube::new(dim, cost);
            hc.set_algo_select(AlgoSelect { policy, ..AlgoSelect::default() });
            if drops {
                let plan = FaultPlan::none(u64::from(dim) + 3).with_drops(0.3, 0, u64::MAX);
                hc.install_faults(plan, ResilientConfig::default());
            }
            hc
        };
        // Run `new` and `old` on identical fresh machines; return both
        // sides' result words, clock bits and counters.
        type Run<'a> = &'a dyn Fn(&mut Hypercube) -> Vec<u64>;
        let both = |dim, m, new: Run, old: Run| {
            let (mut h1, mut h2) = (make(dim, m), make(dim, m));
            let side = |hc: &mut Hypercube, f: Run| -> (Vec<u64>, u64, Counters) {
                (f(hc), hc.elapsed_us().to_bits(), *hc.counters())
            };
            (side(&mut h1, new), side(&mut h2, old))
        };

        let mut cells = 0usize;
        for dim in 0..=7u32 {
            let mut splits = vec![0, dim / 2, dim];
            splits.dedup();
            for dr in splits {
                let g = grid(dim, dr);
                let mut layouts = Vec::new();
                for (k, dist) in [Dist::Block, Dist::Cyclic].into_iter().enumerate() {
                    // Lengths below and above the line: empty and ragged chunks.
                    let n = [3usize, 2 * g.p() + 5][k];
                    layouts.push(VectorLayout::linear(n, g.clone(), dist));
                    for (axis, lines) in [(Axis::Row, g.pr()), (Axis::Col, g.pc())] {
                        // The last line: its bits are set on the orthogonal
                        // dims, so the identity joins it from the left.
                        for placement in [Placement::Replicated, Placement::Concentrated(lines - 1)]
                        {
                            layouts.push(VectorLayout::aligned(
                                n,
                                g.clone(),
                                axis,
                                placement,
                                dist,
                            ));
                        }
                    }
                }
                for layout in layouts {
                    // Signed zeros and repeated magnitudes: ties and -0.0.
                    let v = DistVector::from_fn(layout.clone(), |i| match i % 4 {
                        0 => -0.0,
                        1 => 0.0,
                        2 => -1.5,
                        _ => 1.5,
                    });
                    let sum = |i: usize, x: f64| if i % 5 == 4 { 0.0 } else { x * 0.5 };
                    let arg = |i: usize, x: f64| Loc::new(x, i);
                    let tri = |i: usize, x: f64| (x, i as f64 * 0.25, -x);
                    let words3 =
                        |t: (f64, f64, f64)| vec![t.0.to_bits(), t.1.to_bits(), t.2.to_bits()];
                    let cases: [(Run, Run); 5] = [
                        (&|hc| vec![v.reduce_lifted(hc, Sum, sum).to_bits()], &|hc| {
                            vec![slab_reduce(&v, hc, Sum, sum).to_bits()]
                        }),
                        (&|hc| vec![v.reduce_all(hc, Max).to_bits()], &|hc| {
                            vec![slab_reduce(&v, hc, Max, |_, x| x).to_bits()]
                        }),
                        (
                            &|hc| {
                                let l = v.reduce_lifted(hc, ArgMaxAbs, arg);
                                vec![l.value.to_bits(), l.index as u64]
                            },
                            &|hc| {
                                let l = slab_reduce(&v, hc, ArgMaxAbs, arg);
                                vec![l.value.to_bits(), l.index as u64]
                            },
                        ),
                        (&|hc| words3(v.reduce_lifted(hc, Sum3, tri)), &|hc| {
                            words3(slab_reduce(&v, hc, Sum3, tri))
                        }),
                        (&|hc| vec![v.reduce_all(hc, OrderProbe).to_bits()], &|hc| {
                            vec![slab_reduce(&v, hc, OrderProbe, |_, x| x).to_bits()]
                        }),
                    ];
                    for (case, (new, old)) in cases.iter().enumerate() {
                        for &m in &machines {
                            let (got, want) = both(dim, m, *new, *old);
                            assert_eq!(got, want, "case {case} {layout:?} {m:?}");
                            cells += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cells, 21 * 10 * 5 * 10, "every cell ran");
    }

    #[test]
    #[should_panic(expected = "share a layout")]
    fn zip_reduce_checks_layouts() {
        let g = grid(2, 1);
        let mut hc = machine(2);
        let a = DistVector::constant(VectorLayout::linear(4, g.clone(), Dist::Block), 1.0);
        let b = DistVector::constant(VectorLayout::linear(4, g, Dist::Cyclic), 1.0);
        let _ = a.zip_reduce(&mut hc, &b, |_, x: f64, y: f64| x * y, Sum);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_slice_checks_length() {
        let g = grid(2, 1);
        let layout = VectorLayout::linear(5, g, Dist::Block);
        let _ = DistVector::from_slice(layout, &[1.0f64; 4]);
    }
}
