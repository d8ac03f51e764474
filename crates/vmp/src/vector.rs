//! The distributed vector.

use vmp_hypercube::collective::allreduce_slab;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::{Axis, Placement, VecEmbedding, VectorLayout};

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
    /// element through `lift(global_index, value)` first. The result is
    /// replicated machine-wide (this is a collective and is charged).
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

    /// Reduce to a scalar with `op` (replicated machine-wide; charged).
    pub fn reduce_all<O: ReduceOp<T>>(&self, hc: &mut Hypercube, op: O) -> T {
        self.reduce_lifted(hc, op, |_, v| v)
    }

    /// `self.zip(hc, other, f).reduce_all(hc, op)` without building the
    /// zipped vector: each element's `f(global_index, x, y)` is folded
    /// as soon as it is computed. Payload, clock and counters are
    /// bit-identical to the two-call form; the zip's flops and the
    /// fold's flops are charged as two separate clock adds, as the two
    /// calls charge them.
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
        hc.charge_flops(self.locals.max_seg_len());
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
    /// the orthogonal dims name that line); every other node contributes
    /// `op.identity()`. The all-reduce over every cube dim then folds
    /// each chunk exactly once and lands the result on every node. The
    /// flop charge is the longest chunk, as if every node folded.
    fn fold_primary_line<W: Scalar, U: Scalar, O: ReduceOp<U>>(
        &self,
        hc: &mut Hypercube,
        other: &NodeSlab<W>,
        op: O,
        lift: impl Fn(usize, T, W) -> U,
    ) -> U {
        let grid = self.layout.grid();
        let (mask, bits) = match self.layout.embedding() {
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
        let p = self.locals.p();
        let dist = self.layout.dist();
        let mut partials = NodeSlab::build(p, p, |node, out| {
            let mut acc = op.identity();
            let buf = &self.locals[node];
            if node & mask == bits && !buf.is_empty() {
                let part = self.layout.part_of(node);
                for (slot, (&x, &y)) in buf.iter().zip(&other[node]).enumerate() {
                    acc = op.combine(acc, lift(dist.global_index(part, slot), x, y));
                }
            }
            out.push(acc);
        });
        hc.charge_flops(self.locals.max_seg_len());
        let dims: Vec<u32> = grid.cube().iter_dims().collect();
        allreduce_slab(hc, &mut partials, &dims, |a, b| op.combine(a, b));
        partials[0][0]
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
    use vmp_layout::{Dist, ProcGrid};

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
