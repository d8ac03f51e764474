//! Balanced one-port schedules and the edge-disjoint spanning trees — the
//! spanning-tree ablation.
//!
//! The binomial-tree schedules in [`crate::collective`] minimise start-ups
//! (`k` of them) but transfer the whole buffer at every level, costing
//! `k * (alpha + beta * L)`. Johnsson & Ho's *Optimum Broadcasting and
//! Personalized Communication in Hypercubes* (TR-610, abstract in the
//! source booklet) shows large-message broadcasts can shed the factor `k`
//! on the bandwidth term with balanced / edge-disjoint spanning trees.
//! This module holds the two balanced one-port remedies, over the slab
//! data plane:
//!
//! * **scatter + allgather** broadcast (`2k` start-ups,
//!   `~2 * beta * L` transfer) — the "balanced tree" one-port schedule;
//! * **reduce-scatter + allgather** all-reduce (Rabenseifner) with the
//!   same trade;
//!
//! and the `k` edge-disjoint spanning binomial trees ([`EsbtForest`])
//! that the all-port engine pipelines over. All-port broadcast has no
//! schedule of its own here: it is [`crate::collective::broadcast_slab`]
//! on a machine whose [`crate::cost::PortModel`] is all-port, priced by
//! [`crate::cost::allport_schedule`] like every other all-port
//! collective.
//!
//! Benchmark F4 sweeps message size against these schedules to reproduce
//! the crossover: binomial wins small messages (fewer start-ups),
//! balanced and all-port schedules win large ones.

use std::ops::Range;

use crate::collective::{allgather_slab, check_dims, nodes_matching, scatter_slab};
use crate::machine::Hypercube;
use crate::slab::{NodeSlab, SegSlab};
use crate::topology::NodeId;

/// Broadcast by scatter + allgather: within every subcube spanned by
/// `dims`, every segment ends holding a copy of the segment at subcube
/// coordinate `root_coord` — the semantics of
/// [`crate::collective::broadcast_slab`], on the balanced one-port
/// schedule (`2k * alpha + ~2 * beta * L`).
///
/// A root other than coordinate 0 first moves its payload to
/// coordinate 0 (one blocked message per differing dimension); the root
/// buffer is then scattered as `2^k` near-equal pieces and allgathered.
///
/// # Panics
/// Panics if `dims` is invalid or `root_coord >= 2^{|dims|}`.
pub fn broadcast_scatter_allgather<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    root_coord: usize,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    let k = dims.len();
    if k == 0 {
        return;
    }
    assert!(root_coord < (1usize << k), "root coordinate out of range");
    assert_eq!(slab.p(), cube.nodes());

    let p = slab.p();
    let all = cube.dims_mask(dims);
    let root_bits = cube.deposit_coords(root_coord, dims);
    if root_coord != 0 {
        let (max_len, total) = nodes_matching(p, all, root_bits).fold((0, 0u64), |(m, t), root| {
            let len = slab.len_of(root);
            (m.max(len), t + len as u64)
        });
        // Distance can be up to k, but the payload moves as one blocked
        // message along each differing dimension.
        for _ in 0..root_coord.count_ones() {
            hc.charge_message_step(max_len, total);
        }
    }
    // Coordinate 0 of every subcube scatters its root's buffer as 2^k
    // near-equal pieces...
    let pieces = 1usize << k;
    let mut segments = SegSlab::with_capacity(pieces, p, slab.total_len());
    for node in 0..p {
        let root = (node & all == 0).then(|| &slab[node | root_bits]);
        for range in split_even(root.map_or(0, <[T]>::len), pieces) {
            segments.push_seg(root.map_or(&[][..], |buf| &buf[range]));
        }
    }
    let mut scattered = scatter_slab(hc, &segments, dims);
    // ...then allgather: every node ends with the concatenation, which
    // equals the root's buffer.
    allgather_slab(hc, &mut scattered, dims);
    slab.swap(&mut scattered);
}

/// All-reduce via reduce-scatter + allgather (Rabenseifner's algorithm):
/// every member ends with the full elementwise reduction, as after
/// [`crate::collective::allreduce_slab`], for `2k` start-ups but only
/// `~(beta + gamma) * L` on the bandwidth/compute terms.
///
/// # Panics
/// Panics if `dims` is invalid or the segments have different lengths.
pub fn allreduce_rabenseifner<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    op: impl Fn(T, T) -> T,
) {
    reduce_scatter(hc, slab, dims, op);
    allgather_slab(hc, slab, dims);
}

/// Recursive-halving reduce-scatter: member at coordinate `c` ends with
/// the fully reduced segment `c` (coordinate-order split) of the buffer.
fn reduce_scatter<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(slab.p(), cube.nodes());
    let k = dims.len();
    if k == 0 {
        return;
    }
    let Some(full_len) = slab.uniform_seg_len() else {
        panic!("reduce-scatter requires equal buffer lengths");
    };

    // Every segment keeps its full length; node `n` owns the global range
    // `range[n]` of it. The split points are the coordinate-order segment
    // boundaries, so both partners always agree on the current range.
    let p = slab.p();
    let mut range = vec![(0usize, full_len); p];
    for j in (0..k).rev() {
        let chan = 1usize << dims[j];
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        // `node` has the cube bit clear, so it is the lower coordinate of
        // the pair: it keeps [lo, mid), its partner [mid, hi).
        for node in nodes_matching(p, chan, 0) {
            let partner = node | chan;
            let (lo, hi) = range[node];
            debug_assert_eq!(range[partner], (lo, hi));
            let mid = lo + (hi - lo) / 2;
            max_len = max_len.max(hi - mid);
            total += (hi - lo) as u64;
            let (a, b) = slab.pair_mut(node, partner);
            for (x, &y) in a[lo..mid].iter_mut().zip(&b[lo..mid]) {
                *x = op(*x, y);
            }
            for (&x, y) in a[mid..hi].iter().zip(&mut b[mid..hi]) {
                *y = op(x, *y);
            }
            range[node] = (lo, mid);
            range[partner] = (mid, hi);
        }
        hc.charge_message_step(max_len, total);
        hc.charge_flops(max_len);
    }

    let mut out = NodeSlab::with_capacity(p, slab.total_len() >> k);
    for (node, &(lo, hi)) in range.iter().enumerate() {
        out.push_seg(&slab[node][lo..hi]);
    }
    slab.swap(&mut out);
}

/// The `k` edge-disjoint spanning binomial trees (ESBTs) of a `k`-cube,
/// source node 0 — the structure underlying the all-port collective
/// schedules in [`crate::collective`] and the ported cost model in
/// [`crate::cost::allport_schedule`].
///
/// Tree 0 spans the nonzero nodes with a binomial-tree shape given by
/// the parent rule (for `z != 0`):
///
/// * `z` odd  → parent is `z` with its most significant bit cleared
///   (so node 1's parent is 0 — the source edge `0 → 1`);
/// * `z` even → parent is `z | 1` (flip bit 0 up).
///
/// Tree `j` is tree 0 with every node label rotated left by `j` within
/// the `k` coordinate bits: `parent_j(y) = rol_j(parent_0(ror_j(y)))`,
/// so its source edge is `0 → 2^j`. For any node `y != 0`, the map
/// `j ↦ dimension of y's parent edge in tree j` is a bijection on
/// `{0..k}`; hence the `k` trees' directed parent edges are pairwise
/// disjoint and together cover every directed cube edge except the `k`
/// edges *into* node 0 (verified exhaustively in the crate tests).
/// Every chain `even → odd (+1) → clear-msb` strictly descends every
/// two steps, so each tree is acyclic with height
/// [`crate::cost::esbt_height`]`(k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EsbtForest {
    k: u32,
}

impl EsbtForest {
    /// The forest for a `k`-dimensional cube (`1 <= k <= 60`).
    ///
    /// # Panics
    /// Panics when `k` is outside `1..=60`.
    #[must_use]
    pub fn new(k: u32) -> Self {
        assert!((1..=60).contains(&k), "EsbtForest dimension {k} out of range 1..=60");
        EsbtForest { k }
    }

    /// Cube dimension `k` = number of trees.
    #[inline]
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of cube nodes `2^k`.
    #[inline]
    #[must_use]
    pub fn nodes(&self) -> usize {
        1usize << self.k
    }

    #[inline]
    fn ror(&self, x: usize, j: u32) -> usize {
        let mask = self.nodes() - 1;
        ((x >> j) | (x << (self.k - j))) & mask
    }

    #[inline]
    fn rol(&self, x: usize, j: u32) -> usize {
        self.ror(x, self.k - j)
    }

    /// Parent of `z != 0` in tree 0 (see the type docs for the rule).
    fn parent0(z: usize) -> usize {
        debug_assert!(z != 0);
        if z & 1 == 1 {
            let msb = 1usize << (usize::BITS - 1 - z.leading_zeros());
            z ^ msb
        } else {
            z | 1
        }
    }

    /// Parent of `node` in tree `j` (`None` for the source node 0).
    ///
    /// # Panics
    /// Panics when `tree >= k` or `node` is out of range.
    #[must_use]
    pub fn parent(&self, tree: u32, node: NodeId) -> Option<NodeId> {
        assert!(tree < self.k, "tree {tree} out of range for k={}", self.k);
        assert!(node < self.nodes(), "node {node} out of range");
        if node == 0 {
            return None;
        }
        let j = tree % self.k;
        if j == 0 {
            Some(Self::parent0(node))
        } else {
            Some(self.rol(Self::parent0(self.ror(node, j)), j))
        }
    }

    /// Edge depth of `node` below the source in tree `tree` (0 for the
    /// source node itself).
    #[must_use]
    pub fn depth(&self, tree: u32, node: NodeId) -> usize {
        let mut d = 0usize;
        let mut at = node;
        while let Some(p) = self.parent(tree, at) {
            at = p;
            d += 1;
        }
        d
    }

    /// Maximum edge depth over all nodes of tree `tree`; equals
    /// [`crate::cost::esbt_height`]`(k)` for every tree.
    #[must_use]
    pub fn height(&self, tree: u32) -> usize {
        (0..self.nodes()).map(|n| self.depth(tree, n)).max().unwrap_or(0)
    }

    /// Children of `node` in tree `tree`, ascending — the fixed tree-rank
    /// order that makes all-port combine order deterministic.
    #[must_use]
    pub fn children(&self, tree: u32, node: NodeId) -> Vec<NodeId> {
        (0..self.nodes()).filter(|&c| self.parent(tree, c) == Some(node)).collect()
    }

    /// All `2^k - 1` directed parent edges `(parent, child)` of tree
    /// `tree`, in ascending child order.
    pub fn edges(&self, tree: u32) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (1..self.nodes()).map(move |c| {
            let p = self.parent(tree, c).unwrap_or(0);
            (p, c)
        })
    }
}

/// Split `0..len` into `pieces` contiguous ranges of near-equal length
/// (the first `len % pieces` ranges are one element longer).
fn split_even(len: usize, pieces: usize) -> impl Iterator<Item = Range<usize>> {
    let (base, extra) = (len / pieces, len % pieces);
    (0..pieces).scan(0usize, move |at, i| {
        let start = *at;
        *at += base + usize::from(i < extra);
        Some(start..*at)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, PortModel};
    use crate::counters::Counters;

    fn machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }

    /// FNV-1a over every segment's length and element bits, in node order.
    fn fingerprint<'a>(segs: impl IntoIterator<Item = &'a [f64]>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for seg in segs {
            eat(seg.len() as u64);
            for &x in seg {
                eat(x.to_bits());
            }
        }
        h
    }

    /// Payload fingerprint, clock bits and counters of one run.
    type Pinned = (u64, u64, Counters);

    #[test]
    fn characterisation_pins_payload_clock_and_counters() {
        let dim = 5u32;
        let sub = [1u32, 3, 4];
        let all: Vec<u32> = (0..dim).collect();
        let run = |f: &dyn Fn(&mut Hypercube, &mut NodeSlab<f64>),
                   lens: &dyn Fn(usize) -> usize| {
            let mut hc = Hypercube::new(dim, CostModel::cm2());
            let mut slab = NodeSlab::from_nested(&hc.locals_from_fn(|n| {
                (0..lens(n)).map(|i| (n as f64 + 0.3) / (i as f64 + 1.7)).collect()
            }));
            f(&mut hc, &mut slab);
            let pinned: Pinned =
                (fingerprint(slab.iter_segs()), hc.elapsed_us().to_bits(), *hc.counters());
            pinned
        };
        let add = |x: f64, y: f64| x + y;
        let got = [
            run(&|hc, s| allreduce_rabenseifner(hc, s, &sub, add), &|_| 13),
            run(&|hc, s| allreduce_rabenseifner(hc, s, &all, add), &|_| 13),
            run(&|hc, s| broadcast_scatter_allgather(hc, s, &sub, 5), &|n| 13 + (n & 1) + n % 3),
        ];
        let counters = |message_steps, elements_transferred, max_channel_load, flops| Counters {
            message_steps,
            elements_transferred,
            max_channel_load,
            flops,
            ..Counters::default()
        };
        // Recorded from the nested-Vec implementation this module had
        // before it moved onto the slab data plane.
        let want: [Pinned; 3] = [
            (15_498_861_651_385_128_501, 4_641_612_086_107_543_962, counters(6, 728, 7, 13)),
            (7_020_643_403_186_752_997, 4_644_605_396_563_001_344, counters(10, 806, 7, 15)),
            (10_148_647_896_722_760_037, 4_643_985_272_004_935_680, counters(8, 603, 16, 0)),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn esbt_small_tree_matches_hand_derivation() {
        // k = 3, tree 0: 0→1; 1→{3,5}; 3→{2,7}; 5→{4}; 7→{6}.
        let f = EsbtForest::new(3);
        assert_eq!(f.parent(0, 1), Some(0));
        assert_eq!(f.parent(0, 3), Some(1));
        assert_eq!(f.parent(0, 5), Some(1));
        assert_eq!(f.parent(0, 2), Some(3));
        assert_eq!(f.parent(0, 7), Some(3));
        assert_eq!(f.parent(0, 4), Some(5));
        assert_eq!(f.parent(0, 6), Some(7));
        assert_eq!(f.children(0, 1), vec![3, 5]);
        // Tree j's source edge is 0 → 2^j.
        for j in 0..3 {
            assert_eq!(f.parent(j, 1 << j), Some(0));
        }
    }

    #[test]
    fn esbt_trees_are_spanning_and_bounded_by_height() {
        use crate::cost::esbt_height;
        for k in 1..=8u32 {
            let f = EsbtForest::new(k);
            for tree in 0..k {
                for node in 0..f.nodes() {
                    let d = f.depth(tree, node); // terminates => reaches 0
                    assert!(d <= esbt_height(k as usize), "k={k} tree={tree} node={node}");
                }
                assert_eq!(f.height(tree), esbt_height(k as usize), "k={k} tree={tree}");
                assert_eq!(f.edges(tree).count(), f.nodes() - 1);
            }
        }
    }

    #[test]
    fn esbt_forest_partitions_directed_edges() {
        use std::collections::HashSet;
        for k in 1..=8u32 {
            let f = EsbtForest::new(k);
            let mut seen: HashSet<(usize, usize)> = HashSet::new();
            for tree in 0..k {
                for (p, c) in f.edges(tree) {
                    assert_eq!((p ^ c).count_ones(), 1, "k={k} tree={tree}: {p}->{c} not an edge");
                    assert!(seen.insert((p, c)), "k={k}: duplicate directed edge {p}->{c}");
                }
            }
            // Every directed cube edge is used exactly once, except the k
            // edges into node 0.
            let expected = (k as usize) * f.nodes() - k as usize;
            assert_eq!(seen.len(), expected, "k={k}");
            for (_, c) in &seen {
                assert_ne!(*c, 0, "no tree edge points into the source");
            }
        }
    }

    #[test]
    fn split_even_covers_everything() {
        let parts: Vec<Range<usize>> = split_even(10, 4).collect();
        assert_eq!(parts, vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(split_even(2, 4).map(|r| r.len()).collect::<Vec<_>>(), vec![1, 1, 0, 0]);
    }

    /// Node `root` holds `payload`; every other node holds nothing.
    fn rooted(hc: &Hypercube, root: NodeId, payload: &[u64]) -> NodeSlab<u64> {
        NodeSlab::from_nested(
            &hc.locals_from_fn(|n| if n == root { payload.to_vec() } else { vec![] }),
        )
    }

    #[test]
    fn scatter_allgather_broadcast_is_semantically_a_broadcast() {
        let mut hc = machine(4);
        let dims: Vec<u32> = hc.cube().iter_dims().collect();
        let payload: Vec<u64> = (0..37).collect();
        let mut slab = rooted(&hc, 0, &payload);
        broadcast_scatter_allgather(&mut hc, &mut slab, &dims, 0);
        for (n, buf) in slab.iter_segs().enumerate() {
            assert_eq!(buf, &payload[..], "node {n}");
        }
    }

    #[test]
    fn scatter_allgather_with_nonzero_root() {
        let mut hc = machine(3);
        let dims = [0u32, 1, 2];
        let payload: Vec<u64> = (0..16).collect();
        let mut slab = rooted(&hc, 5, &payload);
        broadcast_scatter_allgather(&mut hc, &mut slab, &dims, 5);
        for buf in slab.iter_segs() {
            assert_eq!(buf, &payload[..]);
        }
    }

    /// Simulated time of a `len`-element broadcast from node 0 over a
    /// whole 6-cube under `cost`: `(binomial, scatter+allgather)`.
    fn broadcast_times(cost: CostModel, len: usize) -> (f64, f64) {
        let dims: Vec<u32> = (0..6).collect();
        let run = |balanced: bool| {
            let mut hc = Hypercube::new(6, cost);
            let mut slab = rooted(&hc, 0, &vec![1; len]);
            if balanced {
                broadcast_scatter_allgather(&mut hc, &mut slab, &dims, 0);
            } else {
                crate::collective::broadcast_slab(&mut hc, &mut slab, &dims, 0);
            }
            hc.elapsed_us()
        };
        (run(false), run(true))
    }

    #[test]
    fn large_messages_favour_scatter_allgather() {
        let (binomial, balanced) = broadcast_times(CostModel::unit(), 4096);
        let all_port = CostModel { ports: PortModel::AllPort, ..CostModel::unit() };
        let (allport, _) = broadcast_times(all_port, 4096);
        assert!(balanced < binomial, "balanced {balanced} vs binomial {binomial}");
        assert!(allport < balanced, "allport {allport} vs balanced {balanced}");
    }

    #[test]
    fn small_messages_favour_binomial() {
        // With alpha big relative to beta*L, fewer start-ups win.
        let (binomial, balanced) =
            broadcast_times(CostModel { alpha: 100.0, ..CostModel::unit() }, 4);
        assert!(binomial < balanced, "binomial {binomial} vs balanced {balanced}");
    }

    #[test]
    fn rabenseifner_allreduce_matches_butterfly() {
        let mut hc1 = machine(3);
        let dims: Vec<u32> = hc1.cube().iter_dims().collect();
        let make = |hc: &Hypercube| {
            NodeSlab::from_nested(
                &hc.locals_from_fn(|n| (0..17).map(|i| ((n + 1) * (i + 1)) as f64).collect()),
            )
        };
        let mut a = make(&hc1);
        allreduce_rabenseifner(&mut hc1, &mut a, &dims, |x, y| x + y);

        let mut hc2 = machine(3);
        let mut b = make(&hc2);
        crate::collective::allreduce_slab(&mut hc2, &mut b, &dims, |x, y| x + y);

        for n in 0..8 {
            assert_eq!(a[n].len(), 17, "node {n}");
            for (x, y) in a[n].iter().zip(&b[n]) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rabenseifner_saves_bandwidth_on_large_buffers() {
        let dims: Vec<u32> = (0..6).collect();
        let len = 8192usize;
        let mut hc1 = Hypercube::new(6, CostModel::zero_latency());
        let mut a = NodeSlab::filled(&[len; 64], 1.0f64);
        allreduce_rabenseifner(&mut hc1, &mut a, &dims, |x, y| x + y);
        let mut hc2 = Hypercube::new(6, CostModel::zero_latency());
        let mut b = NodeSlab::filled(&[len; 64], 1.0f64);
        crate::collective::allreduce_slab(&mut hc2, &mut b, &dims, |x, y| x + y);
        assert!(hc1.elapsed_us() < 0.7 * hc2.elapsed_us());
    }
}
