//! All-to-one reduction and all-reduce within subcubes.

use super::{allport, check_dims};
use crate::cost::{Algo, Collective};
use crate::machine::Hypercube;
use crate::slab::NodeSlab;
use crate::topology::NodeId;

/// Reduce over a flat [`NodeSlab`]: within every subcube spanned by
/// `dims`, the equal-length segments of all members are combined
/// elementwise with the **commutative associative** operator `op`,
/// leaving the result in the segment of the node at subcube coordinate
/// `root_coord` and emptying every other member's segment.
///
/// Reverse spanning-binomial-tree: `|dims|` supersteps, each costing
/// `alpha + (beta + gamma) * L`. Combines run in place through
/// [`NodeSlab::pair_mut`] — no buffer is taken, cloned, or reallocated
/// until one final compaction pass.
///
/// # Panics
/// Panics if the segments within a subcube have different lengths, or on
/// an invalid `dims`/`root_coord`.
pub fn reduce_slab<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    root_coord: usize,
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    let k = dims.len();
    assert!(root_coord < (1usize << k), "root coordinate out of range");
    assert_eq!(slab.p(), cube.nodes());
    if k == 0 {
        return;
    }

    let algo = hc.choose_algo(Collective::Reduce, k, slab.max_seg_len());
    let mut allport_total: u64 = 0;

    // Live lengths: a sender's segment is logically consumed (the slab
    // keeps its stale bytes until the final compaction).
    let p = slab.p();
    let root_bits = cube.deposit_coords(root_coord, dims);
    let mut lens: Vec<usize> = (0..p).map(|n| slab.len_of(n)).collect();
    for j in (0..k).rev() {
        // Senders: relative coordinate x in [2^j, 2^{j+1}), i.e. bit j set
        // and every higher coordinate bit equal to the root's.
        let mask = cube.dims_mask(&dims[j..]);
        let chan = 1usize << dims[j];
        let bits = (root_bits & mask) ^ chan;
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        for src in super::nodes_matching(p, mask, bits) {
            let dst = src ^ chan;
            let sent_len = lens[src];
            assert_eq!(
                sent_len, lens[dst],
                "reduce requires equal buffer lengths within a subcube"
            );
            max_len = max_len.max(sent_len);
            total += sent_len as u64;
            lens[src] = 0;
            let (s, d) = slab.pair_mut(src, dst);
            for (acc, &v) in d[..sent_len].iter_mut().zip(&s[..sent_len]) {
                *acc = op(*acc, v);
            }
        }
        match algo {
            Algo::SinglePort => {
                hc.charge_exchange_step(super::sends_where(p, mask, bits, chan), max_len, total);
                hc.charge_flops(max_len);
            }
            Algo::AllPort { .. } => allport_total += total,
        }
    }
    if let Algo::AllPort { chunks } = algo {
        allport::charge(hc, Collective::Reduce, k, slab.max_seg_len(), chunks, allport_total);
    }

    // Compact: roots keep their combined segment, everyone else empties.
    let mut out = NodeSlab::with_capacity(slab.p(), lens.iter().sum());
    for node in 0..slab.p() {
        out.push_seg(&slab[node][..lens[node]]);
    }
    slab.swap(&mut out);
}

/// All-reduce over a flat [`NodeSlab`]: after the call every segment in
/// a subcube holds the elementwise `op`-combination of all of them.
///
/// The charged schedule is the butterfly exchange: `|dims|` supersteps
/// of pairwise exchange+combine, `alpha + (beta + gamma) * L` each — the
/// same time as [`reduce_slab`], but the result is replicated, which is
/// how a row/column reduction keeps a vector aligned with the grid (no
/// separate broadcast needed). Charges stay per dimension: the longest
/// segment and the machine-wide element count on the single-port
/// schedule, or one all-port schedule charge for the whole call (see
/// [`allport`]). They depend on the segment lengths only, so the call
/// prices itself first and then folds.
///
/// The host computes the butterfly's values without running it. After
/// the butterfly's steps over `dims[..j]`, every member of a
/// `dims[..j]`-subcube holds the same value, so step `j`'s
/// `op(lo, hi)` needs computing only at the member whose bits on
/// `dims[..=j]` are clear: a tree fold of `2^k - 1` combines per
/// subcube instead of the butterfly's `k * 2^(k-1)`, in the butterfly's
/// operand order, then one pass copying each subcube's value to its
/// other members. Payload bits are those of the butterfly for any `op`.
/// Both passes go through the arena's offset accessors
/// (`NodeSlab::combine_seg`, `NodeSlab::copy_seg`).
///
/// # Panics
/// Panics if the segments within a subcube have different lengths, or on
/// an invalid `dims`.
pub fn allreduce_slab<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(slab.p(), cube.nodes());
    charge_allreduce(hc, dims, slab.max_seg_len(), slab.total_len() as u64);

    let p = slab.p();
    // Fold: after dim `d`, the node with every bit done so far clear
    // holds the butterfly's value for its whole `done`-subcube.
    let mut done = 0usize;
    for &d in dims {
        let bit = 1usize << d;
        done |= bit;
        for node in super::nodes_matching(p, done, 0) {
            slab.combine_seg(node, node | bit, &op);
        }
    }
    // Replicate: every other member copies its subcube's fold root.
    for node in (0..p).filter(|&node| node & done != 0) {
        slab.copy_seg(node & !done, node);
    }
}

/// Charge the machine for an all-reduce over `dims` whose longest
/// segment is `max_len` elements and whose segments hold `total`
/// elements machine-wide: per dim `charge_exchange_step` + `charge_flops`
/// on the single-port schedule, or one all-port schedule charge. This
/// is the whole price of [`allreduce_slab`] and of [`allreduce_line`].
fn charge_allreduce(hc: &mut Hypercube, dims: &[u32], max_len: usize, total: u64) {
    let k = dims.len();
    match hc.choose_algo(Collective::Allreduce, k, max_len) {
        Algo::SinglePort => {
            let p = hc.p();
            for &d in dims {
                let bit = 1usize << d;
                hc.charge_exchange_step(super::sends_where(p, bit, 0, bit), max_len, total);
                hc.charge_flops(max_len);
            }
        }
        Algo::AllPort { chunks } => {
            allport::charge(hc, Collective::Allreduce, k, max_len, chunks, k as u64 * total);
        }
    }
}

/// The scalar all-reduce of one grid line: the value [`allreduce_slab`]
/// leaves on node 0 when it all-reduces one element per node over every
/// cube dim in ascending order, where the nodes `n & mask == bits` hold
/// `value_at(n)` and every other node holds `op`'s `identity` — computed
/// from the line's values alone, and charged exactly as that all-reduce
/// (through the same pricing function). The machine is charged for a result
/// replicated on every node; the host returns only the root value.
///
/// The fold keeps one partial per subcube that meets the line, in the
/// butterfly's operand order. On a dim outside `mask` two such partials
/// meet. On a dim in `mask` the partner subcube holds identities only,
/// and after dims `0..d` its value is the identity fold `I_d`
/// (`I_0 = identity`, `I_{j+1} = op(I_j, I_j)`); the line's partial
/// meets it on the side given by the line's bit `d` in `bits`. That is
/// what keeps `0.0 + -0.0` and tie-breaking ops bit-exact. Host work is
/// `O(line * lg p)`, with no per-node slab.
///
/// # Panics
/// Panics if `bits` has a bit outside `mask` or names no node.
pub fn allreduce_line<T: Copy>(
    hc: &mut Hypercube,
    mask: usize,
    bits: usize,
    identity: T,
    value_at: impl FnMut(NodeId) -> T,
    op: impl Fn(T, T) -> T,
) -> T {
    let cube = hc.cube();
    let p = cube.nodes();
    assert!(bits & !mask == 0 && bits < p, "line bits {bits:#b} outside mask {mask:#b}");
    charge_allreduce(hc, cube.dims(), 1, p as u64);

    // `vals[i]` for `i` a multiple of `stride` is the partial of the
    // i-th line-meeting subcube (line nodes in ascending order).
    let mut vals: Vec<T> = super::nodes_matching(p, mask, bits).map(value_at).collect();
    let mut stride = 1usize;
    let mut idle = identity;
    for d in cube.iter_dims() {
        let bit = 1usize << d;
        if mask & bit == 0 {
            for i in (0..vals.len()).step_by(2 * stride) {
                vals[i] = op(vals[i], vals[i + stride]);
            }
            stride *= 2;
        } else {
            for i in (0..vals.len()).step_by(stride) {
                vals[i] = if bits & bit == 0 { op(vals[i], idle) } else { op(idle, vals[i]) };
            }
        }
        idle = op(idle, idle);
    }
    vals[0]
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{labelled_locals, on_nested, unit_machine};
    use super::*;

    #[test]
    fn reduce_whole_cube_sums() {
        let mut hc = unit_machine(4);
        let dims: Vec<u32> = hc.cube().iter_dims().collect();
        let mut locals = labelled_locals(&hc, 3);
        let expected: Vec<f64> =
            (0..3).map(|i| (0..16).map(|n| (n * 1000 + i) as f64).sum()).collect();
        on_nested(&mut locals, |s| reduce_slab(&mut hc, s, &dims, 0, |a, b| a + b));
        assert_eq!(locals[0], expected);
        for n in 1..16 {
            assert!(locals[n].is_empty(), "non-root buffers cleared");
        }
        assert_eq!(hc.counters().message_steps, 4);
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let mut hc = unit_machine(3);
        let mut locals = hc.locals_from_fn(|n| vec![n as u64]);
        on_nested(&mut locals, |s| reduce_slab(&mut hc, s, &[0, 1, 2], 6, |a, b| a + b));
        assert_eq!(locals[6], vec![(0..8).sum::<u64>()]);
    }

    #[test]
    fn reduce_min_within_columns() {
        // dims {2,3} reduce over rows of a 4x4 grid: per column minimum.
        let mut hc = unit_machine(4);
        let col_dims = [2u32, 3];
        let mut locals = hc.locals_from_fn(|n| vec![((n * 7919) % 97) as i64]);
        let expected: Vec<i64> = (0..4)
            .map(|col| (0..4).map(|row| (((row << 2 | col) * 7919) % 97) as i64).min().unwrap())
            .collect();
        on_nested(&mut locals, |s| reduce_slab(&mut hc, s, &col_dims, 0, i64::min));
        for col in 0..4usize {
            assert_eq!(locals[col], vec![expected[col]], "column {col}");
        }
    }

    #[test]
    fn allreduce_replicates_result_everywhere() {
        let mut hc = unit_machine(4);
        let dims: Vec<u32> = hc.cube().iter_dims().collect();
        let mut locals = labelled_locals(&hc, 2);
        let expected: Vec<f64> =
            (0..2).map(|i| (0..16).map(|n| (n * 1000 + i) as f64).sum()).collect();
        on_nested(&mut locals, |s| allreduce_slab(&mut hc, s, &dims, |a, b| a + b));
        for n in 0..16 {
            assert_eq!(locals[n], expected, "node {n}");
        }
        assert_eq!(hc.counters().message_steps, 4);
    }

    #[test]
    fn allreduce_subcube_independence() {
        // allreduce along dim {0} only: pairs (2k, 2k+1) sum privately.
        let mut hc = unit_machine(3);
        let mut locals = hc.locals_from_fn(|n| vec![n as u64]);
        on_nested(&mut locals, |s| allreduce_slab(&mut hc, s, &[0], |a, b| a + b));
        for n in 0..8usize {
            let pair_sum = ((n & !1) + (n | 1)) as u64;
            assert_eq!(locals[n], vec![pair_sum]);
        }
    }

    #[test]
    fn reduce_and_allreduce_agree() {
        let mut hc1 = unit_machine(5);
        let dims: Vec<u32> = hc1.cube().iter_dims().collect();
        let mut a = hc1.locals_from_fn(|n| vec![(n as f64).sin(); 4]);
        let mut b = a.clone();
        on_nested(&mut a, |s| reduce_slab(&mut hc1, s, &dims, 0, |x, y| x + y));
        let mut hc2 = unit_machine(5);
        on_nested(&mut b, |s| allreduce_slab(&mut hc2, s, &dims, |x, y| x + y));
        for (x, y) in a[0].iter().zip(&b[0]) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn reduce_empty_dims_is_noop() {
        let mut hc = unit_machine(3);
        let mut locals = hc.locals_from_fn(|n| vec![n as u64]);
        let before = locals.clone();
        on_nested(&mut locals, |s| reduce_slab(&mut hc, s, &[], 0, |a, b| a + b));
        assert_eq!(locals, before);
    }

    #[test]
    fn slab_reduce_bitwise_matches_reference() {
        use super::super::reference;
        let dims = [0u32, 1, 3];
        let mut hc1 = unit_machine(4);
        let mut a = hc1.locals_from_fn(|n| vec![(n as f64).sin(); 5]);
        let mut b = a.clone();
        reference::reduce(&mut hc1, &mut a, &dims, 2, |x, y| x + y);
        let mut hc2 = unit_machine(4);
        on_nested(&mut b, |s| reduce_slab(&mut hc2, s, &dims, 2, |x, y| x + y));
        assert_eq!(a, b, "payload bit-identical (same combine order)");
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
    }

    #[test]
    #[should_panic(expected = "equal buffer lengths")]
    fn ragged_buffers_panic() {
        let mut hc = unit_machine(2);
        let mut locals = hc.locals_from_fn(|n| vec![0u8; n]);
        on_nested(&mut locals, |s| reduce_slab(&mut hc, s, &[0, 1], 0, |a, b| a + b));
    }
}
