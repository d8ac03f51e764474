//! One-to-all broadcast within subcubes (spanning binomial tree).

use super::{allport, check_dims};
use crate::cost::{Algo, Collective};
use crate::machine::Hypercube;
use crate::slab::NodeSlab;
use crate::topology::NodeId;

/// Broadcast over a flat [`NodeSlab`]: every segment ends holding a copy
/// of its subcube root's segment (the node at subcube coordinate
/// `root_coord`).
///
/// Single-port machines run the classic spanning-binomial-tree schedule:
/// `|dims|` supersteps, step `j` doubling the set of informed nodes along
/// `dims[j]`, for `|dims| * (alpha + beta * L)` — the one-port-optimal
/// start-up count.
///
/// The spanning-binomial-tree *schedule* is charged step by step from
/// segment lengths alone (every informed sender holds exactly the root's
/// buffer, so each step's load is known analytically); the data is then
/// placed in **one** pass instead of being recopied at every hop. Same
/// simulated clock, counters, and fault interaction as the hop-by-hop
/// seed implementation ([`super::reference::broadcast`]), `k` times less
/// host copying.
///
/// # Panics
/// Panics if `dims` is invalid or `root_coord >= 2^{|dims|}`.
pub fn broadcast_slab<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    root_coord: usize,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    let k = dims.len();
    assert!(root_coord < (1usize << k), "root coordinate out of range");
    assert_eq!(slab.p(), cube.nodes());
    if k == 0 {
        return;
    }

    // Every node's subcube root shares its bits outside `dims` and has
    // `root_bits` on them; the roots' buffers are the only payload any
    // informed node ever holds.
    let p = slab.p();
    let all = cube.dims_mask(dims);
    let root_bits = cube.deposit_coords(root_coord, dims);
    let root_of = |node: NodeId| (node & !all) | root_bits;
    let (root_len, root_sum) =
        super::nodes_matching(p, all, root_bits).fold((0usize, 0u64), |(max, sum), root| {
            let len = slab.len_of(root);
            (max.max(len), sum + len as u64)
        });

    match hc.choose_algo(Collective::Broadcast, k, root_len) {
        Algo::SinglePort => {
            // Step j: the 2^j informed members of every subcube (relative
            // coordinate below 2^j) each send their root's buffer.
            for (j, &d) in dims.iter().enumerate() {
                let mask = cube.dims_mask(&dims[j..]);
                let sends = super::sends_where(p, mask, root_bits & mask, 1usize << d);
                hc.charge_exchange_step(sends, root_len, root_sum << j);
            }
        }
        Algo::AllPort { chunks } => {
            // Every non-root member receives its root's buffer once.
            let total = root_sum * ((1u64 << k) - 1);
            allport::charge(hc, Collective::Broadcast, k, root_len, chunks, total);
        }
    }

    let mut out = NodeSlab::with_capacity(p, (root_sum << k) as usize);
    for node in 0..p {
        out.push_seg(&slab[root_of(node)]);
    }
    slab.swap(&mut out);
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{on_nested, unit_machine};
    use super::*;

    #[test]
    fn broadcast_whole_cube() {
        let mut hc = unit_machine(4);
        let dims: Vec<u32> = hc.cube().iter_dims().collect();
        let mut locals = hc.locals_from_fn(|n| if n == 0 { vec![1.0, 2.0, 3.0] } else { vec![] });
        on_nested(&mut locals, |s| broadcast_slab(&mut hc, s, &dims, 0));
        for buf in &locals {
            assert_eq!(buf, &vec![1.0, 2.0, 3.0]);
        }
        assert_eq!(hc.counters().message_steps, 4, "d supersteps");
        assert_eq!(hc.elapsed_us(), 4.0 * (1.0 + 3.0));
    }

    #[test]
    fn broadcast_nonzero_root() {
        let mut hc = unit_machine(3);
        let dims = [0u32, 1, 2];
        let root_coord = 5usize;
        let mut locals = hc.locals_from_fn(|n| if n == 5 { vec![9u32] } else { vec![0] });
        on_nested(&mut locals, |s| broadcast_slab(&mut hc, s, &dims, root_coord));
        for buf in &locals {
            assert_eq!(buf, &vec![9u32]);
        }
    }

    #[test]
    fn broadcast_within_row_subcubes_only() {
        // Cube of dim 4 seen as a 4x4 grid: dims {0,1} = columns within a
        // row, dims {2,3} = rows. Broadcast along {0,1} from coord 0
        // spreads each row-leader's value across its row only.
        let mut hc = unit_machine(4);
        let row_dims = [0u32, 1];
        let mut locals = hc.locals_from_fn(|n| vec![(n >> 2) as u32 * 100]); // row id * 100
                                                                             // Give non-leaders junk to prove it is overwritten.
        for n in hc.cube().iter_nodes() {
            if hc.cube().extract_coords(n, &row_dims) != 0 {
                locals[n] = vec![u32::MAX];
            }
        }
        on_nested(&mut locals, |s| broadcast_slab(&mut hc, s, &row_dims, 0));
        for n in hc.cube().iter_nodes() {
            let row = n >> 2;
            assert_eq!(locals[n], vec![row as u32 * 100], "node {n}");
        }
        assert_eq!(hc.counters().message_steps, 2);
    }

    #[test]
    fn broadcast_empty_dims_is_noop() {
        let mut hc = unit_machine(3);
        let mut locals = hc.locals_from_fn(|n| vec![n]);
        let before = locals.clone();
        on_nested(&mut locals, |s| broadcast_slab(&mut hc, s, &[], 0));
        assert_eq!(locals, before);
        assert_eq!(hc.elapsed_us(), 0.0);
    }

    #[test]
    fn broadcast_noncontiguous_dims() {
        let mut hc = unit_machine(5);
        let dims = [1u32, 4];
        // Roots: nodes with bits 1 and 4 equal to root_coord=0b10 -> bit1=0, bit4=1.
        let mut locals = hc.locals_from_fn(|n| vec![n]);
        on_nested(&mut locals, |s| broadcast_slab(&mut hc, s, &dims, 0b10));
        for n in hc.cube().iter_nodes() {
            let root = hc.cube().with_coords(n, 0b10, &dims);
            assert_eq!(locals[n], vec![root], "node {n} gets its subcube root's value");
        }
    }

    #[test]
    fn slab_broadcast_matches_reference_with_ragged_roots() {
        let mut hc1 = unit_machine(4);
        let dims = [0u32, 2];
        let mut a = hc1.locals_from_fn(|n| vec![n as u64; (n % 3) + 1]);
        let mut b = a.clone();
        super::super::reference::broadcast(&mut hc1, &mut a, &dims, 1);
        let mut hc2 = unit_machine(4);
        on_nested(&mut b, |s| broadcast_slab(&mut hc2, s, &dims, 1));
        assert_eq!(a, b);
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
    }

    #[test]
    #[should_panic(expected = "root coordinate out of range")]
    fn bad_root_panics() {
        let mut hc = unit_machine(3);
        let mut locals: Vec<Vec<u8>> = hc.empty_locals();
        on_nested(&mut locals, |s| broadcast_slab(&mut hc, s, &[0, 1], 4));
    }
}
