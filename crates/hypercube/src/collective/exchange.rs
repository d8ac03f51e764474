//! Pairwise exchange along one cube dimension.

use crate::machine::Hypercube;
use crate::slab::NodeSlab;

/// Pairwise exchange over a flat [`NodeSlab`]: each segment ends holding
/// its `dim`-neighbour's previous content — the primitive step of
/// butterfly algorithms (FFT stages, bitonic compare-exchange). One
/// superstep, `alpha + beta * L` on full-duplex channels. When partner
/// segments have equal lengths (the common, load-balanced case) this is
/// an in-arena `swap_with_slice`; otherwise one rebuild pass.
///
/// # Panics
/// Panics if `dim` is out of range.
pub fn exchange_slab<T: Copy>(hc: &mut Hypercube, slab: &mut NodeSlab<T>, dim: u32) {
    let cube = hc.cube();
    assert!(dim < cube.dim(), "dimension {dim} out of range for cube of dim {}", cube.dim());
    assert_eq!(slab.p(), cube.nodes());
    let bit = 1usize << dim;
    let (max_len, total) = (slab.max_seg_len(), slab.total_len());
    let p = slab.p();
    if super::nodes_matching(p, bit, 0).all(|lo| slab.len_of(lo) == slab.len_of(lo | bit)) {
        for lo in super::nodes_matching(p, bit, 0) {
            let (a, b) = slab.pair_mut(lo, lo | bit);
            a.swap_with_slice(b);
        }
    } else {
        let mut out = NodeSlab::with_capacity(slab.p(), slab.total_len());
        for node in 0..slab.p() {
            out.push_seg(&slab[node ^ bit]);
        }
        slab.swap(&mut out);
    }
    // Every node receives its partner's whole segment: the busiest
    // channel carries the longest one and every element moves once.
    hc.charge_exchange_step(super::sends_where(p, bit, 0, bit), max_len, total as u64);
}

#[cfg(test)]
mod tests {
    use super::super::reference;
    use super::super::testutil::unit_machine;
    use super::*;

    #[test]
    fn exchange_swaps_buffers() {
        let mut hc = unit_machine(3);
        let locals = hc.locals_from_fn(|n| vec![n as u64; n % 3]);
        let mut slab = NodeSlab::from_nested(&locals);
        exchange_slab(&mut hc, &mut slab, 1);
        for node in 0..8 {
            assert_eq!(&slab[node], &locals[node ^ 2][..], "node {node}");
        }
        assert_eq!(hc.counters().message_steps, 1);
    }

    #[test]
    fn exchange_cost_is_one_superstep_of_the_longest_buffer() {
        let mut hc = unit_machine(2);
        let mut slab = NodeSlab::filled(&[7, 2, 2, 2], 0u8);
        exchange_slab(&mut hc, &mut slab, 0);
        assert_eq!(hc.elapsed_us(), 1.0 + 7.0, "alpha + beta * max_len");
    }

    #[test]
    fn double_exchange_restores() {
        let mut hc = unit_machine(4);
        let locals = hc.locals_from_fn(|n| vec![n]);
        let mut slab = NodeSlab::from_nested(&locals);
        exchange_slab(&mut hc, &mut slab, 3);
        exchange_slab(&mut hc, &mut slab, 3);
        assert_eq!(slab.to_nested(), locals);
    }

    #[test]
    fn slab_exchange_matches_for_equal_and_ragged_lengths() {
        for ragged in [false, true] {
            let mut hc1 = unit_machine(3);
            let locals = hc1.locals_from_fn(|n| vec![n as u16; if ragged { n % 3 } else { 2 }]);
            let copied = reference::exchange(&mut hc1, &locals, 0);
            let mut hc2 = unit_machine(3);
            let mut slab = NodeSlab::from_nested(&locals);
            exchange_slab(&mut hc2, &mut slab, 0);
            assert_eq!(slab.to_nested(), copied, "ragged={ragged}");
            assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
            assert_eq!(hc1.counters(), hc2.counters());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_dim_panics() {
        let mut hc = unit_machine(2);
        let mut slab: NodeSlab<u8> = NodeSlab::new(4);
        exchange_slab(&mut hc, &mut slab, 2);
    }
}
