//! Pairwise exchange along one cube dimension.

use crate::machine::Hypercube;
use crate::slab::NodeSlab;

/// Charge one exchange superstep along `bit`: every node receives its
/// partner's whole buffer, so the busiest channel carries the longest
/// buffer and the machine moves every element once.
fn charge_exchange(hc: &mut Hypercube, bit: usize, max_len: usize, total: usize) {
    let p = hc.p();
    hc.charge_exchange_step(super::sends_where(p, bit, 0, bit), max_len, total as u64);
}

/// Every node receives a copy of its `dim`-neighbour's buffer (keeping
/// its own): the primitive step of butterfly algorithms (FFT stages,
/// bitonic compare-exchange, all-reduce). One superstep,
/// `alpha + beta * L` on full-duplex channels.
///
/// `T: Copy` so the per-node copies compile to `memcpy`; callers that
/// don't need to keep their own buffer should use
/// [`exchange_in_place`] (zero-copy) or [`exchange_slab`].
///
/// # Panics
/// Panics if `dim` is out of range.
pub fn exchange<T: Copy>(hc: &mut Hypercube, locals: &[Vec<T>], dim: u32) -> Vec<Vec<T>> {
    let cube = hc.cube();
    assert!(dim < cube.dim(), "dimension {dim} out of range for cube of dim {}", cube.dim());
    assert_eq!(locals.len(), cube.nodes());
    let bit = 1usize << dim;
    let out: Vec<Vec<T>> = (0..cube.nodes()).map(|node| locals[node ^ bit].to_vec()).collect();
    let max_len = locals.iter().map(Vec::len).max().unwrap_or(0);
    charge_exchange(hc, bit, max_len, locals.iter().map(Vec::len).sum());
    out
}

/// As [`exchange`], but **swapping** the per-node buffers in place: node
/// `n` ends holding what `n ^ 2^dim` held (its own buffer is given
/// away). Zero element copies — the `Vec` handles are swapped — and no
/// trait bounds. Same charge as [`exchange`].
pub fn exchange_in_place<T>(hc: &mut Hypercube, locals: &mut [Vec<T>], dim: u32) {
    let cube = hc.cube();
    assert!(dim < cube.dim(), "dimension {dim} out of range for cube of dim {}", cube.dim());
    assert_eq!(locals.len(), cube.nodes());
    let bit = 1usize << dim;
    let max_len = locals.iter().map(Vec::len).max().unwrap_or(0);
    let total = locals.iter().map(Vec::len).sum();
    for lo in super::nodes_matching(cube.nodes(), bit, 0) {
        locals.swap(lo, lo | bit);
    }
    charge_exchange(hc, bit, max_len, total);
}

/// As [`exchange_in_place`], over a flat [`NodeSlab`]: each segment ends
/// holding its `dim`-neighbour's previous content. When partner
/// segments have equal lengths (the common, load-balanced case) this is
/// an in-arena `swap_with_slice`; otherwise one rebuild pass.
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
    charge_exchange(hc, bit, max_len, total);
}

#[cfg(test)]
mod tests {
    use super::super::testutil::unit_machine;
    use super::*;

    #[test]
    fn exchange_swaps_buffers() {
        let mut hc = unit_machine(3);
        let locals = hc.locals_from_fn(|n| vec![n as u64; n % 3]);
        let got = exchange(&mut hc, &locals, 1);
        for node in 0..8 {
            assert_eq!(got[node], locals[node ^ 2], "node {node}");
        }
        assert_eq!(hc.counters().message_steps, 1);
    }

    #[test]
    fn exchange_cost_is_one_superstep_of_the_longest_buffer() {
        let mut hc = unit_machine(2);
        let locals = hc.locals_from_fn(|n| vec![0u8; if n == 0 { 7 } else { 2 }]);
        let _ = exchange(&mut hc, &locals, 0);
        assert_eq!(hc.elapsed_us(), 1.0 + 7.0, "alpha + beta * max_len");
    }

    #[test]
    fn double_exchange_restores() {
        let mut hc = unit_machine(4);
        let locals = hc.locals_from_fn(|n| vec![n]);
        let once = exchange(&mut hc, &locals, 3);
        let twice = exchange(&mut hc, &once, 3);
        assert_eq!(twice, locals);
    }

    #[test]
    fn in_place_exchange_matches_copying_exchange() {
        let mut hc1 = unit_machine(3);
        let locals = hc1.locals_from_fn(|n| vec![n as u32; (n % 4) + 1]);
        let copied = exchange(&mut hc1, &locals, 2);
        let mut hc2 = unit_machine(3);
        let mut moved = locals.clone();
        exchange_in_place(&mut hc2, &mut moved, 2);
        assert_eq!(moved, copied);
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
    }

    #[test]
    fn slab_exchange_matches_for_equal_and_ragged_lengths() {
        for ragged in [false, true] {
            let mut hc1 = unit_machine(3);
            let locals = hc1.locals_from_fn(|n| vec![n as u16; if ragged { n % 3 } else { 2 }]);
            let copied = exchange(&mut hc1, &locals, 0);
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
        let locals: Vec<Vec<u8>> = hc.empty_locals();
        let _ = exchange(&mut hc, &locals, 2);
    }
}
