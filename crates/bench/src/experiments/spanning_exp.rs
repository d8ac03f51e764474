//! F4 — spanning-tree schedule ablation for broadcast and all-reduce.

use vmp_hypercube::collective::{allreduce_slab, broadcast_slab};
use vmp_hypercube::cost::CostModel;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_hypercube::spanning::{allreduce_rabenseifner, broadcast_scatter_allgather};

use crate::common::cm2;
use crate::table::{fmt_us, Table};

/// Simulated broadcast time of `len` elements from node 0 on a
/// `dim`-cube under each schedule: `(binomial, scatter_allgather,
/// all-port)`. The all-port column is the collective engine's broadcast
/// on the all-port CM-2 model (ESBT schedule, pipelined under `Auto`).
#[must_use]
pub fn broadcast_times(len: usize, dim: u32) -> (f64, f64, f64) {
    let dims: Vec<u32> = (0..dim).collect();
    let run = |mut hc: Hypercube, balanced: bool| {
        let mut lens = vec![0; hc.p()];
        lens[0] = len;
        let mut slab = NodeSlab::filled(&lens, 1.0f64);
        if balanced {
            broadcast_scatter_allgather(&mut hc, &mut slab, &dims, 0);
        } else {
            broadcast_slab(&mut hc, &mut slab, &dims, 0);
        }
        hc.elapsed_us()
    };
    (
        run(cm2(dim), false),
        run(cm2(dim), true),
        run(Hypercube::new(dim, CostModel::cm2_allport()), false),
    )
}

/// Simulated all-reduce time: `(butterfly, rabenseifner)`.
#[must_use]
pub fn allreduce_times(len: usize, dim: u32) -> (f64, f64) {
    let dims: Vec<u32> = (0..dim).collect();
    let run = |rabenseifner: bool| {
        let mut hc = cm2(dim);
        let mut slab = NodeSlab::from_nested(&hc.locals_from_fn(|n| vec![n as f64; len]));
        if rabenseifner {
            allreduce_rabenseifner(&mut hc, &mut slab, &dims, |x, y| x + y);
        } else {
            allreduce_slab(&mut hc, &mut slab, &dims, |x, y| x + y);
        }
        hc.elapsed_us()
    };
    (run(false), run(true))
}

/// F4: broadcast/all-reduce schedules vs message size on `p = 1024`.
#[must_use]
pub fn f4() -> Table {
    let dim = 10u32;
    let mut t = Table::new(
        "F4",
        "collective schedule ablation vs message length (p = 1024)",
        "design ablation: the balanced/edge-disjoint spanning trees of Johnsson & Ho vs the binomial tree",
        &["L", "bcast binomial", "bcast scat+ag", "bcast all-port", "allred butterfly", "allred rabenseifner"],
    );
    for len in [8usize, 64, 512, 4096, 32768] {
        let (b, s, a) = broadcast_times(len, dim);
        let (bf, rb) = allreduce_times(len, dim);
        t.row(vec![len.to_string(), fmt_us(b), fmt_us(s), fmt_us(a), fmt_us(bf), fmt_us(rb)]);
    }
    t.note("crossover: binomial wins small L (fewer start-ups), balanced schedules win large L (factor ~d/2 bandwidth)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_exists() {
        let (b_small, s_small, _) = broadcast_times(4, 8);
        assert!(b_small < s_small, "small messages: binomial wins");
        let (b_big, s_big, a_big) = broadcast_times(16384, 8);
        assert!(s_big < b_big, "large messages: scatter+allgather wins");
        assert!(a_big < s_big, "all-port pipelining wins biggest");
    }

    #[test]
    fn allport_column_is_the_engine_schedule() {
        // The all-port column is priced by the same `allport_schedule`
        // that the ALLPORT experiment and `vmp::analysis` use.
        use vmp_hypercube::cost::{AlgoSelect, Collective};
        let model = CostModel::cm2_allport();
        for len in [8usize, 4096, 32768] {
            let algo = AlgoSelect::default().choose(&model, Collective::Broadcast, 10, len, false);
            let want = model.collective_time(Collective::Broadcast, 10, len, algo);
            let (_, _, allport) = broadcast_times(len, 10);
            assert!((allport - want).abs() <= 1e-9 * want, "L = {len}: {allport} vs {want}");
        }
    }

    #[test]
    fn rabenseifner_wins_large_allreduce() {
        let (bf, rb) = allreduce_times(16384, 8);
        assert!(rb < bf, "butterfly {bf} vs rabenseifner {rb}");
        let (bf_s, rb_s) = allreduce_times(2, 8);
        assert!(bf_s < rb_s, "small messages favour the butterfly");
    }
}
