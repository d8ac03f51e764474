//! The per-layer metrics of the traced run. Every workload prints the
//! same list; a layer the workload does not run reads 0.

use vmp_hypercube::Counters;

use crate::report::Report;

#[derive(Default)]
pub struct Layers {
    // algos
    pub ge_step_us_p50: f64,
    pub ge_back_sub_share: f64,
    pub job_host_us: [f64; 3],
    // vmp
    pub prim_self_share: [f64; 5],
    pub rank1_ns_per_elem: f64,
    pub rank1_bytes_per_s: f64,
    pub primitive_ns_per_step: f64,
    // hypercube, counts per operation
    pub message_steps: f64,
    pub allport_steps: f64,
    pub elements_transferred: f64,
    pub flops: f64,
    pub local_moves: f64,
    pub collective_ns_per_step: f64,
    pub charge_ns_per_step: f64,
    pub charge_ns_per_step_faulted: f64,
    pub transient_drops: f64,
    pub retries: f64,
    pub reroutes: f64,
    // layout
    pub build_ms: f64,
    // sched
    pub sched_self_ms: f64,
    pub alloc_ns_per_op: f64,
    pub predict_ns_per_call: f64,
    pub predict_err_p90: [f64; 3],
    pub attempts_per_job: f64,
    pub utilization: f64,
    pub degraded_runs: f64,
    pub wait_p99_ms: f64,
    // the trace itself
    pub trace_overhead_ms: f64,
    pub guard_steps: f64,
}

/// Job kinds in report order.
const KINDS: [&str; 3] = ["matvec", "gauss", "simplex"];

impl Layers {
    /// Set the hypercube counts to the totals of `runs` divided by `ops`.
    pub fn set_counts<'a>(&mut self, runs: impl Iterator<Item = &'a Counters>, ops: f64) {
        let mut t = Counters::default();
        for c in runs {
            t.message_steps += c.message_steps;
            t.allport_steps += c.allport_steps;
            t.elements_transferred += c.elements_transferred;
            t.flops += c.flops;
            t.local_moves += c.local_moves;
            t.transient_drops += c.transient_drops;
            t.retries += c.retries;
            t.reroutes += c.reroutes;
        }
        let per = |v: u64| v as f64 / ops.max(1.0);
        self.message_steps = per(t.message_steps);
        self.allport_steps = per(t.allport_steps);
        self.elements_transferred = per(t.elements_transferred);
        self.flops = per(t.flops);
        self.local_moves = per(t.local_moves);
        self.transient_drops = per(t.transient_drops);
        self.retries = per(t.retries);
        self.reroutes = per(t.reroutes);
    }

    pub fn emit(&self, rep: &mut Report) {
        rep.metric("algos.ge.step_us_p50", self.ge_step_us_p50, "us");
        rep.metric("algos.ge.back_sub_share", self.ge_back_sub_share, "share");
        for (kind, v) in KINDS.iter().zip(self.job_host_us) {
            rep.metric(&format!("algos.job.{kind}.host_us"), v, "us");
        }
        for (name, v) in crate::ge::PRIMS.iter().zip(self.prim_self_share) {
            rep.metric(&format!("{name}.self_share"), v, "share");
        }
        rep.metric("vmp.rank1_update.ns_per_elem", self.rank1_ns_per_elem, "ns");
        rep.metric("vmp.rank1_update.computed_bytes_per_s", self.rank1_bytes_per_s, "B/s");
        rep.metric("vmp.primitive.host_ns_per_step", self.primitive_ns_per_step, "ns");
        rep.metric("hypercube.message_steps", self.message_steps, "count");
        rep.metric("hypercube.allport_steps", self.allport_steps, "count");
        rep.metric("hypercube.elements_transferred", self.elements_transferred, "count");
        rep.metric("hypercube.flops", self.flops, "count");
        rep.metric("hypercube.local_moves", self.local_moves, "count");
        let share = crate::ge::ratio(self.allport_steps, self.message_steps);
        rep.metric("hypercube.allport_share", share, "share");
        rep.metric("hypercube.collective.host_ns_per_step", self.collective_ns_per_step, "ns");
        rep.metric("hypercube.machine.charge_ns_per_step", self.charge_ns_per_step, "ns");
        rep.metric(
            "hypercube.machine.charge_ns_per_step_faulted",
            self.charge_ns_per_step_faulted,
            "ns",
        );
        rep.metric("hypercube.fault.transient_drops", self.transient_drops, "count");
        rep.metric("hypercube.fault.retries", self.retries, "count");
        rep.metric("hypercube.fault.reroutes", self.reroutes, "count");
        let waste = crate::ge::ratio(self.retries, self.message_steps);
        rep.metric("hypercube.fault.retries_per_step", waste, "share");
        rep.metric("layout.build_ms", self.build_ms, "ms");
        rep.metric("sched.self_ms", self.sched_self_ms, "ms");
        rep.metric("sched.alloc.ns_per_op", self.alloc_ns_per_op, "ns");
        rep.metric("sched.predict.ns_per_call", self.predict_ns_per_call, "ns");
        for (kind, v) in KINDS.iter().zip(self.predict_err_p90) {
            rep.metric(&format!("sched.predict.{kind}.err_p90"), v, "share");
        }
        rep.metric("sched.attempts_per_job", self.attempts_per_job, "count");
        rep.metric("sched.utilization", self.utilization, "share");
        rep.metric("sched.degraded_runs", self.degraded_runs, "count");
        rep.metric("sched.wait_p99_ms", self.wait_p99_ms, "ms");
        rep.metric("trace.overhead_ms", self.trace_overhead_ms, "ms");
        rep.metric("trace.guard_steps", self.guard_steps, "count");
    }
}
