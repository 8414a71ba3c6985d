//! The protocol race: every registered protocol on one workload.
//!
//! Sweeps the runtime protocol registry — no per-protocol code blocks:
//! each entry is built at its canonical feasible configuration through
//! [`ClusterBuilder`], driven through the identical closed-loop workload
//! (300 ops, 20% writes) over the same simulated network via
//! `dyn RegisterOps`, and verified against the consistency contract the
//! registry declares for it.
//!
//! Run with: `cargo run --example protocol_race`

use fastreg_suite::fastreg_atomicity::verdict::Verdict;
use fastreg_suite::fastreg_simnet::delay::DelayModel;
use fastreg_suite::fastreg_workload::{run_closed_loop, Table, WorkloadSpec};
use fastreg_suite::prelude::*;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        n_ops: 300,
        write_fraction: 0.2,
        think_time: 200,
        seed: 33,
    }
}

fn sim() -> SimConfig {
    SimConfig::default()
        .with_seed(12)
        .with_delay(DelayModel::Uniform { lo: 100, hi: 900 })
}

fn main() {
    let mut table = Table::new(vec![
        "protocol",
        "config",
        "read p50/p95 (µs)",
        "write p50/p95 (µs)",
        "msgs/op",
        "verified contract",
    ]);

    for id in ProtocolId::ALL {
        let cfg = id.sample_config();
        let mut cluster = ClusterBuilder::new(cfg)
            .sim(sim())
            .build(id)
            .expect("sample configurations are feasible");
        let report = run_closed_loop(&mut cluster, &spec()).expect("feasible deployments quiesce");

        // The driver graded the run online against the contract the
        // registry declares for the protocol; hold the sound ones to it.
        let verdict = report.streaming_verdict;
        let verified = if id.contract() == Contract::Unsound {
            "none — §7 counterexample target".to_string()
        } else {
            assert!(!matches!(verdict, Verdict::Violation(_)), "{id}: {verdict}");
            format!("{}: {}", id.contract(), verdict.code())
        };

        let reads = report.breakdown.reads.clone().expect("reads ran");
        let writes = report.breakdown.writes.clone().expect("writes ran");
        table.row(vec![
            id.name().into(),
            format!("S{} t{} b{} R{} W{}", cfg.s, cfg.t, cfg.b, cfg.r, cfg.w),
            format!("{}/{}", reads.p50, reads.p95),
            format!("{}/{}", writes.p50, writes.p95),
            format!("{:.1}", report.messages_per_op()),
            verified,
        ]);
    }

    println!("{table}");
    println!("shape to expect: fast reads ≈ half of ABD's; max–min in between;");
    println!("the regular register matches the fast read but gives up atomicity.");
}
