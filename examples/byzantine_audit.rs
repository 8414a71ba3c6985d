//! Domain scenario: a signed audit-log head under Byzantine storage.
//!
//! A compliance service (the writer) maintains the digest of the latest
//! audit batch in a replicated register; auditors (readers) fetch it.
//! One storage replica is compromised and actively lies — replaying stale
//! heads, inflating its `seen` evidence, even attempting to forge newer
//! digests. The Fig. 5 protocol (§6) keeps every auditor read correct in
//! a single round trip, because the writer signs each (timestamp, value)
//! record and the predicate discounts unauthenticated evidence.
//!
//! Run with: `cargo run --example byzantine_audit`

use fastreg_suite::fastreg::byz::{Forger, SeenInflater, StaleReplayer};
use fastreg_suite::fastreg::harness::ByzCtx;
use fastreg_suite::fastreg_simnet::automaton::Automaton;
use fastreg_suite::fastreg_simnet::id::ProcessId;
use fastreg_suite::prelude::*;

type ByzMsg = fastreg_suite::fastreg::protocols::fast_byz::Msg;
type MakeServer = fn(
    &ClusterConfig,
    fastreg_suite::fastreg::layout::Layout,
    &mut ByzCtx,
) -> Box<dyn Automaton<Msg = ByzMsg>>;

fn main() {
    // 6 replicas, at most 1 faulty and it may be malicious, 1 auditor
    // client pool: 6 > (1+2)·1 + (1+1)·1 = 5 → fast is possible.
    let cfg = ClusterConfig::byzantine(6, 1, 1, 1).expect("valid");
    assert!(cfg.fast_feasible());
    println!(
        "S = {}, t = {}, b = {}, R = {} → fast Byzantine register feasible",
        cfg.s, cfg.t, cfg.b, cfg.r
    );

    let attacks: Vec<(&str, MakeServer)> = vec![
        ("stale replayer", |c, _l, _ctx| {
            Box::new(StaleReplayer::new(c))
        }),
        ("seen inflater", |c, l, ctx| {
            Box::new(SeenInflater::new(
                c,
                l,
                ctx.verifier.clone(),
                ctx.writer_key,
            ))
        }),
        ("signature forger", |_c, _l, _ctx| Box::new(Forger::new())),
    ];

    for (name, make) in attacks {
        println!("\n== replica s1 compromised: {name} ==");
        // The typed builder keeps static dispatch: planting a malicious
        // server and inspecting the reader both need the concrete types.
        let mut cluster: Cluster<FastByz> = ClusterBuilder::new(cfg)
            .sim(SimConfig::default().with_seed(7))
            .build_typed_with(|c, l, index, ctx| {
                if index == 0 {
                    make(c, l, ctx)
                } else {
                    FastByz::server(c, l, index, ctx)
                }
            })
            .expect("the default runtime is simnet");

        // Publish three audit heads; the auditor fetches after each.
        for batch in 1..=3u64 {
            let digest = 0xABC0 + batch;
            cluster.write_sync(digest);
            let fetched = cluster.read(0);
            println!("  published batch head {digest:#x}; auditor fetched {fetched}");
            assert_eq!(
                fetched,
                RegValue::Val(digest),
                "auditor must see the newest head"
            );
        }
        cluster.check_atomic().expect("audit trail stays atomic");

        // How much malicious traffic did the auditor have to discard?
        let reader_addr = cluster.layout.reader(0);
        let discarded = cluster
            .world
            .with_actor::<fastreg_suite::fastreg::protocols::fast_byz::Reader, _, _>(
                reader_addr,
                |r| r.discarded_acks,
            )
            .expect("reader exists");
        println!("  auditor discarded {discarded} provably-malicious acks; history atomic ✓");
    }

    // The same system with one *more* reader pool would cross the bound:
    let crowded = ClusterConfig::byzantine(6, 1, 1, 2).expect("valid");
    println!(
        "\nwith R = 2 the bound fails (6 ≤ (2+2)·1 + (2+1)·1 = 7): fast_feasible = {}",
        crowded.fast_feasible()
    );
    let _ = ProcessId::EXTERNAL; // (re-exported API surface demo)
}
