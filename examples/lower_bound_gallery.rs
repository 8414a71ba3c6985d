//! The proof gallery: watch the paper's lower-bound constructions run.
//!
//! Executes the three impossibility arguments against the real protocol
//! implementations and prints what happened:
//!
//! * §5  (Figs. 1, 3, 4): crash-stop bound `R < S/t − 2`;
//! * §6.2 (Fig. 6): Byzantine bound `S > (R+2)t + (R+1)b`;
//! * §7  (Fig. 7): no fast multi-writer register at all.
//!
//! Run with: `cargo run --example lower_bound_gallery`

use fastreg_suite::fastreg_adversary::chain::run_lower_bound_without_write;
use fastreg_suite::fastreg_adversary::{run_lower_bound, run_mwmr_lb};
use fastreg_suite::prelude::*;

fn main() {
    crash_gallery();
    byz_gallery();
    mwmr_gallery();
}

fn crash_gallery() {
    println!("================================================================");
    println!("§5 — crash-stop lower bound, canonical instance S=5, t=1, R=3");
    println!("================================================================");
    let cfg = ClusterConfig::crash_stop(5, 1, 3).expect("valid");
    println!("R = 3 ≥ S/t − 2 = 3 → no fast implementation can exist.\n");

    let out = run_lower_bound(cfg, 0).expect("construction applies");
    println!("block partition B1..B5: {:?}", out.partition.t_blocks);
    println!("violating run: {}", out.violating_run);
    println!("r_R's read returned      : {}", out.r_last_return);
    println!("r_1's first read returned: {}", out.r1_first_return);
    println!("r_1's second read        : {}", out.r1_second_return);
    println!("checker verdict          : {}\n", out.violation);
    println!("history of the violating run:\n{}", out.history.render());

    // The indistinguishability at the heart of the proof: r1's view is
    // identical in prB/prD, where the write never happened.
    let (first, second) = run_lower_bound_without_write(cfg, 0).expect("construction applies");
    println!("prD (no write at all): r1 returned {first} then {second} — identical views,");
    println!("so no algorithm can have r1 answer differently. QED, executably.\n");
}

fn byz_gallery() {
    println!("================================================================");
    println!("§6.2 — Byzantine lower bound, canonical instance S=7, t=b=1, R=2");
    println!("================================================================");
    let cfg = ClusterConfig::byzantine(7, 1, 1, 2).expect("valid");
    println!("S = 7 ≤ (R+2)t + (R+1)b = 7 → no fast implementation.\n");

    let out = run_lower_bound(cfg, 0).expect("construction applies");
    println!("T-blocks: {:?}", out.partition.t_blocks);
    println!(
        "B-blocks: {:?}  (B3 is two-faced: loses its memory towards r1)",
        out.partition.b_blocks
    );
    println!("violating run: {}", out.violating_run);
    println!("r_R's read returned      : {}", out.r_last_return);
    println!("r_1's second read        : {}", out.r1_second_return);
    println!("checker verdict          : {}\n", out.violation);
    println!("note: the writer SIGNS every timestamp — and it does not help.");
    println!("A malicious server never forges; it merely *hides* evidence.\n");
}

fn mwmr_gallery() {
    println!("================================================================");
    println!("§7 — no fast multi-writer register (W = R = 2, t = 1, S = 4)");
    println!("================================================================");
    let out = run_mwmr_lb(4, 0).expect("construction applies");
    println!("naive one-round MWMR protocol, sequential run¹ (w2 writes 2, then w1 writes 1):");
    println!(
        "  read returned {} but the last write was {} → P1 violated",
        out.sequential_return, out.expected_return
    );
    println!("  linearizable? {}", out.linearizable);
    println!(
        "  two-round MWMR-ABD control on the same pattern: read returned {}",
        out.abd_sequential_return
    );
    println!(
        "  interpolation chain run¹..run^(S+1) returns: {:?}",
        out.chain_returns
    );
    println!("  (a one-round write cannot make the chain switch — which is exactly");
    println!("   how the proof corners every fast MWMR candidate)\n");
    println!("violating history:\n{}", out.history.render());

    let verdict = check_linearizable(&out.history).expect("small history");
    assert!(!verdict);
    println!("independent Wing–Gong oracle agrees: not linearizable.");
}
