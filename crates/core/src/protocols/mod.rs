//! Register protocol implementations.
//!
//! | Module | Paper artifact | Read cost | Resilience | Read decision rule |
//! |--------|----------------|-----------|------------|--------------------|
//! | [`fast_crash`] | Fig. 2 | 1 round (2 delays) | `S > (R+2)t`, crash | `maxTS` if line 19's predicate holds over `seen`, else `maxTS − 1` |
//! | [`fast_byz`] | Fig. 5 | 1 round (2 delays) | `S > (R+2)t + (R+1)b` | the same over `receivevalid` acks |
//! | [`abd`] | §1 baseline | 2 rounds (4 delays) | `t < S/2`, crash | max-ts, then write it back |
//! | [`maxmin`] | §1 decentralized sketch | 3 delays, servers wait | `t < S/2`, crash | min-ts of the servers' maxima |
//! | [`fast_regular`] | §8 (regular, not atomic) | 1 round (2 delays) | `t < S/2`, crash | max-ts |
//! | [`mwmr::abd`] | §7 baseline (MWMR) | 2 rounds | `t < S/2`, crash | max-ts, then write it back |
//! | [`mwmr::naive_fast`] | §7 counterexample target | 1 round, **unsound** | — | max-ts |
//! | [`swsr_fast`] | §1 single-reader trick | 1 round (sticky reads) | `t < S/2`, crash, `R = 1` | max-ts, never older than the last return |
//! | [`ablation`] | §4's argument, executed | 1 round, **unsound** | — | `maxTS` if ≥ `k` acks carry it |
//!
//! A protocol file states three things: its message alphabet, its server
//! transition, and one [`round::Rule`] per operation — the request, the
//! replies that count, the decision over `S − t` of them. How a round is
//! run (§3.2: send to all, collect `S − t` replies, return) exists once,
//! in [`round`]: every client is a [`round::Client`] over its rule, and
//! the rule's [`ROUNDS`](round::Rule::ROUNDS) is the paper's unit of cost
//! — 1 is fast by construction, 2 for the two-phase operations
//! ([`abd::Reader`], both roles of [`mwmr::abd::Client`]).
//!
//! Every protocol is also a runtime value: [`registry::ProtocolId`] names
//! it (ids ⇄ names ⇄ feasibility predicates), and the protocol table in
//! [`crate::harness`] maps each id to its automata.

pub mod abd;
pub mod ablation;
pub mod fast_byz;
pub mod fast_crash;
pub mod fast_regular;
pub mod maxmin;
pub mod mwmr;
pub mod registry;
pub mod round;
pub mod swsr_fast;

pub use registry::{Contract, ProtocolId, UnknownProtocol};
