//! Register protocol implementations.
//!
//! | Module | Paper artifact | Read cost | Resilience |
//! |--------|----------------|-----------|------------|
//! | [`fast_crash`] | Fig. 2 | 1 round (2 delays) | `S > (R+2)t`, crash |
//! | [`fast_byz`] | Fig. 5 | 1 round (2 delays) | `S > (R+2)t + (R+1)b` |
//! | [`abd`] | §1 baseline | 2 rounds (4 delays) | `t < S/2`, crash |
//! | [`maxmin`] | §1 decentralized sketch | 3 delays, servers wait | `t < S/2`, crash |
//! | [`fast_regular`] | §8 (regular, not atomic) | 1 round (2 delays) | `t < S/2`, crash |
//! | [`mwmr::abd`] | §7 baseline (MWMR) | 2 rounds | `t < S/2`, crash |
//! | [`mwmr::naive_fast`] | §7 counterexample target | 1 round, **unsound** | — |
//! | [`swsr_fast`] | §1 single-reader trick | 1 round (sticky reads) | `t < S/2`, crash, `R = 1` |

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
pub mod swsr_fast;

pub use registry::{Contract, ProtocolId, UnknownProtocol};
