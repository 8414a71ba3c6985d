//! Protocol identities: every register protocol in the repository as a
//! first-class value.
//!
//! A [`ProtocolId`] names a protocol and carries what is known about it
//! without building it — name, summary, [`Contract`], feasibility
//! predicate, sample configuration. Its automata are named once, in the
//! protocol table in [`crate::harness`], which also generates
//! [`ProtocolId::ALL`]; [`ClusterBuilder`](crate::harness::ClusterBuilder)
//! turns an id into a running [`DynCluster`](crate::harness::DynCluster).
//!
//! Enumerating all protocols as data:
//!
//! ```
//! use fastreg::harness::{ClusterBuilder, RegisterOps};
//! use fastreg::protocols::registry::ProtocolId;
//! use fastreg::types::RegValue;
//!
//! for id in ProtocolId::ALL {
//!     let mut cluster = ClusterBuilder::new(id.sample_config()).seed(7).build(id)?;
//!     cluster.write_sync(9);
//!     assert_eq!(cluster.read(0), RegValue::Val(9), "{id}");
//! }
//! # Ok::<(), fastreg::harness::BuildError>(())
//! ```
//!
//! Parsing a protocol from a CLI flag:
//!
//! ```
//! use fastreg::protocols::registry::ProtocolId;
//!
//! let id: ProtocolId = "fast-byz".parse()?;
//! assert_eq!(id, ProtocolId::FastByz);
//! assert!("no-such-protocol".parse::<ProtocolId>().is_err());
//! # Ok::<(), fastreg::protocols::registry::UnknownProtocol>(())
//! ```

use std::fmt;
use std::str::FromStr;

use fastreg_atomicity::streaming::Spec;

use crate::config::ClusterConfig;
use crate::types::ClientSet;

/// Runtime name of one register protocol implementation.
///
/// The variants correspond one-to-one to the zero-sized
/// [`ProtocolFamily`](crate::harness::ProtocolFamily) markers (the
/// protocol table in [`crate::harness`] has one row per variant, enforced
/// by the compiler); `ProtocolId` is the value-level mirror that can be
/// stored in tables, parsed from CLI flags, and swept by loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolId {
    /// Fig. 2 — fast crash-stop atomic register.
    FastCrash,
    /// Fig. 5 — fast arbitrary-failure (Byzantine) atomic register.
    FastByz,
    /// The ABD baseline (two-round reads, majority resilience).
    Abd,
    /// The §1 decentralized max–min baseline (three message delays).
    MaxMin,
    /// §8 — fast *regular* register (unbounded readers, `t < S/2`).
    FastRegular,
    /// §1 — single-reader fast register at majority resilience.
    SwsrFast,
    /// §7 baseline — correct two-round MWMR register.
    MwmrAbd,
    /// §7 counterexample target — the unsound one-round MWMR candidate.
    MwmrNaiveFast,
}

/// The consistency contract a protocol upholds in its feasible regime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Contract {
    /// Atomic (linearizable): reads never travel back in time.
    Atomic,
    /// Regular only: new/old inversions between concurrent reads are
    /// possible (the §8 trade-off).
    Regular,
    /// Deliberately unsound — exists as a counterexample target (§7).
    Unsound,
}

impl Contract {
    /// The checker [`Spec`] that grades this contract on a deployment
    /// with `writers` writers — the only place a contract is matched to
    /// a checker. The §3.1 conditions presuppose a single writer, so an
    /// atomic register with several is held to linearizability (§7), as
    /// is [`Contract::Unsound`]: the contract the counterexample targets
    /// *claim* and fail.
    pub fn spec(self, writers: u32) -> Spec {
        match self {
            Contract::Atomic if writers <= 1 => Spec::SwmrAtomic,
            Contract::Atomic | Contract::Unsound => Spec::Linearizable,
            Contract::Regular => Spec::SwmrRegular,
        }
    }
}

impl fmt::Display for Contract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Contract::Atomic => "atomic",
            Contract::Regular => "regular",
            Contract::Unsound => "unsound",
        })
    }
}

/// Error for [`ProtocolId::parse`] / [`FromStr`]: the name is not
/// registered. The message lists every registered name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownProtocol {
    /// The name that failed to parse.
    pub given: String,
}

impl fmt::Display for UnknownProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown protocol '{}' (registered: {})",
            self.given,
            ProtocolId::ALL
                .iter()
                .map(|id| id.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for UnknownProtocol {}

impl ProtocolId {
    /// The stable kebab-case name (CLI flags, table columns).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolId::FastCrash => "fast-crash",
            ProtocolId::FastByz => "fast-byz",
            ProtocolId::Abd => "abd",
            ProtocolId::MaxMin => "max-min",
            ProtocolId::FastRegular => "fast-regular",
            ProtocolId::SwsrFast => "swsr-fast",
            ProtocolId::MwmrAbd => "mwmr-abd",
            ProtocolId::MwmrNaiveFast => "mwmr-naive-fast",
        }
    }

    /// One-line description of the paper artifact behind the protocol.
    pub fn summary(self) -> &'static str {
        match self {
            ProtocolId::FastCrash => "Fig. 2 fast crash-stop atomic register (1 round trip)",
            ProtocolId::FastByz => "Fig. 5 fast Byzantine atomic register (signed, 1 round trip)",
            ProtocolId::Abd => "ABD baseline: two-round reads at majority resilience",
            ProtocolId::MaxMin => "§1 decentralized max-min baseline (3 message delays)",
            ProtocolId::FastRegular => "§8 fast regular register: unbounded readers, t < S/2",
            ProtocolId::SwsrFast => "§1 single-reader fast register at t < S/2",
            ProtocolId::MwmrAbd => "§7 baseline: correct two-round MWMR register",
            ProtocolId::MwmrNaiveFast => "§7 counterexample target: unsound one-round MWMR",
        }
    }

    /// The consistency contract the protocol upholds when feasible.
    pub fn contract(self) -> Contract {
        match self {
            ProtocolId::FastRegular => Contract::Regular,
            ProtocolId::MwmrNaiveFast => Contract::Unsound,
            _ => Contract::Atomic,
        }
    }

    /// Whether the protocol's deployment hypotheses hold for `cfg`.
    ///
    /// This is the per-protocol feasibility predicate the paper states:
    /// the fast protocols need their reader bounds, the majority
    /// baselines need `t < S/2`, the SWMR protocols need `W = 1`, and the
    /// crash-stop protocols need `b = 0`.
    pub fn feasible(self, cfg: &ClusterConfig) -> bool {
        let majority = 2 * cfg.t < cfg.s;
        match self {
            ProtocolId::FastCrash => cfg.w == 1 && cfg.b == 0 && cfg.fast_feasible(),
            ProtocolId::FastByz => cfg.w == 1 && cfg.fast_feasible(),
            ProtocolId::Abd | ProtocolId::MaxMin => cfg.w == 1 && cfg.b == 0 && majority,
            ProtocolId::FastRegular => cfg.b == 0 && cfg.fast_regular_feasible(),
            ProtocolId::SwsrFast => cfg.w == 1 && cfg.b == 0 && cfg.r == 1 && majority,
            ProtocolId::MwmrAbd | ProtocolId::MwmrNaiveFast => cfg.b == 0 && majority,
        }
    }

    /// Human-readable statement of the feasibility requirement (used in
    /// [`BuildError`](crate::harness::BuildError) messages and `--list`).
    pub fn requirement(self) -> &'static str {
        match self {
            ProtocolId::FastCrash => "W = 1, b = 0 and S > (R+2)t",
            ProtocolId::FastByz => "W = 1 and S > (R+2)t + (R+1)b",
            ProtocolId::Abd | ProtocolId::MaxMin => "W = 1, b = 0 and t < S/2",
            ProtocolId::FastRegular => "W = 1, b = 0 and t < S/2",
            ProtocolId::SwsrFast => "W = 1, R = 1, b = 0 and t < S/2",
            ProtocolId::MwmrAbd | ProtocolId::MwmrNaiveFast => "b = 0 and t < S/2",
        }
    }

    /// The most clients (`R + 1`) a deployment of this protocol can have,
    /// `None` if any number: the protocols whose servers report a `seen`
    /// set keep it in a [`ClientSet`]. This is a limit of the
    /// representation, not one of the paper's hypotheses, so it is not
    /// part of [`feasible`](Self::feasible).
    pub fn max_clients(self) -> Option<u32> {
        matches!(self, ProtocolId::FastCrash | ProtocolId::FastByz).then_some(ClientSet::CAPACITY)
    }

    /// Whether `cfg`'s `R + 1` clients are within
    /// [`max_clients`](Self::max_clients).
    pub fn population_fits(self, cfg: &ClusterConfig) -> bool {
        self.max_clients().is_none_or(|limit| cfg.r < limit)
    }

    /// A canonical feasible configuration for this protocol — the one the
    /// docs, conformance tests and benchmarks use.
    pub fn sample_config(self) -> ClusterConfig {
        let cfg = match self {
            ProtocolId::FastCrash => ClusterConfig::crash_stop(5, 1, 2),
            ProtocolId::FastByz => ClusterConfig::byzantine(6, 1, 1, 1),
            ProtocolId::Abd | ProtocolId::MaxMin => ClusterConfig::crash_stop(5, 2, 2),
            ProtocolId::FastRegular => ClusterConfig::crash_stop(5, 2, 4),
            ProtocolId::SwsrFast => ClusterConfig::crash_stop(5, 2, 1),
            ProtocolId::MwmrAbd | ProtocolId::MwmrNaiveFast => ClusterConfig::mwmr(3, 1, 2, 2),
        };
        cfg.expect("sample configurations are statically valid")
    }

    /// Parses a registered protocol name.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownProtocol`] (whose message lists the registered
    /// names) if `s` is not one of them.
    pub fn parse(s: &str) -> Result<Self, UnknownProtocol> {
        ProtocolId::ALL
            .into_iter()
            .find(|id| id.name() == s)
            .ok_or_else(|| UnknownProtocol { given: s.into() })
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ProtocolId {
    type Err = UnknownProtocol;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ProtocolId::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ClusterBuilder, RegisterOps, Runtime};

    #[test]
    fn registry_order_matches_discriminants() {
        for (i, id) in ProtocolId::ALL.into_iter().enumerate() {
            assert_eq!(id as usize, i);
        }
    }

    #[test]
    fn names_round_trip() {
        for id in ProtocolId::ALL {
            assert_eq!(ProtocolId::parse(id.name()), Ok(id));
            assert_eq!(id.name().parse::<ProtocolId>(), Ok(id));
            assert_eq!(format!("{id}"), id.name());
        }
    }

    #[test]
    fn unknown_name_lists_the_registered_ones() {
        let err = ProtocolId::parse("fast-quantum").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("fast-quantum"));
        for id in ProtocolId::ALL {
            assert!(msg.contains(id.name()), "message must list {}", id.name());
        }
    }

    #[test]
    fn sample_configs_are_feasible() {
        for id in ProtocolId::ALL {
            assert!(id.feasible(&id.sample_config()), "{}", id.name());
        }
    }

    #[test]
    fn feasibility_tracks_the_paper_bounds() {
        let at_bound = ClusterConfig::crash_stop(5, 1, 3).unwrap();
        assert!(!ProtocolId::FastCrash.feasible(&at_bound));
        assert!(ProtocolId::Abd.feasible(&at_bound));
        assert!(ProtocolId::FastRegular.feasible(&at_bound));

        let byz = ClusterConfig::byzantine(6, 1, 1, 1).unwrap();
        assert!(ProtocolId::FastByz.feasible(&byz));
        assert!(
            !ProtocolId::FastCrash.feasible(&byz),
            "b > 0 is not crash-stop"
        );
        assert!(!ProtocolId::Abd.feasible(&byz));

        let mwmr = ClusterConfig::mwmr(3, 1, 2, 2).unwrap();
        assert!(ProtocolId::MwmrAbd.feasible(&mwmr));
        assert!(!ProtocolId::FastCrash.feasible(&mwmr), "W > 1 is not SWMR");

        let two_readers = ClusterConfig::crash_stop(5, 2, 2).unwrap();
        assert!(!ProtocolId::SwsrFast.feasible(&two_readers), "R must be 1");
    }

    #[test]
    fn contracts_are_assigned() {
        assert_eq!(ProtocolId::FastCrash.contract(), Contract::Atomic);
        assert_eq!(ProtocolId::FastRegular.contract(), Contract::Regular);
        assert_eq!(ProtocolId::MwmrNaiveFast.contract(), Contract::Unsound);
        assert_eq!(format!("{}", Contract::Regular), "regular");
    }

    #[test]
    fn every_protocol_is_graded_by_the_spec_it_promises() {
        for id in ProtocolId::ALL {
            let expected = match id {
                ProtocolId::FastRegular => Spec::SwmrRegular,
                ProtocolId::MwmrAbd | ProtocolId::MwmrNaiveFast => Spec::Linearizable,
                ProtocolId::FastCrash
                | ProtocolId::FastByz
                | ProtocolId::Abd
                | ProtocolId::MaxMin
                | ProtocolId::SwsrFast => Spec::SwmrAtomic,
            };
            let cfg = id.sample_config();
            assert_eq!(id.contract().spec(cfg.w), expected, "{id}");
            // ...and a built deployment knows what it promised.
            let threads = Runtime::Threads { workers: 1 };
            for runtime in [Runtime::Simnet, threads] {
                let built = ClusterBuilder::new(cfg).runtime(runtime).build(id);
                let cluster = built.expect("sample configurations are feasible");
                assert_eq!(cluster.contract(), id.contract(), "{id} on {runtime}");
                if let Some(typed) = cluster.sim_control_ref() {
                    assert_eq!(typed.contract(), id.contract(), "Cluster<{id}>");
                }
            }
        }
    }
}
