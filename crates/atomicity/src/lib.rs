//! # fastreg-atomicity
//!
//! Operation histories and mechanical consistency checkers for read/write
//! registers, built for the reproduction of *How Fast can a Distributed
//! Atomic Read be?* (PODC 2004).
//!
//! The paper defines atomicity for single-writer registers as four
//! conditions over a run's history (§3.1). This crate makes that definition
//! executable:
//!
//! * [`history`] — recording invocations and responses as clients execute.
//! * [`swmr`] — the paper's four-condition SWMR atomicity checker.
//! * [`linearizability`] — a general Wing–Gong linearizability checker for
//!   register histories (used for MWMR histories and as an independent
//!   cross-check of the SWMR checker).
//! * [`regularity`] — Lamport's regular-register condition (§8 contrasts
//!   fast regular registers with fast atomic ones).
//! * [`verdict`] — checker outcomes as stable serializable codes, the
//!   form schedule-exploration counterexample files store and compare.
//! * [`streaming`] — the one online verdict path: an
//!   [`OnlineChecker`] built from a [`Spec`] grades an event stream in
//!   bounded memory and emits the same verdict codes.
//!
//! The three batch checkers are the oracle — the only source of typed
//! witnesses, and the reference the online path is pinned equal to; every
//! production verdict comes from [`OnlineChecker`].
//!
//! ## Example
//!
//! ```
//! use fastreg_atomicity::history::{History, RegValue};
//! use fastreg_atomicity::swmr::check_swmr_atomicity;
//!
//! let mut h = History::new();
//! // Writer writes 10, then a later read sees it: atomic.
//! let w = h.invoke_write(0, 10, 1);
//! h.respond(w, None, 5);
//! let r = h.invoke_read(1, 6);
//! h.respond(r, Some(RegValue::Val(10)), 9);
//! assert!(check_swmr_atomicity(&h).is_ok());
//!
//! // A later read regressing to ⊥ violates condition (4).
//! let r2 = h.invoke_read(2, 10);
//! h.respond(r2, Some(RegValue::Bottom), 12);
//! assert!(check_swmr_atomicity(&h).is_err());
//! ```

#![warn(missing_docs)]

pub mod history;
pub mod linearizability;
pub mod regularity;
pub mod streaming;
pub mod swmr;
pub mod verdict;

pub use history::{History, HistoryEvent, OpId, OpKind, Operation, RegValue, SharedHistory};
pub use linearizability::{check_linearizable, LinCheckError};
pub use regularity::check_swmr_regularity;
pub use streaming::{replay_events, OnlineChecker, Spec, StreamingChecker, StreamingLinChecker};
pub use swmr::{check_swmr_atomicity, AtomicityViolation};
pub use verdict::{UnknownVerdict, Verdict, ViolationKind};

#[cfg(test)]
mod tests {
    /// The checkers grade the simulator's runs, so they must not depend
    /// on it, nor on any other workspace crate that could. The crate's
    /// only dependency is external, so checking the direct ones covers
    /// the transitive ones too.
    #[test]
    fn the_checker_depends_on_no_workspace_crate() {
        let manifest = include_str!("../Cargo.toml");
        let mut section = "";
        let mut workspace_deps = Vec::new();
        for line in manifest.lines().map(str::trim) {
            if let Some(header) = line.strip_prefix('[') {
                section = header.trim_end_matches(']');
                // `[dependencies.name]` tables name the dependency.
                if let Some(name) = section.strip_prefix("dependencies.") {
                    workspace_deps.push(name);
                }
            } else if section == "dependencies" || section.ends_with(".dependencies") {
                workspace_deps.extend(line.split(['=', '.']).next().map(str::trim));
            }
        }
        workspace_deps.retain(|name| name.starts_with("fastreg"));
        assert_eq!(workspace_deps, Vec::<&str>::new(), "[dependencies]");
    }
}
