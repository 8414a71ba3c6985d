//! `fastreg_lint` — the workspace determinism & substrate-isolation
//! static analyzer.
//!
//! The repo's load-bearing guarantees — byte-identical traces and
//! fingerprints at any thread count, exact counterexample replay, and
//! the simnet-as-oracle vs. threads-as-speed-demon substrate split —
//! used to be enforced only by example-based tests. This crate makes
//! them *checked properties of the source*: a dependency-free,
//! workspace-aware scanner (hand-rolled tokenizer, no `syn`) walks every
//! crate and enforces seven named rules with spans; see
//! [`rules`] for the rule table and [`scanner`] for what the tokenizer
//! does and does not understand.
//!
//! A finding can be waived — visibly, with a mandatory written reason —
//! by annotating the offending line:
//!
//! ```text
//! // fastreg-lint: allow(nondet-order): pure keyed lookup, never iterated
//! ```
//!
//! The annotation covers its own line when it trails code, otherwise
//! the next code line below it (skipping `#[...]` attribute lines).
//!
//! The gate is a tier-1 test: `tests/self_scan.rs` scans the workspace
//! and fails, printing [`Report::table`], on any unannotated finding.
//! Scanning a tree:
//!
//! ```
//! use fastreg_lint::scan_workspace;
//! # let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
//! #     .join("tests/fixtures/d1/neg");
//! let report = scan_workspace(&fixture).unwrap();
//! assert_eq!(report.unannotated().count(), 0);
//! ```

#![warn(missing_docs)]

pub mod rules;
pub mod scanner;
pub mod walk;

use std::io;
use std::path::Path;

pub use rules::{Finding, Rule};

/// The outcome of a scan: every finding (allowed ones included), plus
/// enough metadata for the self-scan to assert the scan actually
/// covered the tree.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `ProtocolId` variants the cross-file registry rule
    /// (D5) parsed; 0 when the tree has no registry file.
    pub registry_variants: usize,
}

impl Report {
    /// The findings that gate (no allow annotation).
    pub fn unannotated(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.is_allowed())
    }

    /// The findings waived by an annotation.
    pub fn allowed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_allowed())
    }

    /// Renders the gating findings, one row each, plus a summary line
    /// that also counts the allowed ones: a failing gate names its
    /// faults without listing every waiver around them.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let loc_width = self
            .unannotated()
            .map(|f| f.file.chars().count() + 1 + f.line.to_string().len())
            .max()
            .unwrap_or(0);
        let rule_width = Rule::ALL
            .iter()
            .map(|r| r.to_string().len())
            .max()
            .unwrap_or(0);
        for f in self.unannotated() {
            let loc = format!("{}:{}", f.file, f.line);
            out.push_str(&format!(
                "{:<rule_width$}  {:<loc_width$}  FINDING\n    {}\n",
                f.rule.to_string(),
                loc,
                f.snippet,
            ));
        }
        let gating = self.unannotated().count();
        let allowed = self.findings.len() - gating;
        out.push_str(&format!(
            "fastreg-lint: {} finding(s) — {} gating, {} allowed — in {} file(s)\n",
            self.findings.len(),
            gating,
            allowed,
            self.files_scanned,
        ));
        out
    }
}

/// Scans every workspace source under `root` (see [`walk::rust_files`])
/// with the per-line rules, runs the cross-file registry rule (D5), and
/// returns the sorted report.
///
/// # Errors
///
/// Propagates I/O errors from the walk and file reads (a missing root
/// or unreadable file is an error, findings are not).
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let files = walk::rust_files(root)?;

    let mut findings = Vec::new();
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))?;
        let scanned = scanner::scan(&text);
        findings.extend(rules::check_file(rel, &scanned));
    }

    let mut registry_variants = 0;
    let registry_rel = "crates/core/src/protocols/registry.rs";
    let registry_path = root.join(registry_rel);
    if registry_path.is_file() {
        let registry = scanner::scan(&std::fs::read_to_string(&registry_path)?);
        let conformance_path = root.join("tests/protocol_conformance.rs");
        let conformance = if conformance_path.is_file() {
            Some(scanner::scan(&std::fs::read_to_string(&conformance_path)?))
        } else {
            None
        };
        registry_variants = rules::count_enum_variants(&registry);
        findings.extend(rules::check_registry(
            registry_rel,
            &registry,
            conformance.as_ref(),
        ));
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.snippet).cmp(&(&b.file, b.line, b.rule, &b.snippet))
    });
    Ok(Report {
        findings,
        files_scanned: files.len(),
        registry_variants,
    })
}
