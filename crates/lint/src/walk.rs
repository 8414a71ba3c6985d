//! Deterministic discovery of the Rust sources to scan.
//!
//! The walk is *sorted* at every directory level, so the file list — and
//! therefore the finding order and the table's bytes — is identical
//! across runs, machines and filesystems (`read_dir` order is explicitly
//! unspecified). Pinned by `tests/walk_determinism.rs`.

use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: vendored dependencies, build
/// output and committed counterexample corpora are not workspace
/// sources, and integration-test trees may legitimately use wall-clock
/// timeouts and panicking assertions.
const SKIP_DIRS: &[&str] = &["vendor", "target", "corpus", "found", "tests"];

/// Collects every `.rs` file under `root`, returned as **sorted,
/// root-relative** paths with `/` separators.
///
/// Skips `SKIP_DIRS` (any directory named `tests` among them) and hidden
/// directories (`.git`, `.github`, …).
///
/// # Errors
///
/// Propagates the underlying `read_dir` errors; a missing `root` is an
/// error, an empty tree is `Ok(vec![])`.
pub fn rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    descend(root, Path::new(""), &mut out)?;
    out.sort();
    Ok(out)
}

fn descend(dir: &Path, rel: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue, // non-UTF-8 names cannot be workspace sources
        };
        let rel_child = rel.join(name);
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name) {
                continue;
            }
            descend(&path, &rel_child, out)?;
        } else if name.ends_with(".rs") {
            out.push(normalize(&rel_child));
        }
    }
    Ok(())
}

/// Renders a relative path with `/` separators regardless of platform.
fn normalize(rel: &Path) -> String {
    rel.iter()
        .map(|c| c.to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
