//! The public surface, counted and pinned.
//!
//! Per crate under `crates/*/src`, this counts the non-test `pub`
//! `fn` / `struct` / `enum` / `trait` / `const` / `static` / `type`
//! declarations, using the lint's own scanner (comments and string
//! literals blanked, `#[cfg(test)]` blocks and files reached only
//! through `#[cfg(test)] mod x;` are test code). `pub(crate)`, `pub use`,
//! `pub mod` and fields do not count.
//!
//! [`SURFACE_PINS`] holds each count under `COST_PINS`' rule: a drop is
//! a stated re-pin, a rise fails. And every counted declaration must be
//! named, as a token, by some non-test code besides its own declaration
//! — in `crates/*/src`, `src/`, `examples/` or `benchmark/src` — unless
//! [`ORACLES`] lists it with a reason.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use fastreg_lint::scan_workspace;
use fastreg_lint::scanner::{scan, Scanned};

/// Non-test public declarations per crate directory. Same ratchet as
/// `COST_PINS`: when a count drops, paste the measured table here and
/// say so in CHANGES.md; a rise fails — make the item `pub(crate)`, move
/// it into the test module that uses it, or delete it.
const SURFACE_PINS: &[(&str, usize)] = &[
    ("adversary", 59),
    ("atomicity", 62),
    ("auth", 21),
    ("bench", 0),
    ("core", 136),
    ("lint", 12),
    ("obs", 32),
    ("rt", 19),
    ("simnet", 95),
    ("store", 54),
    ("workload", 28),
];

/// `(crate, item, reason)`: public items that only tests name, kept
/// because a test outside their crate needs them.
const ORACLES: &[(&str, &str, &str)] = &[
    (
        "lint",
        "scan_workspace",
        "the lint gate's entry point; only its tier-1 tests call it",
    ),
    (
        "atomicity",
        "Verdict::from_regularity",
        "the batch regularity verdict streaming_equivalence.rs holds the streaming checker to",
    ),
    (
        "atomicity",
        "Verdict::from_linearizable",
        "the batch linearizability verdict streaming_equivalence.rs holds the streaming checker to",
    ),
    (
        "core",
        "DynCluster::from_cluster",
        "erases a typed cluster with custom servers so protocol_conformance.rs drives it erased",
    ),
    (
        "rt",
        "ActorPool::shutdown",
        "the pool's panic report, read by rt's crash tests and its crate doctest",
    ),
    (
        "simnet",
        "World::drop_matching",
        "scripted message loss for the render, scheduler and write-back tests",
    ),
    (
        "simnet",
        "World::actor_ids",
        "lists a world's actors for cross_protocol.rs's partitions",
    ),
];

const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "static", "type"];

/// The `(kind, name)` of every counted public declaration in `file`'s
/// non-test lines.
fn declarations(file: &Scanned) -> Vec<(&'static str, String)> {
    file.lines
        .iter()
        .filter(|line| !line.in_test)
        .filter_map(|line| declaration(&line.code))
        .collect()
}

/// `pub`, any `const` / `unsafe` / `async` / `extern` qualifiers, a
/// counted keyword and an identifier.
fn declaration(code: &str) -> Option<(&'static str, String)> {
    let mut words = code.split_whitespace().peekable();
    if words.next()? != "pub" {
        return None;
    }
    let mut word = words.next()?;
    while matches!(word, "unsafe" | "async" | "extern")
        || (word == "const" && matches!(words.peek(), Some(&("fn" | "unsafe" | "extern"))))
    {
        word = words.next()?;
    }
    let kind = KINDS.into_iter().find(|&k| k == word)?;
    let mut name = words.next()?;
    if name == "mut" {
        name = words.next()?;
    }
    let name: String = name
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some((kind, name))
}

fn identifiers(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `.rs` files under `dir`, recursively, sorted; none if it is absent.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return files;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// The files of `dir` scanned, minus those reached only through a
/// `#[cfg(test)] mod x;`.
fn non_test_files(dir: &Path) -> Vec<(PathBuf, Scanned)> {
    let files: Vec<(PathBuf, Scanned)> = rust_files(dir)
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            (path, scan(&text))
        })
        .collect();
    let mut test_modules = Vec::new();
    for (path, file) in &files {
        let parent = path.parent().unwrap();
        let dir = match path.file_name().and_then(|n| n.to_str()) {
            Some("lib.rs" | "main.rs" | "mod.rs") => parent.to_path_buf(),
            _ => path.with_extension(""),
        };
        for line in file.lines.iter().filter(|l| l.in_test) {
            let module = line.code.trim().strip_prefix("mod ");
            if let Some(name) = module.and_then(|m| m.strip_suffix(';')) {
                test_modules.push(dir.join(format!("{name}.rs")));
                test_modules.push(dir.join(name).join("mod.rs"));
            }
        }
    }
    files
        .into_iter()
        .filter(|(path, _)| !test_modules.contains(path))
        .collect()
}

/// One crate's row of the surface table.
struct CrateSurface {
    non_test_lines: usize,
    declarations: Vec<(&'static str, String)>,
    waivers: usize,
}

/// Every crate under `crates/`, by directory name.
fn surface(root: &Path) -> BTreeMap<String, CrateSurface> {
    let lint = scan_workspace(root).unwrap();
    let mut crates = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let files = non_test_files(&dir.join("src"));
        let prefix = format!("crates/{name}/");
        crates.insert(
            name,
            CrateSurface {
                non_test_lines: files
                    .iter()
                    .map(|(_, f)| f.lines.iter().filter(|l| !l.in_test).count())
                    .sum(),
                declarations: files.iter().flat_map(|(_, f)| declarations(f)).collect(),
                waivers: lint
                    .allowed()
                    .filter(|f| f.file.starts_with(&prefix))
                    .count(),
            },
        );
    }
    crates
}

fn table(crates: &BTreeMap<String, CrateSurface>) -> String {
    let mut out = format!(
        "{:<10} {:>15} {:>13} {:>8}\n",
        "crate", "non-test lines", "public decls", "waivers"
    );
    for (name, c) in crates {
        out.push_str(&format!(
            "{name:<10} {:>15} {:>13} {:>8}\n",
            c.non_test_lines,
            c.declarations.len(),
            c.waivers
        ));
    }
    out
}

/// How often each identifier occurs in the non-test code that may call
/// a public item.
fn caller_tokens(root: &Path) -> BTreeMap<String, usize> {
    let mut dirs = vec![
        root.join("src"),
        root.join("examples"),
        root.join("benchmark/src"),
    ];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        dirs.push(entry.unwrap().path().join("src"));
    }
    let mut tokens = BTreeMap::new();
    for dir in dirs {
        for (_, file) in non_test_files(&dir) {
            for line in file.lines.iter().filter(|l| !l.in_test) {
                for token in identifiers(&line.code) {
                    *tokens.entry(token.to_string()).or_insert(0) += 1;
                }
            }
        }
    }
    tokens
}

#[test]
fn public_declarations_are_pinned_per_crate() {
    let crates = surface(&workspace_root());
    let measured: Vec<(&str, usize)> = crates
        .iter()
        .map(|(name, c)| (name.as_str(), c.declarations.len()))
        .collect();
    assert_eq!(
        measured,
        SURFACE_PINS,
        "public declarations per crate moved (a drop is a stated re-pin, a rise fails)\n{}",
        table(&crates)
    );
}

#[test]
fn every_public_declaration_has_a_non_test_caller() {
    let root = workspace_root();
    let crates = surface(&root);
    let tokens = caller_tokens(&root);
    // Each declaration accounts for one occurrence of its name.
    let mut declared: BTreeMap<&str, usize> = BTreeMap::new();
    for c in crates.values() {
        for (_, name) in &c.declarations {
            *declared.entry(name).or_insert(0) += 1;
        }
    }
    let oracle = |krate: &str, name: &str| {
        ORACLES
            .iter()
            .any(|(k, item, _)| *k == krate && item.rsplit("::").next() == Some(name))
    };
    let mut uncalled = Vec::new();
    let mut oracles_seen = Vec::new();
    for (krate, c) in &crates {
        for (kind, name) in &c.declarations {
            if tokens.get(name).copied().unwrap_or(0) > declared[name.as_str()] {
                continue;
            }
            if oracle(krate, name) {
                oracles_seen.push(name.as_str());
            } else {
                uncalled.push(format!("{krate}: pub {kind} {name}"));
            }
        }
    }
    assert!(
        uncalled.is_empty(),
        "public items no non-test code names: delete them, or move them into \
         the test module that uses them\n{}\n{}",
        uncalled.join("\n"),
        table(&crates)
    );
    let stale: Vec<&str> = ORACLES
        .iter()
        .map(|(_, item, _)| *item)
        .filter(|item| !oracles_seen.contains(&item.rsplit("::").next().unwrap()))
        .collect();
    assert!(
        stale.is_empty(),
        "ORACLES entries that non-test code now names, or that are gone: {stale:?}"
    );
}

#[test]
fn the_counting_rule() {
    let src = r#"
pub fn counted() {}
pub struct Counted;
pub const fn also_counted() {}
pub(crate) fn crate_only() {}
pub use crate::counted as reexported;
pub mod module {}
pub struct WithField {
    pub field: u32,
}
// pub fn in_a_comment() {}
const S: &str = "pub fn in_a_string() {}";
#[cfg(test)]
mod tests {
    pub fn in_a_test_module() {}
}
"#;
    let found = declarations(&scan(src));
    assert_eq!(
        found,
        [
            ("fn", "counted".to_string()),
            ("struct", "Counted".to_string()),
            ("fn", "also_counted".to_string()),
            ("struct", "WithField".to_string()),
        ]
    );
}
