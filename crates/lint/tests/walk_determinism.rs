//! The directory walk must be deterministic (sorted, repeatable — never
//! `read_dir` order) and must skip `vendor/`, `target/`, corpus dirs,
//! hidden dirs and `tests/` trees.

use std::path::PathBuf;

use fastreg_lint::walk;

fn walk_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/walk")
}

#[test]
fn sorted_and_repeatable() {
    let first = walk::rust_files(&walk_root()).unwrap();
    assert_eq!(
        first,
        vec!["crates/z/src/a.rs", "src/b.rs", "src/lib.rs"],
        "vendor/, target/, corpus/, hidden and tests/ trees must be skipped"
    );
    let mut resorted = first.clone();
    resorted.sort();
    assert_eq!(first, resorted, "walk output is not sorted");
    for _ in 0..3 {
        assert_eq!(walk::rust_files(&walk_root()).unwrap(), first);
    }
}
