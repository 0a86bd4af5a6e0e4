//! Public-API snapshot guard for the retired `*_pairs` shims.
//!
//! The API redesign once kept every raw-slice entry point alive as a
//! `#[deprecated]` `*_pairs` shim; the shims are gone now. This test
//! pins what replaced them: each shim's removal must be recorded in
//! `CHANGES.md` (the note is the changelog entry downstream users grep
//! for), a shim that reappears must carry its `#[deprecated]` marker,
//! and each typed replacement must exist.

use std::path::Path;

/// (source file, deprecated shim, typed replacement) — the full shim
/// surface of the redesign.
const SHIMS: &[(&str, &str, &str)] = &[
    ("crates/core/src/structure.rs", "fn query_pairs", "fn query"),
    (
        "crates/core/src/structure.rs",
        "fn query_with_scratch_pairs",
        "fn query_with_scratch",
    ),
    (
        "crates/core/src/structure.rs",
        "fn query_batch_pairs",
        "fn query_batch",
    ),
    (
        "crates/core/src/structure.rs",
        "fn instantiate_pairs",
        "fn instantiate",
    ),
    (
        "crates/core/src/structure.rs",
        "fn instantiate_or_fallback_pairs",
        "fn instantiate_or_fallback",
    ),
    (
        "crates/core/src/structure.rs",
        "fn instantiate_compacted_pairs",
        "fn instantiate_compacted",
    ),
    (
        "crates/core/src/structure.rs",
        "fn instantiate_compacted_or_fallback_pairs",
        "fn instantiate_compacted_or_fallback",
    ),
    ("crates/serve/src/compiled.rs", "fn query_pairs", "fn query"),
    (
        "crates/serve/src/compiled.rs",
        "fn query_with_scratch_pairs",
        "fn query_with_scratch",
    ),
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn deprecated_shims_stay_until_changes_md_notes_their_removal() {
    let changes = std::fs::read_to_string(repo_root().join("CHANGES.md")).expect("CHANGES.md");
    for &(file, shim, _) in SHIMS {
        let source = std::fs::read_to_string(repo_root().join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        let shim_name = shim.strip_prefix("fn ").unwrap();
        if let Some(at) = source.find(&format!("pub {shim}(")) {
            // Present: it must still carry its deprecation marker (the
            // preceding 600 bytes cover the attribute + doc comment).
            let before = &source[at.saturating_sub(600)..at];
            assert!(
                before.contains("#[deprecated"),
                "{file}: `{shim_name}` exists but lost its #[deprecated] marker"
            );
        } else {
            // Removed: legal only once CHANGES.md records the break.
            assert!(
                changes.contains(shim_name),
                "{file}: deprecated shim `{shim_name}` was removed without a \
                 CHANGES.md note — record the breaking change (or restore the shim)"
            );
        }
    }
}

#[test]
fn typed_replacements_exist() {
    for &(file, _, replacement) in SHIMS {
        let source = std::fs::read_to_string(repo_root().join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        assert!(
            source.contains(&format!("pub {replacement}(")),
            "{file}: typed replacement `{replacement}` is missing"
        );
    }
}

/// The facade types the README/migration table promise must stay
/// exported from the umbrella crate root & api module.
#[test]
fn facade_surface_is_exported() {
    let lib = std::fs::read_to_string(repo_root().join("src/lib.rs")).unwrap();
    for needle in [
        "pub mod api",
        "pub use mps_geom::{dims, Coord, Dims, DimsError}",
    ] {
        assert!(lib.contains(needle), "src/lib.rs lost `{needle}`");
    }
    let api = std::fs::read_to_string(repo_root().join("src/api/mod.rs")).unwrap();
    for needle in ["MpsError", "QueryError", "Workspace", "StructureHandle"] {
        assert!(api.contains(needle), "src/api/mod.rs lost `{needle}`");
    }
}
