//! Public-API snapshot test: the serve crate's exported surface is
//! golden-filed so an accidental signature change, removal, or visibility
//! widening fails CI with a readable diff instead of slipping into a
//! release.
//!
//! The snapshot is a sorted listing of every `pub` item signature in
//! `src/`, one per line, prefixed with its file. To accept an intentional
//! API change, regenerate the golden file:
//!
//! ```text
//! UPDATE_PUBLIC_API=1 cargo test -p cumf-serve --test public_api
//! ```
//!
//! and review the diff in code review like any other contract change.

use std::fs;
use std::path::{Path, PathBuf};

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// True for lines that declare crate-external API: `pub` but not
/// `pub(crate)` / `pub(super)` / `pub(in …)`, and not a line that merely
/// starts with an identifier such as `publish_seconds`.
fn is_public_decl(line: &str) -> bool {
    let rest = match line.strip_prefix("pub") {
        Some(rest) => rest,
        None => return false,
    };
    rest.starts_with(char::is_whitespace) && !rest.trim_start().starts_with('(')
}

/// Normalize a declaration line into a stable one-line signature: strip
/// bodies, trailing separators, and collapse interior whitespace.
fn normalize(line: &str) -> String {
    let mut sig = line.trim();
    for suffix in ["{", ";", ","] {
        sig = sig.trim_end_matches(suffix).trim_end();
    }
    sig.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The current public surface, one sorted `file: signature` line each.
fn current_api() -> Vec<String> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_sources(&src, &mut files);
    assert!(!files.is_empty(), "no sources under {}", src.display());

    let mut api = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&src).unwrap().display().to_string();
        let text = fs::read_to_string(path).unwrap();
        let mut in_tests = false;
        for line in text.lines() {
            let trimmed = line.trim_start();
            // Skip `#[cfg(test)] mod tests` bodies: everything below the
            // marker in a file is test code in this codebase's layout.
            if trimmed.starts_with("#[cfg(test)]") {
                in_tests = true;
            }
            if in_tests {
                continue;
            }
            if is_public_decl(trimmed) {
                api.push(format!("{rel}: {}", normalize(trimmed)));
            }
        }
    }
    api.sort();
    api.dedup();
    api
}

#[test]
fn public_api_matches_the_golden_snapshot() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("public_api.txt");
    let current = current_api();

    if std::env::var_os("UPDATE_PUBLIC_API").is_some() {
        fs::write(&golden_path, current.join("\n") + "\n").unwrap();
        eprintln!("public_api: wrote {} lines", current.len());
        return;
    }

    let golden_text = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_PUBLIC_API=1 cargo test -p cumf-serve \
             --test public_api to create it",
            golden_path.display()
        )
    });
    let golden: Vec<String> = golden_text.lines().map(str::to_string).collect();

    let added: Vec<&String> = current.iter().filter(|l| !golden.contains(l)).collect();
    let removed: Vec<&String> = golden.iter().filter(|l| !current.contains(l)).collect();
    assert!(
        added.is_empty() && removed.is_empty(),
        "public API drifted from tests/public_api.txt\n\nadded ({}):\n  {}\n\nremoved ({}):\n  \
         {}\n\nIf intentional, regenerate with UPDATE_PUBLIC_API=1 and review the diff.",
        added.len(),
        added
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join("\n  "),
        removed.len(),
        removed
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join("\n  "),
    );
}
