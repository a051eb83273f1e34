//! Manifest hygiene: the workspace declares only what it uses.
//!
//! - Every `[dependencies]` and `[dev-dependencies]` entry of a member
//!   crate is named as a Rust path (`name::…`, `use name`) somewhere in
//!   that crate's sources: `src/`, `tests/`, `benches/` and the `path`
//!   of every `[[example]]`/`[[bench]]` target.
//! - Every `[workspace.dependencies]` entry is declared by some member.
//! - Every vendored crate under `shims/` is reachable: named by the
//!   workspace, by another shim or by the benchmark's manifest.
//!
//! The manifests are read line by line; the layout they use (one key
//! per line, `name.workspace = true` or `name = { … }`) is all this
//! needs.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the workspace root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// One line of a manifest, classified by the section it sits in.
struct Entry {
    section: String,
    key: String,
    value: String,
}

/// Every `key = value` line with its enclosing `[section]`, comments
/// dropped. A dotted key (`rand.workspace = true`) keys on its first part.
fn entries(manifest: &str) -> Vec<Entry> {
    let mut section = String::new();
    let mut out = Vec::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            out.push(Entry {
                section: section.clone(),
                key: key.split('.').next().unwrap_or(key).to_string(),
                value: value.trim().to_string(),
            });
        }
    }
    out
}

fn is_dependency_section(section: &str) -> bool {
    section == "dependencies" || section == "dev-dependencies"
}

/// The string literal inside a `path = "…"` value.
fn quoted(value: &str) -> &str {
    value.trim().trim_matches('"')
}

/// The `path = "…"` of a `{ path = "…", … }` inline table, if any.
fn inline_path(value: &str) -> Option<&str> {
    let rest = &value[value.find("path")? + "path".len()..];
    let rest = rest.trim_start().strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// `.rs` files under `dir`, recursively (none if it does not exist).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(read_dir) = fs::read_dir(dir) else {
        return;
    };
    for entry in read_dir {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Crate names used as Rust paths (`name::…`, `use name`, `extern crate
/// name`) in `source`, line comments excluded.
fn paths_named(source: &str, out: &mut BTreeSet<String>) {
    for line in source.lines() {
        let code = line.split("//").next().unwrap_or("");
        let words: Vec<&str> = code
            .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
            .filter(|w| !w.is_empty())
            .collect();
        for (i, word) in words.iter().enumerate() {
            if let Some((root, _)) = word.split_once("::") {
                out.insert(root.to_string());
            } else if i > 0 && matches!(words[i - 1], "use" | "crate") {
                out.insert(word.to_string());
            }
        }
    }
}

/// Member manifests: `crates/*/Cargo.toml` and `tests/Cargo.toml`.
fn members(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs.push(root.join("tests"));
    dirs
}

#[test]
fn every_declared_dependency_is_used() {
    let root = root();
    let mut unused = Vec::new();
    for dir in members(&root) {
        let manifest = entries(&read(&dir.join("Cargo.toml")));
        let mut files = Vec::new();
        for sub in ["src", "tests", "benches"] {
            rust_files(&dir.join(sub), &mut files);
        }
        files.extend(
            manifest
                .iter()
                .filter(|e| matches!(e.section.as_str(), "example" | "bench"))
                .filter(|e| e.key == "path")
                .map(|e| dir.join(quoted(&e.value))),
        );
        let mut named = BTreeSet::new();
        for file in &files {
            paths_named(&read(file), &mut named);
        }
        let crate_dir = dir.strip_prefix(&root).expect("member under root");
        for dep in manifest
            .iter()
            .filter(|e| is_dependency_section(&e.section))
        {
            if !named.contains(&dep.key.replace('-', "_")) {
                unused.push(format!(
                    "{}: [{}] {}",
                    crate_dir.display(),
                    dep.section,
                    dep.key
                ));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "{} dependencies are declared but never named in their crate's sources:\n  {}",
        unused.len(),
        unused.join("\n  ")
    );
}

#[test]
fn every_workspace_dependency_has_a_member() {
    let root = root();
    let workspace = entries(&read(&root.join("Cargo.toml")));
    let declared: BTreeSet<String> = members(&root)
        .iter()
        .flat_map(|dir| entries(&read(&dir.join("Cargo.toml"))))
        .filter(|e| is_dependency_section(&e.section))
        .map(|e| e.key)
        .collect();
    let orphans: Vec<&str> = workspace
        .iter()
        .filter(|e| e.section == "workspace.dependencies")
        .map(|e| e.key.as_str())
        .filter(|name| !declared.contains(*name))
        .collect();
    assert!(
        orphans.is_empty(),
        "[workspace.dependencies] entries no member declares: {orphans:?}"
    );
}

#[test]
fn every_shim_is_reachable() {
    let root = root();
    let mut manifests = vec![root.join("Cargo.toml"), root.join("perfbench/Cargo.toml")];
    let mut shims = Vec::new();
    for entry in fs::read_dir(root.join("shims")).expect("shims/ exists") {
        let dir = entry.expect("directory entry").path();
        if dir.join("Cargo.toml").is_file() {
            manifests.push(dir.join("Cargo.toml"));
            shims.push(dir);
        }
    }
    let mut referenced = BTreeSet::new();
    for manifest in &manifests {
        let own_dir = manifest.parent().expect("manifest has a directory");
        for entry in entries(&read(manifest)) {
            if let Some(target) =
                inline_path(&entry.value).and_then(|path| fs::canonicalize(own_dir.join(path)).ok())
            {
                referenced.insert(target);
            }
        }
    }
    let mut unreachable: Vec<String> = shims
        .iter()
        .filter(|dir| !fs::canonicalize(dir).is_ok_and(|dir| referenced.contains(&dir)))
        .map(|dir| dir.strip_prefix(&root).unwrap_or(dir).display().to_string())
        .collect();
    unreachable.sort();
    assert!(
        unreachable.is_empty(),
        "vendored crates nothing depends on: {unreachable:?}"
    );
}
