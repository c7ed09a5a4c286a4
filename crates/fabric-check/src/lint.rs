//! Lexical repo lint: line-level scans for the defect classes the
//! repo's history has already paid for, plus `LOCK_ORDER.txt` manifest
//! consistency. Deliberately parser-free (offline-shims constraint):
//! everything is substring matching over lines, with a comment-aware
//! suppression syntax (`// lint:allow(<rule>) <reason>`) for the rare
//! justified exception.
//!
//! Rules:
//!
//! * `truncating-cast` — `as u16` / `as u32` in `bmac-protocol` /
//!   `fabric-store` sources (the wire/format crates where a silent
//!   integer alias corrupts frames; use `try_from` + an error, or
//!   suppress with a reason proving the domain fits).
//! * `no-unwrap` — `.unwrap()` in non-test library code. `.expect()`
//!   stays allowed: it documents the violated invariant.
//! * `relaxed-ordering` — `Ordering::Relaxed` without a `// relaxed:`
//!   justification on the same or preceding line.
//! * `env-selector` — `env::var`/`env::var_os`/`env::vars` in library
//!   code. Each layer has one production implementation; a process
//!   environment read is how a second one gets selected behind the
//!   caller's back. Configuration arrives through constructors.
//! * `spawn-site` — `thread::scope` / `thread::spawn` /
//!   `thread::Builder` outside the files that own the workspace's
//!   threads: `fabric-peer/src/verify.rs` (every signature-verification
//!   fan-out), `fabric-peer/src/stream.rs` (the streaming validator's
//!   lanes) and `fabric-statedb/src/sharded.rs` (the striped apply). A
//!   new parallel loop goes through one of them instead of becoming a
//!   second pool.
//! * `unsafe-site` — `unsafe` outside the files that own the
//!   workspace's unsafe code: `fabric-crypto/src/sha256.rs` (the SHA
//!   extensions kernel and its one call), `fabric-crypto/src/p256x8.rs`
//!   (the dispatch into the eight-lane ECDSA kernel and its register
//!   loads and stores), `fabric-store/src/crc.rs` (the
//!   carry-less-multiply CRC-32 kernel and its one call) and
//!   `fabric-check/src/lib.rs` (the lock graph's leaked nodes). Inside
//!   them, every `unsafe` block or fn must sit under a `// SAFETY:`
//!   comment (attributes may come between) saying why its requirements
//!   hold.
//! * `test-oracle` — `verify_prehashed_shamir` in non-test code outside
//!   `fabric-crypto`. The seed's verification is kept, hidden from the
//!   documentation, as the reference the tests hold the production path
//!   to; a production caller would make it a second implementation.
//! * `lock-order` — `LOCK_ORDER.txt` must parse, be acyclic, declare
//!   every `named("...")` label used in non-test source, and not
//!   declare labels that no longer exist (or `test.` labels at all).
//!
//! Scope: `crates/<name>/src/**/*.rs` excluding `crates/shims` (vendored
//! stand-ins), `crates/bench` (reporting binary, not hot-path code) and
//! `crates/fabric-check` (the linter's own sources contain every rule
//! pattern as string literals; its behavior is covered by fixtures, and
//! `FABRIC_CHECK_SYNC`/`FABRIC_CHECK_SEED` are read there by design).
//! `env-selector` and `test-oracle` alone also cover `crates/shims`,
//! `crates/bench` and the root `src/`; `unsafe-site` alone also covers
//! `crates/fabric-check/src/lib.rs`.
//! Code at or after a `#[cfg(test)]` line that gates a module is exempt
//! (a `#[cfg(test)]` on a single statement or item — a test-only counter
//! inside a function — exempts nothing after it), as are comment-only
//! lines. `named()` labels are additionally collected from
//! `tests/` so the manifest inventory covers integration fixtures.

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A `named("label")` occurrence in source.
#[derive(Debug, Clone)]
pub struct LabelUse {
    pub path: String,
    pub line: usize,
    pub label: String,
    pub in_test: bool,
}

/// Parsed `LOCK_ORDER.txt`.
#[derive(Debug, Default, Clone)]
pub struct ParsedManifest {
    /// `a -> b`: `a` may be held while acquiring `b`.
    pub edges: Vec<(String, String)>,
    /// Every label mentioned (edge endpoints and `lock` lines).
    pub labels: Vec<String>,
}

/// Parses the manifest. Errors carry the offending line number.
pub fn parse_manifest(text: &str) -> Result<ParsedManifest, String> {
    let mut m = ParsedManifest::default();
    let mut seen = HashSet::new();
    let mut add_label = |labels: &mut Vec<String>, l: &str| {
        if seen.insert(l.to_string()) {
            labels.push(l.to_string());
        }
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("lock ") {
            let label = rest.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                return Err(format!("line {}: malformed `lock` line: {raw}", idx + 1));
            }
            add_label(&mut m.labels, label);
        } else if let Some((a, b)) = line.split_once("->") {
            let (a, b) = (a.trim(), b.trim());
            if a.is_empty()
                || b.is_empty()
                || a.contains(char::is_whitespace)
                || b.contains(char::is_whitespace)
            {
                return Err(format!("line {}: malformed edge: {raw}", idx + 1));
            }
            if a == b {
                return Err(format!("line {}: self-edge `{a} -> {a}`", idx + 1));
            }
            add_label(&mut m.labels, a);
            add_label(&mut m.labels, b);
            m.edges.push((a.to_string(), b.to_string()));
        } else {
            return Err(format!(
                "line {}: expected `lock <label>` or `<a> -> <b>`: {raw}",
                idx + 1
            ));
        }
    }
    Ok(m)
}

/// Returns the labels of a cycle in the declared order, if one exists.
pub fn manifest_cycle(m: &ParsedManifest) -> Option<Vec<String>> {
    fn dfs(
        node: &str,
        edges: &[(String, String)],
        visiting: &mut Vec<String>,
        done: &mut HashSet<String>,
    ) -> Option<Vec<String>> {
        if done.contains(node) {
            return None;
        }
        if let Some(pos) = visiting.iter().position(|n| n == node) {
            let mut cycle = visiting[pos..].to_vec();
            cycle.push(node.to_string());
            return Some(cycle);
        }
        visiting.push(node.to_string());
        for (a, b) in edges {
            if a == node {
                if let Some(c) = dfs(b, edges, visiting, done) {
                    return Some(c);
                }
            }
        }
        visiting.pop();
        done.insert(node.to_string());
        None
    }
    let mut done = HashSet::new();
    for label in &m.labels {
        if let Some(c) = dfs(label, &m.edges, &mut Vec::new(), &mut done) {
            return Some(c);
        }
    }
    None
}

fn norm_path(path: &str) -> String {
    path.replace('\\', "/")
}

fn in_cast_scope(path: &str) -> bool {
    let p = norm_path(path);
    p.contains("crates/bmac-protocol/src/") || p.contains("crates/fabric-store/src/")
}

/// Splits off a trailing `//` comment, returning `(code, comment)`.
/// Only a `//` preceded by whitespace (or at line start) counts, so
/// `https://` inside a string literal survives as code.
fn split_comment(line: &str) -> (&str, &str) {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b'/'
            && bytes[i + 1] == b'/'
            && (i == 0 || bytes[i - 1].is_ascii_whitespace())
        {
            return (&line[..i], &line[i..]);
        }
        i += 1;
    }
    (line, "")
}

fn has_allow(comment: &str, rule: &str) -> bool {
    comment.contains(&format!("lint:allow({rule})"))
}

fn suppressed(lines: &[&str], idx: usize, rule: &str) -> bool {
    let (_, comment) = split_comment(lines[idx]);
    if has_allow(comment, rule) {
        return true;
    }
    if idx > 0 {
        let prev = lines[idx - 1].trim_start();
        if prev.starts_with("//") && has_allow(prev, rule) {
            return true;
        }
    }
    false
}

fn relaxed_justified(lines: &[&str], idx: usize) -> bool {
    let (_, comment) = split_comment(lines[idx]);
    if comment.contains("relaxed:") {
        return true;
    }
    // A `// relaxed:` comment covers the contiguous run below it:
    // walk upward through comment lines and other `Ordering::Relaxed`
    // lines (so one justification can cover a multi-line snapshot or a
    // wrapped multi-line comment) until we find the comment or any
    // unrelated code line.
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let prev = lines[i].trim_start();
        if prev.starts_with("//") {
            if prev.contains("relaxed:") {
                return true;
            }
            continue;
        }
        let (code, _) = split_comment(lines[i]);
        if code.contains("Ordering::Relaxed") {
            continue;
        }
        break;
    }
    false
}

/// Whether `code` uses `unsafe` as a keyword (not as part of a longer
/// identifier such as `unsafe_code`).
fn has_unsafe_keyword(code: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("unsafe").any(|(at, word)| {
        !code[..at].chars().next_back().is_some_and(is_ident)
            && !code[at + word.len()..].chars().next().is_some_and(is_ident)
    })
}

/// Whether the comment run directly above line `idx` (attribute lines
/// may sit in between) carries a `SAFETY:` justification.
fn safety_justified(lines: &[&str], idx: usize) -> bool {
    lines[..idx]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//") || l.starts_with("#["))
        .any(|l| l.starts_with("//") && l.contains("SAFETY:"))
}

/// Per-line rules for one file. `path` determines rule scoping and is
/// echoed into findings; callers may pass a virtual path to lint a
/// snippet as if it lived elsewhere (the fixture tests do).
pub fn lint_file(path: &str, content: &str) -> Vec<Finding> {
    let lines: Vec<&str> = content.lines().collect();
    let mut findings = Vec::new();
    let mut in_test = false;
    let cast_scope = in_cast_scope(path);
    let normalized = norm_path(path);
    let spawn_site = SPAWN_SITES.iter().any(|f| normalized.ends_with(f));
    let unsafe_site = UNSAFE_SITES.iter().any(|f| normalized.ends_with(f));
    for (idx, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        in_test |= opens_test_module(&lines, idx);
        if in_test || trimmed.starts_with("//") {
            continue;
        }
        let (code, _) = split_comment(raw);
        let mut hit = |rule: &'static str, message: String| {
            if !suppressed(&lines, idx, rule) {
                findings.push(Finding {
                    path: path.to_string(),
                    line: idx + 1,
                    rule,
                    message,
                });
            }
        };
        if code.contains(".unwrap()") {
            hit(
                "no-unwrap",
                "`.unwrap()` in non-test code: use `.expect(\"<violated invariant>\")` or \
                 propagate the error"
                    .to_string(),
            );
        }
        if cast_scope && (code.contains(" as u16") || code.contains(" as u32")) {
            hit(
                "truncating-cast",
                "possibly-truncating integer cast in a wire/format crate: use `try_from` \
                 with an error path, or suppress with a domain proof"
                    .to_string(),
            );
        }
        if code.contains("Ordering::Relaxed") && !relaxed_justified(&lines, idx) {
            hit(
                "relaxed-ordering",
                "`Ordering::Relaxed` without a `// relaxed:` justification comment".to_string(),
            );
        }
        if code.contains("env::var") {
            hit(
                ENV_SELECTOR,
                "process-environment read in library code: take the value through a \
                 constructor or config struct instead"
                    .to_string(),
            );
        }
        if code.contains(TEST_ORACLE_FN) && !normalized.contains("crates/fabric-crypto/") {
            hit(
                TEST_ORACLE,
                "the tests' reference verification called from non-test code: production \
                 verifies through `verify_prehashed` / `verify_batch`"
                    .to_string(),
            );
        }
        if has_unsafe_keyword(code) {
            if !unsafe_site {
                hit(
                    UNSAFE_SITE,
                    "`unsafe` outside the files that own the workspace's unsafe code: find a \
                     safe formulation (or extend the allow-list with a measured reason)"
                        .to_string(),
                );
            } else if !safety_justified(&lines, idx) {
                hit(
                    UNSAFE_SITE,
                    "`unsafe` without a `// SAFETY:` comment directly above it".to_string(),
                );
            }
        }
        if !spawn_site && SPAWN_PATTERNS.iter().any(|p| code.contains(p)) {
            hit(
                "spawn-site",
                "thread spawned outside the workspace's spawn sites: run the work through \
                 `fabric_peer::verify::Verifier::par_map` (or extend the allow-list with a reason)"
                    .to_string(),
            );
        }
    }
    findings
}

/// Whether line `idx` is a `#[cfg(test)]` whose item — past any further
/// attributes — is a module: the rest of the file is then test code.
fn opens_test_module(lines: &[&str], idx: usize) -> bool {
    lines[idx].trim_start().starts_with("#[cfg(test)")
        && lines[idx + 1..]
            .iter()
            .map(|l| l.trim_start())
            .find(|l| !l.starts_with("#["))
            .is_some_and(|l| l.starts_with("mod ") || l.starts_with("pub mod "))
}

/// Collects `named("label")` uses (for the lock-order inventory).
pub fn collect_labels(path: &str, content: &str) -> Vec<LabelUse> {
    let lines: Vec<&str> = content.lines().collect();
    let mut out = Vec::new();
    let mut in_test = false;
    for (idx, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        in_test |= opens_test_module(&lines, idx);
        if trimmed.starts_with("//") {
            continue;
        }
        let mut rest: &str = raw;
        while let Some(pos) = rest.find("named(\"") {
            let tail = &rest[pos + "named(\"".len()..];
            if let Some(end) = tail.find('"') {
                out.push(LabelUse {
                    path: path.to_string(),
                    line: idx + 1,
                    label: tail[..end].to_string(),
                    in_test,
                });
                rest = &tail[end..];
            } else {
                break;
            }
        }
        // rustfmt may break the call after the paren, leaving the
        // label literal to open the next line:
        //     Mutex::named(
        //         "store.journal",
        let (code, _) = split_comment(raw);
        if code.trim_end().ends_with("named(") {
            if let Some(next) = lines.get(idx + 1) {
                let next = next.trim_start();
                if let Some(tail) = next.strip_prefix('"') {
                    if let Some(end) = tail.find('"') {
                        out.push(LabelUse {
                            path: path.to_string(),
                            line: idx + 2,
                            label: tail[..end].to_string(),
                            in_test,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Manifest-vs-source consistency findings. `manifest_path` is echoed
/// into findings; `labels` is every collected [`LabelUse`].
pub fn lock_order_findings(
    manifest_text: &str,
    manifest_path: &str,
    labels: &[LabelUse],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let m = match parse_manifest(manifest_text) {
        Ok(m) => m,
        Err(e) => {
            findings.push(Finding {
                path: manifest_path.to_string(),
                line: 0,
                rule: "lock-order",
                message: format!("manifest parse error: {e}"),
            });
            return findings;
        }
    };
    if let Some(cycle) = manifest_cycle(&m) {
        findings.push(Finding {
            path: manifest_path.to_string(),
            line: 0,
            rule: "lock-order",
            message: format!("declared order contains a cycle: {}", cycle.join(" -> ")),
        });
    }
    let declared: HashSet<&str> = m.labels.iter().map(String::as_str).collect();
    let in_source: HashSet<&str> = labels.iter().map(|l| l.label.as_str()).collect();
    for label in &m.labels {
        if label.starts_with("test.") {
            findings.push(Finding {
                path: manifest_path.to_string(),
                line: 0,
                rule: "lock-order",
                message: format!("`test.` labels are exempt and must not be declared: {label}"),
            });
        } else if !in_source.contains(label.as_str()) {
            findings.push(Finding {
                path: manifest_path.to_string(),
                line: 0,
                rule: "lock-order",
                message: format!("declared label `{label}` has no named(\"{label}\") in source"),
            });
        }
    }
    for l in labels {
        if l.in_test || l.label.starts_with("test.") {
            continue;
        }
        if !declared.contains(l.label.as_str()) {
            findings.push(Finding {
                path: l.path.clone(),
                line: l.line,
                rule: "lock-order",
                message: format!(
                    "lock label `{}` is not declared in {manifest_path}; add a `lock {}` \
                     line or its order edges",
                    l.label, l.label
                ),
            });
        }
    }
    findings
}

const ENV_SELECTOR: &str = "env-selector";

const SPAWN_PATTERNS: [&str; 3] = ["thread::scope", "thread::spawn", "thread::Builder"];

/// The files allowed to start threads (see the `spawn-site` rule).
const SPAWN_SITES: [&str; 3] = [
    "crates/fabric-peer/src/verify.rs",
    "crates/fabric-peer/src/stream.rs",
    "crates/fabric-statedb/src/sharded.rs",
];

const TEST_ORACLE: &str = "test-oracle";

/// The reference implementation only tests may call (see the
/// `test-oracle` rule).
const TEST_ORACLE_FN: &str = "verify_prehashed_shamir";

const UNSAFE_SITE: &str = "unsafe-site";

/// The files allowed to contain `unsafe` (see the `unsafe-site` rule).
const UNSAFE_SITES: [&str; 4] = [
    "crates/fabric-crypto/src/sha256.rs",
    "crates/fabric-crypto/src/p256x8.rs",
    "crates/fabric-store/src/crc.rs",
    "crates/fabric-check/src/lib.rs",
];

fn src_dirs(parent: &Path, skip: &[&str], out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(parent)? {
        let entry = entry?;
        let name = entry.file_name();
        if skip.contains(&name.to_string_lossy().as_ref()) {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            out.push(src);
        }
    }
    Ok(())
}

/// Crate-source directories the per-line rules scan, relative to the
/// workspace root.
pub fn scan_roots(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut roots = Vec::new();
    src_dirs(
        &root.join("crates"),
        &["shims", "bench", "fabric-check"],
        &mut roots,
    )?;
    roots.sort();
    Ok(roots)
}

/// The further source directories only `env-selector` and
/// `test-oracle` cover: the shims, the bench crate and the root package.
fn env_only_roots(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut roots = vec![root.join("crates/bench/src"), root.join("src")];
    src_dirs(&root.join("crates/shims"), &[], &mut roots)?;
    roots.retain(|d| d.is_dir());
    roots.sort();
    Ok(roots)
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    norm_path(&path.strip_prefix(root).unwrap_or(path).to_string_lossy())
}

/// Full tree scan from the workspace root: per-line rules over
/// [`scan_roots`], label collection additionally over `tests/`, and
/// the lock-order manifest checks.
pub fn workspace_findings(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut labels = Vec::new();
    let mut files = Vec::new();
    for dir in scan_roots(root)? {
        rs_files(&dir, &mut files)?;
    }
    files.sort();
    for file in &files {
        let content = std::fs::read_to_string(file)?;
        let path = rel(root, file);
        findings.extend(lint_file(&path, &content));
        labels.extend(collect_labels(&path, &content));
    }
    let mut env_files = Vec::new();
    for dir in env_only_roots(root)? {
        rs_files(&dir, &mut env_files)?;
    }
    env_files.sort();
    for file in &env_files {
        let content = std::fs::read_to_string(file)?;
        let hits = lint_file(&rel(root, file), &content);
        findings.extend(
            hits.into_iter()
                .filter(|f| f.rule == ENV_SELECTOR || f.rule == TEST_ORACLE),
        );
    }
    // This crate's sources are outside the scan roots, but its lib.rs
    // holds real `unsafe`: that one file gets the one rule.
    let own_lib = "crates/fabric-check/src/lib.rs";
    let hits = lint_file(own_lib, &std::fs::read_to_string(root.join(own_lib))?);
    findings.extend(hits.into_iter().filter(|f| f.rule == UNSAFE_SITE));
    let tests_dir = root.join("tests");
    if tests_dir.is_dir() {
        let mut test_files = Vec::new();
        rs_files(&tests_dir, &mut test_files)?;
        test_files.sort();
        for file in &test_files {
            let content = std::fs::read_to_string(file)?;
            // Integration tests are exempt from the per-line rules but
            // contribute to the label inventory; mark them in_test so
            // undeclared (non-`test.`) labels there are tolerated.
            let path = rel(root, file);
            for mut l in collect_labels(&path, &content) {
                l.in_test = true;
                labels.push(l);
            }
        }
    }
    let manifest_path = "crates/fabric-check/LOCK_ORDER.txt";
    match std::fs::read_to_string(root.join(manifest_path)) {
        Ok(text) => findings.extend(lock_order_findings(&text, manifest_path, &labels)),
        Err(e) => findings.push(Finding {
            path: manifest_path.to_string(),
            line: 0,
            rule: "lock-order",
            message: format!("cannot read manifest: {e}"),
        }),
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// Locates the workspace root by walking up from `start` to the first
/// directory containing `ROADMAP.md` (the repo's existing convention,
/// shared with the bench harness).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("ROADMAP.md").is_file() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const BAD_CAST: &str = include_str!("../fixtures/bad_cast.fixture");
    const BAD_UNWRAP: &str = include_str!("../fixtures/bad_unwrap.fixture");
    const BAD_RELAXED: &str = include_str!("../fixtures/bad_relaxed.fixture");
    const BAD_ENV: &str = include_str!("../fixtures/bad_env.fixture");
    const BAD_SPAWN: &str = include_str!("../fixtures/bad_spawn.fixture");
    const BAD_UNSAFE: &str = include_str!("../fixtures/bad_unsafe.fixture");
    const BAD_ORACLE: &str = include_str!("../fixtures/bad_oracle.fixture");
    const GOOD: &str = include_str!("../fixtures/good.fixture");

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn bad_cast_fixture_trips_rule() {
        let f = lint_file("crates/fabric-store/src/fixture.rs", BAD_CAST);
        assert!(rules(&f).contains(&"truncating-cast"), "{f:?}");
    }

    #[test]
    fn cast_rule_is_scoped_to_wire_crates() {
        let f = lint_file("crates/fabric-crypto/src/fixture.rs", BAD_CAST);
        assert!(!rules(&f).contains(&"truncating-cast"), "{f:?}");
    }

    #[test]
    fn bad_unwrap_fixture_trips_rule() {
        let f = lint_file("crates/fabric-peer/src/fixture.rs", BAD_UNWRAP);
        assert!(rules(&f).contains(&"no-unwrap"), "{f:?}");
    }

    #[test]
    fn bad_relaxed_fixture_trips_rule() {
        let f = lint_file("crates/fabric-peer/src/fixture.rs", BAD_RELAXED);
        assert!(rules(&f).contains(&"relaxed-ordering"), "{f:?}");
    }

    #[test]
    fn bad_env_fixture_trips_rule() {
        let f = lint_file("crates/fabric-statedb/src/fixture.rs", BAD_ENV);
        assert_eq!(rules(&f), vec!["env-selector"], "{f:?}");
    }

    #[test]
    fn bad_spawn_fixture_trips_rule_outside_the_spawn_sites() {
        let f = lint_file("crates/fabric-mempool/src/fixture.rs", BAD_SPAWN);
        assert_eq!(rules(&f), vec!["spawn-site"], "{f:?}");
        for site in SPAWN_SITES {
            assert!(lint_file(site, BAD_SPAWN).is_empty(), "{site}");
        }
    }

    #[test]
    fn bad_unsafe_fixture_trips_rule_outside_the_unsafe_sites_and_without_a_safety_comment() {
        let f = lint_file("crates/fabric-ledger/src/fixture.rs", BAD_UNSAFE);
        assert_eq!(rules(&f), vec!["unsafe-site", "unsafe-site"], "{f:?}");
        // In a file that owns unsafe code the justified block passes and
        // the bare one still trips.
        for site in UNSAFE_SITES {
            let f = lint_file(site, BAD_UNSAFE);
            assert_eq!(rules(&f), vec!["unsafe-site"], "{site}: {f:?}");
            assert!(f[0].message.contains("SAFETY"), "{f:?}");
        }
        // Attributes may sit between the comment and an `unsafe fn`; a
        // longer identifier is not the keyword.
        let src = "// SAFETY: callers check the CPU feature first\n#[target_feature(enable = \"sha\")]\nunsafe fn k() {}\n#![forbid(unsafe_code)]\n";
        assert!(lint_file(UNSAFE_SITES[0], src).is_empty());
    }

    #[test]
    fn bad_oracle_fixture_trips_rule_outside_fabric_crypto_and_outside_tests() {
        for path in [
            "crates/fabric-peer/src/fixture.rs",
            "crates/bench/src/bin/fixture.rs",
            "src/fixture.rs",
        ] {
            let f = lint_file(path, BAD_ORACLE);
            assert_eq!(rules(&f), vec!["test-oracle"], "{path}: {f:?}");
        }
        // The crate that keeps the reference may name it, and so may any
        // test module.
        assert!(lint_file("crates/fabric-crypto/src/ecdsa.rs", BAD_ORACLE).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{BAD_ORACLE}}}\n");
        assert!(lint_file("crates/fabric-peer/src/fixture.rs", &in_tests).is_empty());
    }

    #[test]
    fn good_fixture_is_clean_in_every_scope() {
        for path in [
            "crates/fabric-store/src/fixture.rs",
            "crates/fabric-peer/src/fixture.rs",
        ] {
            let f = lint_file(path, GOOD);
            assert!(f.is_empty(), "{path}: {f:?}");
        }
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\n";
        assert!(lint_file("crates/fabric-peer/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_on_a_statement_exempts_nothing_after_it() {
        let src = "fn a() {\n    #[cfg(test)]\n    COUNT.with(|n| n.set(1));\n    x.unwrap();\n}\n";
        let f = lint_file("crates/fabric-peer/src/x.rs", src);
        assert_eq!(rules(&f), vec!["no-unwrap"]);
        let src = "#[cfg(test)]\nthread_local! {}\nlet a = Mutex::named(\"x.a\", 1);\n";
        assert!(!collect_labels("x.rs", src)[0].in_test);
    }

    #[test]
    fn suppression_requires_matching_rule() {
        let src = "fn a() { x.unwrap(); } // lint:allow(truncating-cast) wrong rule\n";
        let f = lint_file("crates/fabric-peer/src/x.rs", src);
        assert_eq!(rules(&f), vec!["no-unwrap"]);
        let src = "// lint:allow(no-unwrap) startup-only path, cannot continue without it\nfn a() { x.unwrap(); }\n";
        assert!(lint_file("crates/fabric-peer/src/x.rs", src).is_empty());
    }

    #[test]
    fn manifest_roundtrip_and_cycle_detection() {
        let m =
            parse_manifest("# c\nlock a.leaf\nx.one -> x.two\nx.two -> x.three\n").expect("parses");
        assert_eq!(m.edges.len(), 2);
        assert!(m.labels.contains(&"a.leaf".to_string()));
        assert!(manifest_cycle(&m).is_none());
        let m = parse_manifest("x.one -> x.two\nx.two -> x.one\n").expect("parses");
        let cycle = manifest_cycle(&m).expect("cyclic");
        assert!(cycle.len() >= 3);
    }

    #[test]
    fn manifest_rejects_malformed_lines() {
        assert!(parse_manifest("x.one => x.two\n").is_err());
        assert!(parse_manifest("x.one -> \n").is_err());
        assert!(parse_manifest("a -> a\n").is_err());
    }

    #[test]
    fn lock_order_consistency_findings() {
        let labels = vec![
            LabelUse {
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                label: "x.used".into(),
                in_test: false,
            },
            LabelUse {
                path: "crates/x/src/lib.rs".into(),
                line: 9,
                label: "x.undeclared".into(),
                in_test: false,
            },
            LabelUse {
                path: "tests/t.rs".into(),
                line: 1,
                label: "test.anything".into(),
                in_test: true,
            },
        ];
        let f = lock_order_findings("lock x.used\nlock x.ghost\n", "LOCK_ORDER.txt", &labels);
        let msgs: Vec<&str> = f.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("x.ghost")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("x.undeclared")), "{msgs:?}");
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn collect_labels_marks_test_regions() {
        let src = "let a = Mutex::named(\"x.a\", 1);\n#[cfg(test)]\nmod t { fn f() { Mutex::named(\"test.b\", 2); } }\n";
        let labels = collect_labels("crates/x/src/lib.rs", src);
        assert_eq!(labels.len(), 2);
        assert!(!labels[0].in_test && labels[0].label == "x.a");
        assert!(labels[1].in_test && labels[1].label == "test.b");
    }

    #[test]
    fn embedded_manifest_parses_and_is_acyclic() {
        let m = parse_manifest(crate::LOCK_ORDER_MANIFEST).expect("LOCK_ORDER.txt parses");
        assert!(manifest_cycle(&m).is_none());
        assert!(!m.edges.is_empty());
    }
}
