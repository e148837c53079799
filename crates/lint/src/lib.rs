//! # profirt-lint — the workspace determinism and hygiene gate
//!
//! A dependency-free source scanner (line/token level — no `syn`, no
//! parser) enforcing the rules that keep the analysis and simulation
//! kernels deterministic and the library code panic-disciplined:
//!
//! * **panic** — no `.unwrap()` / `.expect(` / `panic!(` in non-test
//!   library code. Existing sites are grandfathered in an exact-count
//!   allowlist; new ones (and stale pins) fail the gate.
//! * **print** — no `dbg!` / `println!` / `print!` / `eprintln!` /
//!   `eprint!` outside bins and tests (same allowlist mechanism — the
//!   campaign progress reporting is pinned, stray debug output is not).
//! * **nondet** — no `std::time::{Instant, SystemTime}`, `std::thread`,
//!   or `std::env` in the sim/sched/profibus kernels: simulated time
//!   and seeded RNG streams are the only clocks and entropy allowed.
//! * **sync** — no direct `std::sync::` in facade-routed concurrency
//!   code (the one-shot reply slot, the executor core, the seed runner,
//!   the serve engine): those files must synchronize through
//!   `profirt_conc::sync` so the model checker sees every primitive.
//! * **mode** — no direct mutation of mixed-criticality mode state
//!   (`degraded`, `degraded_at`, `over_streak`, `clean_since`) in the
//!   sim or experiments crates: the `ModeController` owns every
//!   transition. The controller's own impl (and the event-driven
//!   observer mirror) are pinned in the allowlist; any new assignment
//!   site fails the gate.
//! * **hygiene** — every crate root carries `#![forbid(unsafe_code)]`,
//!   and crates that adopted `#![deny(missing_docs)]` keep it.
//!
//! The scanner masks comments and string/char literals before matching
//! (a doc comment *mentioning* `panic!` is fine) and skips
//! `#[cfg(test)]` items entirely. Findings are deterministic: sorted by
//! rule, path, line — the allowlist file is a stable, reviewable
//! artifact.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod mask;

/// One rule hit at a specific source line (pre-allowlist).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Rule identifier (`panic`, `print`, `nondet`, `sync`, `mode`,
    /// `hygiene`).
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending (unmasked) source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.rule, self.path, self.line, self.excerpt
        )
    }
}

/// How a file participates in the build, derived from its path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FileClass {
    /// Integration tests, benches, fixtures — exempt from every rule.
    Test,
    /// Binary targets — prints allowed, panic discipline still applies.
    Bin,
    /// Library code — all rules apply.
    Lib,
}

fn classify(path: &str) -> FileClass {
    if path.contains("/tests/") || path.contains("/benches/") || path.starts_with("tests/") {
        FileClass::Test
    } else if path.contains("/src/bin/")
        || path.starts_with("src/bin/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
        || path.ends_with("src/main.rs")
    {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

/// True for files the panic/print rules cover: first-party library code.
/// The vendor stand-ins mirror external APIs and are out of scope —
/// their panics are the registry crates' problem.
fn first_party(path: &str) -> bool {
    !path.starts_with("vendor/")
}

/// Kernel crates where wall-clock time and OS nondeterminism are banned.
const KERNEL_PREFIXES: [&str; 3] = [
    "crates/sim/src/",
    "crates/sched/src/",
    "crates/profibus/src/",
];

/// Files that must route every sync primitive through `profirt_conc`.
const FACADE_PREFIXES: [&str; 4] = [
    "crates/conc/src/exec.rs",
    "crates/conc/src/oneshot.rs",
    "crates/experiments/src/runner.rs",
    "crates/serve/src/",
];

/// Crate roots that have adopted `#![deny(missing_docs)]`.
const MISSING_DOCS_ADOPTERS: [&str; 5] = [
    "crates/conc/src/lib.rs",
    "crates/experiments/src/lib.rs",
    "crates/lint/src/lib.rs",
    "crates/serve/src/lib.rs",
    "crates/workload/src/lib.rs",
];

const PANIC_PATTERNS: [&str; 3] = [".unwrap()", ".expect(", "panic!("];
const PRINT_PATTERNS: [&str; 5] = ["dbg!(", "println!(", "print!(", "eprintln!(", "eprint!("];
const NONDET_PATTERNS: [&str; 5] = [
    "std::time::",
    "Instant::",
    "SystemTime",
    "std::thread::",
    "std::env::",
];
const SYNC_PATTERNS: [&str; 1] = ["std::sync::"];

/// Crates where mode-state mutation is restricted to the controller.
const MODE_PREFIXES: [&str; 2] = ["crates/sim/src/", "crates/experiments/src/"];

/// Assignment forms of the controller's private state. Trailing spaces
/// keep comparisons (`.degraded ==`) from matching.
const MODE_PATTERNS: [&str; 5] = [
    ".degraded = ",
    ".degraded_at = ",
    ".over_streak = ",
    ".over_streak += ",
    ".clean_since = ",
];

/// Matches `pat` in `line` at identifier boundaries: the character
/// before the hit must not be part of an identifier (so `print!(` does
/// not fire inside `some_print!(`) — except for patterns that begin
/// with a non-identifier character like `.`, which anchor themselves.
fn hits(line: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(i) = line[from..].find(pat) {
        let at = from + i;
        let self_anchored = !pat
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let boundary = at == 0 || {
            let prev = line[..at].chars().next_back().unwrap_or(' ');
            !(prev.is_alphanumeric() || prev == '_')
        };
        if self_anchored || boundary {
            return true;
        }
        from = at + pat.len();
    }
    false
}

/// Scans one file's source, returning every rule hit. `path` is the
/// workspace-relative `/`-separated path; it drives rule scoping
/// exactly as [`scan_workspace`] would.
pub fn scan_file(path: &str, source: &str) -> Vec<Finding> {
    let class = classify(path);
    let mut findings = Vec::new();

    // Hygiene applies to crate roots regardless of masking; check on
    // the raw source (attributes are never inside comments).
    if path.ends_with("/src/lib.rs") || path == "src/lib.rs" {
        if !source.contains("#![forbid(unsafe_code)]") {
            findings.push(Finding {
                rule: "hygiene",
                path: path.to_string(),
                line: 1,
                excerpt: "crate root is missing #![forbid(unsafe_code)]".to_string(),
            });
        }
        if MISSING_DOCS_ADOPTERS.contains(&path) && !source.contains("#![deny(missing_docs)]") {
            findings.push(Finding {
                rule: "hygiene",
                path: path.to_string(),
                line: 1,
                excerpt: "crate root dropped #![deny(missing_docs)]".to_string(),
            });
        }
    }

    if class == FileClass::Test {
        return findings;
    }

    let masked = mask::mask_source(source);
    let skipped = mask::cfg_test_lines(&masked);
    let raw_lines: Vec<&str> = source.lines().collect();

    for (idx, line) in masked.lines().enumerate() {
        if skipped.contains(&(idx + 1)) {
            continue;
        }
        let mut push = |rule: &'static str| {
            findings.push(Finding {
                rule,
                path: path.to_string(),
                line: idx + 1,
                excerpt: raw_lines.get(idx).unwrap_or(&"").trim().to_string(),
            });
        };
        if class == FileClass::Lib && first_party(path) {
            if PANIC_PATTERNS.iter().any(|p| hits(line, p)) {
                push("panic");
            }
            if PRINT_PATTERNS.iter().any(|p| hits(line, p)) {
                push("print");
            }
        }
        if class == FileClass::Bin
            && first_party(path)
            && PANIC_PATTERNS.iter().any(|p| hits(line, p))
        {
            push("panic");
        }
        if KERNEL_PREFIXES.iter().any(|p| path.starts_with(p))
            && NONDET_PATTERNS.iter().any(|p| hits(line, p))
        {
            push("nondet");
        }
        if FACADE_PREFIXES.iter().any(|p| path.starts_with(p))
            && SYNC_PATTERNS.iter().any(|p| hits(line, p))
        {
            push("sync");
        }
        if MODE_PREFIXES.iter().any(|p| path.starts_with(p))
            && MODE_PATTERNS.iter().any(|p| hits(line, p))
        {
            push("mode");
        }
    }
    findings
}

/// Recursively collects the workspace's `.rs` files and scans each.
/// Findings come back sorted by (rule, path, line) — deterministic
/// across platforms and directory orders.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))?;
        findings.extend(scan_file(&rel.replace('\\', "/"), &source));
    }
    findings.sort();
    Ok(findings)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "out" | ".github") {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walk stays under root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// The exact-count allowlist: `(rule, path) -> pinned finding count`.
///
/// Grandfathered findings are *pinned*, not waved through: more hits
/// than pinned fails (new violation), fewer also fails (stale pin — the
/// ratchet must be tightened with `--update-allowlist`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Allowlist {
    entries: BTreeMap<(String, String), usize>,
}

impl Allowlist {
    /// Parses the allowlist format: one `rule path count` triple per
    /// line; `#` comments and blank lines ignored.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (rule, path, count) = (parts.next(), parts.next(), parts.next());
            let (Some(rule), Some(path), Some(count), None) = (rule, path, count, parts.next())
            else {
                return Err(format!(
                    "allowlist line {}: expected `rule path count`, got {line:?}",
                    idx + 1
                ));
            };
            let count: usize = count
                .parse()
                .map_err(|_| format!("allowlist line {}: bad count {count:?}", idx + 1))?;
            if entries
                .insert((rule.to_string(), path.to_string()), count)
                .is_some()
            {
                return Err(format!(
                    "allowlist line {}: duplicate entry for {rule} {path}",
                    idx + 1
                ));
            }
        }
        Ok(Self { entries })
    }

    /// Builds the allowlist that would make `findings` pass exactly.
    pub fn from_findings(findings: &[Finding]) -> Self {
        let mut entries = BTreeMap::new();
        for f in findings {
            *entries
                .entry((f.rule.to_string(), f.path.clone()))
                .or_insert(0) += 1;
        }
        Self { entries }
    }

    /// Renders the stable on-disk form (sorted, with a header comment).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# profirt-lint allowlist: exact pinned counts of grandfathered findings.\n\
             # Regenerate with: cargo run -p profirt_lint -- --update-allowlist\n\
             # More hits than pinned = new violation; fewer = stale pin. Both fail.\n",
        );
        for ((rule, path), count) in &self.entries {
            out.push_str(&format!("{rule} {path} {count}\n"));
        }
        out
    }
}

/// One gate failure: a (rule, path) whose finding count deviates from
/// its pin (0 when unpinned).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// Findings actually present.
    pub actual: usize,
    /// Findings pinned in the allowlist.
    pub pinned: usize,
    /// Up to three offending lines for the report.
    pub samples: Vec<Finding>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.actual > self.pinned {
            writeln!(
                f,
                "{} {}: {} finding(s), {} pinned — new violation(s):",
                self.rule, self.path, self.actual, self.pinned
            )?;
            for s in &self.samples {
                writeln!(f, "    {}:{}: {}", s.path, s.line, s.excerpt)?;
            }
        } else {
            writeln!(
                f,
                "{} {}: {} finding(s), {} pinned — stale pin, tighten the allowlist",
                self.rule, self.path, self.actual, self.pinned
            )?;
        }
        Ok(())
    }
}

/// Compares findings against the allowlist; empty result = gate passes.
pub fn check(findings: &[Finding], allow: &Allowlist) -> Vec<Violation> {
    let mut actual: BTreeMap<(String, String), Vec<&Finding>> = BTreeMap::new();
    for f in findings {
        actual
            .entry((f.rule.to_string(), f.path.clone()))
            .or_default()
            .push(f);
    }
    let mut violations = Vec::new();
    let mut keys: Vec<(String, String)> =
        actual.keys().chain(allow.entries.keys()).cloned().collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let got = actual.get(&key).map_or(0, |v| v.len());
        let pinned = allow.entries.get(&key).copied().unwrap_or(0);
        if got != pinned {
            violations.push(Violation {
                rule: key.0.clone(),
                path: key.1.clone(),
                actual: got,
                pinned,
                samples: actual
                    .get(&key)
                    .map(|v| v.iter().take(3).map(|f| (*f).clone()).collect())
                    .unwrap_or_default(),
            });
        }
    }
    violations
}

/// Default allowlist location relative to the workspace root.
pub const ALLOWLIST_FILE: &str = "profirt-lint.allow";

/// Resolves the allowlist path under `root`.
pub fn allowlist_path(root: &Path) -> PathBuf {
    root.join(ALLOWLIST_FILE)
}
