//! Fixture-driven tests for every profirt-lint rule class, plus the
//! workspace self-check that makes `cargo test -p profirt_lint` itself
//! a run of the gate.

use std::path::Path;

use profirt_lint::{allowlist_path, check, mask, scan_file, scan_workspace, Allowlist};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rules_of(findings: &[profirt_lint::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn panic_fixture_is_flagged_in_lib_scope() {
    let src = fixture("panic_sites.rs");
    let findings = scan_file("crates/core/src/fixture.rs", &src);
    assert_eq!(
        rules_of(&findings),
        vec!["panic", "panic", "panic"],
        "{findings:?}"
    );
    // Each construct is reported at its own line with the source excerpt.
    assert!(findings[0].excerpt.contains("x.unwrap()"));
    assert!(findings[1].excerpt.contains("x.expect("));
    assert!(findings[2].excerpt.contains("panic!("));
}

#[test]
fn panic_fixture_is_exempt_in_test_scope() {
    let src = fixture("panic_sites.rs");
    assert!(scan_file("crates/core/tests/fixture.rs", &src).is_empty());
}

#[test]
fn print_fixture_is_flagged_in_lib_scope_only() {
    let src = fixture("print_sites.rs");
    let lib = scan_file("crates/core/src/fixture.rs", &src);
    assert_eq!(rules_of(&lib), vec!["print", "print", "print"], "{lib:?}");
    // Bins may print (that's their job); the panic rule still applies
    // there, but this fixture has no panic sites.
    assert!(scan_file("src/bin/profirt/fixture.rs", &src).is_empty());
    assert!(scan_file("examples/fixture.rs", &src).is_empty());
}

#[test]
fn nondet_fixture_is_flagged_in_kernel_crates_only() {
    let src = fixture("nondet_time.rs");
    for kernel in [
        "crates/sim/src/fixture.rs",
        "crates/sched/src/fixture.rs",
        "crates/profibus/src/fixture.rs",
    ] {
        let findings = scan_file(kernel, &src);
        let nondet = findings.iter().filter(|f| f.rule == "nondet").count();
        assert!(nondet >= 4, "{kernel}: {findings:?}");
    }
    // Outside the kernels wall-clock use is the other rules' business.
    let elsewhere = scan_file("crates/experiments/src/fixture.rs", &src);
    assert!(
        elsewhere.iter().all(|f| f.rule != "nondet"),
        "{elsewhere:?}"
    );
}

#[test]
fn direct_sync_fixture_is_flagged_in_facade_scope_only() {
    let src = fixture("direct_sync.rs");
    for facade in [
        "crates/serve/src/fixture.rs",
        "crates/conc/src/exec.rs",
        "crates/experiments/src/runner.rs",
    ] {
        let findings = scan_file(facade, &src);
        let sync = findings.iter().filter(|f| f.rule == "sync").count();
        assert_eq!(sync, 3, "{facade}: {findings:?}");
    }
    let elsewhere = scan_file("crates/base/src/fixture.rs", &src);
    assert!(elsewhere.iter().all(|f| f.rule != "sync"), "{elsewhere:?}");
}

#[test]
fn mode_mutation_fixture_is_flagged_in_mode_scope_only() {
    let src = fixture("mode_mutation.rs");
    for scoped in [
        "crates/sim/src/network/fixture.rs",
        "crates/experiments/src/campaign/fixture.rs",
    ] {
        let findings = scan_file(scoped, &src);
        let mode = findings.iter().filter(|f| f.rule == "mode").count();
        assert_eq!(mode, 5, "{scoped}: {findings:?}");
    }
    // The comparison and the string/doc mentions never fire (masking +
    // the trailing-space anchor).
    let scoped = scan_file("crates/sim/src/network/fixture.rs", &src);
    assert!(
        scoped.iter().all(|f| !f.excerpt.contains("==")),
        "{scoped:?}"
    );
    // Outside the scope the same source is the other rules' business.
    let elsewhere = scan_file("crates/core/src/fixture.rs", &src);
    assert!(elsewhere.iter().all(|f| f.rule != "mode"), "{elsewhere:?}");
}

#[test]
fn bare_crate_root_fails_hygiene() {
    let src = fixture("bad_root.rs");
    let findings = scan_file("crates/base/src/lib.rs", &src);
    assert_eq!(rules_of(&findings), vec!["hygiene"], "{findings:?}");
    assert!(findings[0].excerpt.contains("forbid(unsafe_code)"));
    // A root that adopted missing_docs must keep both attributes.
    let adopted = scan_file("crates/workload/src/lib.rs", &src);
    assert_eq!(
        rules_of(&adopted),
        vec!["hygiene", "hygiene"],
        "{adopted:?}"
    );
}

#[test]
fn clean_fixture_produces_no_findings_anywhere() {
    let src = fixture("clean.rs");
    for path in [
        "crates/sim/src/lib.rs",
        "crates/conc/src/exec.rs",
        "crates/serve/src/fixture.rs",
        "crates/core/src/fixture.rs",
    ] {
        let findings = scan_file(path, &src);
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}

#[test]
fn masking_defuses_comments_strings_chars_and_lifetimes() {
    let masked = mask::mask_source(&fixture("clean.rs"));
    for banned in [
        ".unwrap()",
        "panic!(",
        "println!(",
        "dbg!(",
        "std::thread::",
    ] {
        let in_test_mod: Vec<&str> = masked.lines().filter(|l| l.contains(banned)).collect();
        // The only surviving occurrences sit inside the cfg(test) mod,
        // which cfg_test_lines then removes from consideration.
        let skipped = mask::cfg_test_lines(&masked);
        for line in in_test_mod {
            let line_no = masked.lines().position(|l| l == line).unwrap() + 1;
            assert!(
                skipped.contains(&line_no),
                "{banned} leaked at {line_no}: {line}"
            );
        }
    }
}

#[test]
fn allowlist_roundtrip_and_exact_count_semantics() {
    let src = fixture("panic_sites.rs");
    let findings = scan_file("crates/core/src/fixture.rs", &src);

    // Pinning exactly passes.
    let pinned = Allowlist::from_findings(&findings);
    assert!(check(&findings, &pinned).is_empty());

    // The rendered form parses back to the same allowlist.
    let reparsed = Allowlist::parse(&pinned.render()).unwrap();
    assert_eq!(reparsed, pinned);

    // One extra finding fails as a new violation.
    let mut extra = findings.clone();
    extra.push(findings[0].clone());
    let v = check(&extra, &pinned);
    assert_eq!(v.len(), 1);
    assert!(v[0].actual > v[0].pinned);
    assert!(!v[0].samples.is_empty());

    // One fewer fails as a stale pin (the ratchet goes both ways).
    let fewer = &findings[..findings.len() - 1];
    let v = check(fewer, &pinned);
    assert_eq!(v.len(), 1);
    assert!(v[0].actual < v[0].pinned);

    // Malformed allowlists are rejected with the line number.
    assert!(Allowlist::parse("panic only-two-fields").is_err());
    assert!(Allowlist::parse("panic a.rs not-a-number").is_err());
    assert!(Allowlist::parse("panic a.rs 1\npanic a.rs 2").is_err());
}

#[test]
fn workspace_is_clean_against_the_checked_in_allowlist() {
    // The gate itself, as a test: the tree must match profirt-lint.allow
    // exactly. If this fails after an intentional change, re-pin with
    // `cargo run -p profirt_lint -- --update-allowlist` and review the
    // diff like any other code change.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = scan_workspace(&root).unwrap();
    let allow = Allowlist::parse(&std::fs::read_to_string(allowlist_path(&root)).unwrap()).unwrap();
    let violations = check(&findings, &allow);
    assert!(
        violations.is_empty(),
        "workspace lint violations:\n{}",
        violations.iter().map(|v| v.to_string()).collect::<String>()
    );
}
