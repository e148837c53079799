//! Where the perf-baseline artifacts (`BENCH_*.json`) live.
//!
//! The benches, the serve selftest and the `perf_floor` reader all
//! resolve an artifact path the same way, so a writer and its reader
//! agree whatever directory cargo builds into:
//!
//! 1. the artifact's own override variable (`BENCH_SIM_JSON`, …), as given;
//! 2. `$CARGO_TARGET_DIR/<file>`, a relative target directory being taken
//!    relative to the workspace root;
//! 3. `<workspace>/target/<file>`.
//!
//! The workspace root is found at run time: the nearest directory, from
//! the current one upwards, whose `Cargo.toml` declares `[workspace]`
//! (cargo runs benches and tests from their package directory, inside
//! it). The current directory stands in when there is none. So a run in a
//! copied checkout writes into that copy, never into the checkout the
//! binary was first built in.

use std::ffi::OsString;
use std::path::{Path, PathBuf};

/// The path of baseline artifact `file` (e.g. `"BENCH_sim.json"`), with
/// `override_var` naming its override variable.
pub fn bench_json_path(override_var: &str, file: &str) -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    let root = workspace_root(&cwd).unwrap_or(&cwd);
    resolve(
        root,
        std::env::var_os(override_var),
        std::env::var_os("CARGO_TARGET_DIR"),
        file,
    )
}

/// The nearest ancestor of `start` (itself included) holding a
/// workspace manifest.
fn workspace_root(start: &Path) -> Option<&Path> {
    start.ancestors().find(|dir| {
        std::fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
    })
}

/// [`bench_json_path`] over an explicit workspace root and variable
/// values; an empty value counts as unset.
fn resolve(
    root: &Path,
    override_path: Option<OsString>,
    target_dir: Option<OsString>,
    file: &str,
) -> PathBuf {
    let set = |v: Option<OsString>| v.filter(|v| !v.is_empty());
    if let Some(path) = set(override_path) {
        return PathBuf::from(path);
    }
    let target = set(target_dir).map_or_else(|| PathBuf::from("target"), PathBuf::from);
    // `join` keeps an absolute target directory as it is.
    root.join(target).join(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os(s: &str) -> Option<OsString> {
        Some(OsString::from(s))
    }

    #[test]
    fn override_wins_over_target_dir() {
        let p = resolve(
            Path::new("/ws"),
            os("out/x.json"),
            os("/tmp/t"),
            "BENCH_sim.json",
        );
        assert_eq!(p, PathBuf::from("out/x.json"));
    }

    #[test]
    fn target_dir_absolute_and_relative() {
        let root = Path::new("/ws");
        let p = resolve(root, None, os("/tmp/t"), "BENCH_sim.json");
        assert_eq!(p, PathBuf::from("/tmp/t/BENCH_sim.json"));
        let p = resolve(root, None, os("build"), "BENCH_sim.json");
        assert_eq!(p, PathBuf::from("/ws/build/BENCH_sim.json"));
    }

    #[test]
    fn default_is_workspace_target_and_empty_means_unset() {
        let want = PathBuf::from("/ws/target/BENCH_serve.json");
        let root = Path::new("/ws");
        assert_eq!(resolve(root, None, None, "BENCH_serve.json"), want);
        assert_eq!(resolve(root, os(""), os(""), "BENCH_serve.json"), want);
        // Tests run from their package directory, inside this workspace.
        let cwd = std::env::current_dir().unwrap();
        let found = workspace_root(&cwd).expect("tests run inside the workspace");
        assert!(found.join("crates").is_dir());
    }

    #[test]
    fn the_walk_stops_at_the_nearest_workspace_manifest() {
        let tmp =
            std::env::temp_dir().join(format!("profirt-artifact-walk-{}", std::process::id()));
        let outer = tmp.join("outer");
        let copy = outer.join("copy");
        let member = copy.join("crates").join("bench");
        let deep = member.join("src");
        std::fs::create_dir_all(&deep).unwrap();
        std::fs::write(outer.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        std::fs::write(
            copy.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .unwrap();
        // A member manifest that only mentions the table is not a root.
        std::fs::write(
            member.join("Cargo.toml"),
            "[package]\nversion.workspace = true\n",
        )
        .unwrap();
        assert_eq!(workspace_root(&deep), Some(copy.as_path()));
        assert_eq!(workspace_root(&member), Some(copy.as_path()));
        assert_eq!(workspace_root(&copy), Some(copy.as_path()));
        assert_eq!(workspace_root(&outer), Some(outer.as_path()));
        std::fs::remove_file(outer.join("Cargo.toml")).unwrap();
        assert_ne!(workspace_root(&outer), Some(outer.as_path()));
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
