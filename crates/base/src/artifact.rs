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

use std::ffi::OsString;
use std::path::{Path, PathBuf};

/// The path of baseline artifact `file` (e.g. `"BENCH_sim.json"`), with
/// `override_var` naming its override variable.
pub fn bench_json_path(override_var: &str, file: &str) -> PathBuf {
    resolve(
        std::env::var_os(override_var),
        std::env::var_os("CARGO_TARGET_DIR"),
        file,
    )
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> &'static Path {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap_or(manifest)
}

/// [`bench_json_path`] over explicit variable values; an empty value
/// counts as unset.
fn resolve(override_path: Option<OsString>, target_dir: Option<OsString>, file: &str) -> PathBuf {
    let set = |v: Option<OsString>| v.filter(|v| !v.is_empty());
    if let Some(path) = set(override_path) {
        return PathBuf::from(path);
    }
    let target = set(target_dir).map_or_else(|| PathBuf::from("target"), PathBuf::from);
    // `join` keeps an absolute target directory as it is.
    workspace_root().join(target).join(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os(s: &str) -> Option<OsString> {
        Some(OsString::from(s))
    }

    #[test]
    fn override_wins_over_target_dir() {
        let p = resolve(os("out/x.json"), os("/tmp/t"), "BENCH_sim.json");
        assert_eq!(p, PathBuf::from("out/x.json"));
    }

    #[test]
    fn target_dir_absolute_and_relative() {
        let p = resolve(None, os("/tmp/t"), "BENCH_sim.json");
        assert_eq!(p, PathBuf::from("/tmp/t/BENCH_sim.json"));
        let p = resolve(None, os("build"), "BENCH_sim.json");
        assert_eq!(p, workspace_root().join("build/BENCH_sim.json"));
    }

    #[test]
    fn default_is_workspace_target_and_empty_means_unset() {
        let want = workspace_root().join("target/BENCH_serve.json");
        assert_eq!(resolve(None, None, "BENCH_serve.json"), want);
        assert_eq!(resolve(os(""), os(""), "BENCH_serve.json"), want);
        assert!(workspace_root().join("Cargo.toml").is_file());
    }
}
