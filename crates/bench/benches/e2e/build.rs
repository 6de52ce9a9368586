//! Records the compiler version and, when built from a git checkout of
//! the repository, its commit, for the host block every result carries.

use std::path::{Path, PathBuf};
use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// The commit of the repository this package sits in, if it is the top
/// of a git work tree (and not merely inside some other repository).
fn commit(repo: &Path) -> Option<String> {
    let repo_arg = repo.to_str()?;
    let top = output("git", &["-C", repo_arg, "rev-parse", "--show-toplevel"])?;
    if PathBuf::from(top).canonicalize().ok()? != repo.canonicalize().ok()? {
        return None;
    }
    let head = output("git", &["-C", repo_arg, "rev-parse", "--short=12", "HEAD"])?;
    let dirty = output(
        "git",
        &[
            "-C",
            repo_arg,
            "status",
            "--porcelain",
            "--untracked-files=no",
        ],
    )
    .is_some();
    Some(if dirty { format!("{head}+dirty") } else { head })
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets it"));
    let repo = manifest.join("../../../..");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = commit(&repo).unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    println!("cargo:rustc-env=E2E_BENCH_RUSTC={version}");
    println!("cargo:rustc-env=E2E_BENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    let git = repo.join(".git");
    if git.exists() {
        println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
        println!("cargo:rerun-if-changed={}", git.join("index").display());
    }
}
