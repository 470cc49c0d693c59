//! Shared by the xtask goldens: fixture rendering through the library
//! and a throwaway workspace tree for driving the real `xtask` binary.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// The diagnostics of one source text under a virtual path, rendered.
pub(crate) fn rendered(rel_path: &str, text: &str) -> Vec<String> {
    xtask::lint_source(rel_path, text)
        .iter()
        .map(|d| d.to_string())
        .collect()
}

pub(crate) struct TempTree {
    pub root: PathBuf,
}

impl TempTree {
    pub(crate) fn new(case: &str) -> TempTree {
        let root = std::env::temp_dir().join(format!("xtask-golden-{}-{case}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create temp tree");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("write manifest");
        TempTree { root }
    }

    pub(crate) fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("rel path has a parent")).expect("mkdir");
        fs::write(path, text).expect("write fixture");
    }

    /// Run `xtask <verb> --root <tree>`; returns the exit code, stdout and
    /// stderr.
    pub(crate) fn run(&self, verb: &str) -> (i32, String, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args([verb, "--root"])
            .arg(&self.root)
            .output()
            .expect("run xtask binary");
        (
            out.status.code().expect("exit code"),
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
            String::from_utf8(out.stderr).expect("utf-8 stderr"),
        )
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}
