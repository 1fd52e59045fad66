//! The nws benchmark: seeded workloads that drive the real serving and
//! replay paths end to end, check their outputs, and (in the traced run)
//! split each workload's latency across the layers.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to read them.

pub mod instance;
pub mod layers;
pub mod replay;
pub mod report;
pub mod serving;
pub mod spans;
pub mod stats;

use std::path::{Path, PathBuf};

/// The run's scratch directory (state dirs, the trace file), removed when
/// dropped, and the directory span dumps are written to. Both lie under
/// the current directory.
pub struct Workdir {
    dir: PathBuf,
    out: PathBuf,
}

impl Workdir {
    /// Creates `.bench_work/<tag>-<pid>` under `root`; span dumps go to
    /// `root/.bench_out`.
    ///
    /// # Errors
    /// When the scratch directory cannot be created.
    pub fn create(root: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = root
            .join(".bench_work")
            .join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Workdir {
            dir,
            out: root.join(".bench_out"),
        })
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// A path inside the output directory, which is created on first use.
    pub fn out_path(&self, name: &str) -> PathBuf {
        let _ = std::fs::create_dir_all(&self.out);
        self.out.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Removes `.bench_work` itself once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["geant_write", "backbone_mixed", "backbone_replay"];

/// Runs `workload` and returns its report.
///
/// # Panics
/// On an unknown workload name (callers validate it first) and on any
/// failure of the program under test that leaves no result to report.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    work: &Workdir,
) -> report::Report {
    let mut report = report::Report::default();
    match workload {
        "geant_write" => serving::run(
            &serving::Plan::geant_write(seed, seconds),
            seconds,
            traced,
            work,
            &mut report,
        ),
        "backbone_mixed" => serving::run(
            &serving::Plan::backbone_mixed(seed, seconds),
            seconds,
            traced,
            work,
            &mut report,
        ),
        "backbone_replay" => replay::run(seed, seconds, traced, work, &mut report),
        other => panic!("unknown workload '{other}'"),
    }
    report
}
