//! Shared plumbing for the experiment harnesses. Every table and figure
//! binary is a view over one checkpointed run of the hierarchical flow:
//! [`Budget`] names the flow preset (`--full` = paper scale), and the
//! run lives in `target/experiments/<budget>/`, so the first binary runs
//! the flow and every later one loads its stage checkpoints.

use std::path::PathBuf;

use hierflow::charmodel::CharacterizedFront;
use hierflow::checkpoint::{RunDir, STAGE2_CHARACTERIZED};
use hierflow::{FlowConfig, FlowError, FlowReport, HierarchicalFlow};

/// Experiment budget, selected by the `--full` CLI flag: a name for one
/// of the flow's presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// [`FlowConfig::quick`]: 32 × 10 circuit GA, 12-sample
    /// characterisation of at most 10 points, 48 × 24 system GA and
    /// 40-sample verification. The first binary runs the flow in about
    /// 7 s on 2 vCPUs.
    Quick,
    /// [`FlowConfig::paper_scale`], the paper's budgets (§4.2–4.5):
    /// 100 × 30 circuit GA, 100-sample characterisation of at most 24
    /// points, 64 × 40 system GA and 500-sample verification. The first
    /// binary runs the flow in about 73 s on 2 vCPUs.
    Full,
}

impl Budget {
    /// Reads the budget from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Budget::Full
        } else {
            Budget::Quick
        }
    }

    /// Label used in the run directory name and printouts.
    pub fn label(self) -> &'static str {
        match self {
            Budget::Quick => "quick",
            Budget::Full => "full",
        }
    }

    /// The flow configuration this budget names.
    pub fn config(self) -> FlowConfig {
        match self {
            Budget::Quick => FlowConfig::quick(),
            Budget::Full => FlowConfig::paper_scale(),
        }
    }

    fn run_dir(self) -> PathBuf {
        artifact_dir().join(self.label())
    }

    /// Runs the flow at this budget with checkpoints in
    /// `target/experiments/<budget>/`: stages whose artifacts are
    /// already there are loaded, not recomputed. The directory refuses
    /// artifacts from another configuration but cannot detect a code
    /// change, so regenerate a record from an empty directory.
    fn run(self) -> Result<FlowReport, FlowError> {
        let dir = self.run_dir();
        eprintln!(
            "{} flow in {} (checkpointed stages are loaded)...",
            self.label(),
            dir.display()
        );
        HierarchicalFlow::new(self.config()).run_with_checkpoints(dir)
    }

    /// The completed flow run at this budget. Prints the failure and
    /// exits with status 1 when a stage fails.
    pub fn report(self) -> FlowReport {
        self.run().unwrap_or_else(|e| {
            println!("# the {} flow failed: {e}", self.label());
            std::process::exit(1)
        })
    }

    /// The characterised front of the run at this budget. When stage 3,
    /// 4 or 5 fails, the front is read from the run's stage-2
    /// checkpoint, so the binaries that need only the front still
    /// print. Exits with status 1 when there is no front.
    pub fn front(self) -> CharacterizedFront {
        let err = match self.run() {
            Ok(report) => return report.front,
            Err(e) => e,
        };
        // A checkpoint error can mean the directory belongs to another
        // configuration, whose front is not this budget's.
        let stage2 = match &err {
            FlowError::Checkpoint { .. } => None,
            _ => RunDir::create(self.run_dir())
                .and_then(|dir| dir.load::<CharacterizedFront>(STAGE2_CHARACTERIZED))
                .ok()
                .flatten(),
        };
        match stage2 {
            Some(front) => {
                eprintln!(
                    "the {} flow failed: {err}; its stage-2 front is used",
                    self.label()
                );
                front
            }
            None => {
                eprintln!(
                    "the {} flow has no characterised front: {err}",
                    self.label()
                );
                std::process::exit(1)
            }
        }
    }
}

/// Directory holding one run directory per budget.
fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_labels_and_scaling() {
        assert_eq!(Budget::Quick.label(), "quick");
        assert_eq!(Budget::Full.label(), "full");
        let full = Budget::Full.config();
        assert_eq!(full.circuit_ga.population, 100);
        assert_eq!(full.circuit_ga.generations, 30);
        assert_eq!(full.char_mc.samples, 100);
        assert_eq!(full.verify_mc.samples, 500);
        assert!(Budget::Quick.config().char_mc.samples < 100);
    }

    #[test]
    fn artifact_dir_is_created() {
        let d = artifact_dir();
        assert!(d.exists());
        assert!(Budget::Quick.run_dir().starts_with(&d));
    }
}
