//! Flow-level error type.

use std::fmt;

use exec::AbortReason;

use crate::events::{DeadlineScope, FlowStage};

/// Errors surfaced by the hierarchical flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Transistor-level simulation failed.
    Sim(spicesim::SimError),
    /// Table-model construction or lookup failed.
    Table(tablemodel::TableModelError),
    /// Behavioural PLL simulation failed.
    Pll(behavioral::timesim::SimulatePllError),
    /// A flow stage could not proceed (e.g. empty Pareto front).
    Stage {
        /// Stage name.
        stage: &'static str,
        /// Description of the problem.
        message: String,
    },
    /// A characterisation evaluation failed, with full provenance: the
    /// stage, the Pareto-point index within the (thinned) front, and —
    /// when a single Monte-Carlo sample is at fault — the sample index.
    Characterization {
        /// The stage that failed.
        stage: FlowStage,
        /// Index of the Pareto point within the thinned front.
        point: usize,
        /// Index of the failing Monte-Carlo sample, when attributable
        /// to one sample (`None` when the whole point failed).
        sample: Option<usize>,
        /// Description of the failure.
        message: String,
    },
    /// A checkpoint artifact could not be written, read or trusted.
    Checkpoint {
        /// Path of the offending file or directory.
        path: String,
        /// Description of the problem.
        message: String,
    },
    /// The run's cancellation token fired. Completed stages are already
    /// checkpointed; [`HierarchicalFlow::resume`](crate::flow::HierarchicalFlow::resume)
    /// picks the run back up.
    Cancelled {
        /// The stage that observed the cancellation.
        stage: FlowStage,
    },
    /// A stage or whole-run wall-clock budget expired. Completed stages
    /// are already checkpointed; the run is resumable.
    DeadlineExceeded {
        /// The stage that observed the expiry.
        stage: FlowStage,
        /// Which budget scope expired.
        scope: DeadlineScope,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Sim(e) => write!(f, "simulation: {e}"),
            FlowError::Table(e) => write!(f, "table model: {e}"),
            FlowError::Pll(e) => write!(f, "pll simulation: {e}"),
            FlowError::Stage { stage, message } => write!(f, "{stage} stage: {message}"),
            FlowError::Characterization {
                stage,
                point,
                sample,
                message,
            } => {
                write!(f, "{stage} stage: point {point}")?;
                if let Some(s) = sample {
                    write!(f, ", sample {s}")?;
                }
                write!(f, ": {message}")
            }
            FlowError::Checkpoint { path, message } => {
                write!(f, "checkpoint {path}: {message}")
            }
            FlowError::Cancelled { stage } => {
                write!(
                    f,
                    "{stage} stage: run cancelled (checkpoints preserved; resume to continue)"
                )
            }
            FlowError::DeadlineExceeded { stage, scope } => {
                write!(
                    f,
                    "{stage} stage: {scope} deadline exceeded \
                     (checkpoints preserved; resume to continue)"
                )
            }
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Sim(e) => Some(e),
            FlowError::Table(e) => Some(e),
            FlowError::Pll(e) => Some(e),
            FlowError::Stage { .. }
            | FlowError::Characterization { .. }
            | FlowError::Checkpoint { .. }
            | FlowError::Cancelled { .. }
            | FlowError::DeadlineExceeded { .. } => None,
        }
    }
}

impl From<spicesim::SimError> for FlowError {
    fn from(e: spicesim::SimError) -> Self {
        FlowError::Sim(e)
    }
}

impl From<tablemodel::TableModelError> for FlowError {
    fn from(e: tablemodel::TableModelError) -> Self {
        FlowError::Table(e)
    }
}

impl From<behavioral::timesim::SimulatePllError> for FlowError {
    fn from(e: behavioral::timesim::SimulatePllError) -> Self {
        FlowError::Pll(e)
    }
}

impl FlowError {
    /// Convenience constructor for stage errors.
    pub fn stage(stage: &'static str, message: impl Into<String>) -> Self {
        FlowError::Stage {
            stage,
            message: message.into(),
        }
    }

    /// Convenience constructor for characterisation errors with
    /// point/sample provenance.
    pub fn characterization(
        stage: FlowStage,
        point: usize,
        sample: Option<usize>,
        message: impl Into<String>,
    ) -> Self {
        FlowError::Characterization {
            stage,
            point,
            sample,
            message: message.into(),
        }
    }

    /// Convenience constructor for checkpoint errors.
    pub fn checkpoint(path: impl Into<String>, message: impl Into<String>) -> Self {
        FlowError::Checkpoint {
            path: path.into(),
            message: message.into(),
        }
    }

    /// The resumable error of a supervised batch of `stage` that stopped
    /// early. A batch only knows its own deadline, the earlier of the
    /// stage and run budgets, so an expiry reads at stage scope here;
    /// the flow names the whole-run budget when that is the one that ran
    /// out.
    pub(crate) fn aborted(stage: FlowStage, reason: AbortReason) -> Self {
        match reason {
            AbortReason::Cancelled => FlowError::Cancelled { stage },
            AbortReason::DeadlineExceeded => FlowError::DeadlineExceeded {
                stage,
                scope: DeadlineScope::Stage,
            },
        }
    }

    /// The failing stage, when the error knows one.
    pub fn flow_stage(&self) -> Option<FlowStage> {
        match self {
            FlowError::Characterization { stage, .. }
            | FlowError::Cancelled { stage }
            | FlowError::DeadlineExceeded { stage, .. } => Some(*stage),
            _ => None,
        }
    }

    /// Whether this error left the run in a resumable state: the stages
    /// completed so far are checkpointed and
    /// [`HierarchicalFlow::resume`](crate::flow::HierarchicalFlow::resume)
    /// continues from them (true for cancellations and expired
    /// deadlines).
    pub fn is_resumable_interruption(&self) -> bool {
        matches!(
            self,
            FlowError::Cancelled { .. } | FlowError::DeadlineExceeded { .. }
        )
    }

    /// The failing Pareto-point index, when the error carries one.
    pub fn point(&self) -> Option<usize> {
        match self {
            FlowError::Characterization { point, .. } => Some(*point),
            _ => None,
        }
    }

    /// The failing Monte-Carlo sample index, when attributable.
    pub fn sample(&self) -> Option<usize> {
        match self {
            FlowError::Characterization { sample, .. } => *sample,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: FlowError = spicesim::SimError::Singular { analysis: "dc" }.into();
        assert!(e.to_string().contains("dc"));
        let e = FlowError::stage("characterise", "empty front");
        assert!(e.to_string().contains("characterise"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowError>();
    }

    #[test]
    fn characterization_error_carries_provenance() {
        let e = FlowError::characterization(
            FlowStage::Characterize,
            3,
            Some(17),
            "injected singular matrix",
        );
        assert_eq!(e.flow_stage(), Some(FlowStage::Characterize));
        assert_eq!(e.point(), Some(3));
        assert_eq!(e.sample(), Some(17));
        let text = e.to_string();
        assert!(text.contains("characterise"));
        assert!(text.contains("point 3"));
        assert!(text.contains("sample 17"));

        let whole_point =
            FlowError::characterization(FlowStage::Characterize, 1, None, "whole point lost");
        assert_eq!(whole_point.sample(), None);
        assert!(!whole_point.to_string().contains("sample"));
        assert!(whole_point.to_string().contains("point 1"));
    }

    #[test]
    fn interruption_errors_carry_stage_and_resumability() {
        let c = FlowError::Cancelled {
            stage: FlowStage::Characterize,
        };
        assert!(c.is_resumable_interruption());
        assert_eq!(c.flow_stage(), Some(FlowStage::Characterize));
        assert!(c.to_string().contains("resume"), "{c}");

        let d = FlowError::DeadlineExceeded {
            stage: FlowStage::SystemOpt,
            scope: crate::events::DeadlineScope::Run,
        };
        assert!(d.is_resumable_interruption());
        assert_eq!(d.flow_stage(), Some(FlowStage::SystemOpt));
        assert!(d.to_string().contains("deadline exceeded"), "{d}");

        let s = FlowError::stage("verify", "broken");
        assert!(!s.is_resumable_interruption());
    }

    #[test]
    fn checkpoint_error_names_path() {
        let e = FlowError::checkpoint("/tmp/run/stage1_front.json", "corrupt json");
        assert!(e.to_string().contains("stage1_front.json"));
        assert_eq!(e.point(), None);
    }
}
