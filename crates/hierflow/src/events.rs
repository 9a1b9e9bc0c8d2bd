//! Structured per-run event log: what each stage did, which points were
//! skipped or retried, which checkpoints were written or reused.
//!
//! The flow appends [`FlowEvent`]s as it executes; the log rides along
//! in [`crate::flow::FlowReport`], is persisted to `events.json` in the
//! checkpoint directory, and is printed by the example and bench
//! binaries. Long paper-scale runs degrade gracefully (points skipped,
//! solvers relaxed) — the event log is how those silent decisions stay
//! visible afterwards.

use std::fmt;

use evalcache::EvalCache;
use exec::PoolStats;
use serde::{Deserialize, Serialize};

/// The five stages of the hierarchical flow (paper Fig 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowStage {
    /// Stage 1: circuit-level multi-objective sizing.
    CircuitOpt,
    /// Stage 2: Monte-Carlo characterisation of the Pareto front.
    Characterize,
    /// Stage 3: combined performance + variation table model.
    Model,
    /// Stage 4: system-level optimisation with the model in the loop.
    SystemOpt,
    /// Stage 5: spec propagation and bottom-up verification.
    Verify,
}

impl FlowStage {
    /// Stable lower-case stage name (used in error messages and
    /// checkpoint file names).
    pub fn name(self) -> &'static str {
        match self {
            FlowStage::CircuitOpt => "circuit-opt",
            FlowStage::Characterize => "characterise",
            FlowStage::Model => "model",
            FlowStage::SystemOpt => "system-opt",
            FlowStage::Verify => "verify",
        }
    }
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One entry in the per-run event log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlowEvent {
    /// A stage began computing (not emitted when its checkpoint is
    /// reused).
    StageStarted {
        /// The stage.
        stage: FlowStage,
    },
    /// A stage finished computing.
    StageFinished {
        /// The stage.
        stage: FlowStage,
    },
    /// A stage's artifact was written to the checkpoint directory.
    CheckpointSaved {
        /// The stage.
        stage: FlowStage,
        /// Artifact file name within the run directory.
        file: String,
    },
    /// A stage was skipped because its artifact was already present.
    CheckpointLoaded {
        /// The stage.
        stage: FlowStage,
        /// Artifact file name within the run directory.
        file: String,
    },
    /// A Pareto point was dropped: in characterisation under a
    /// degradation policy, in verification when the in-loop check of
    /// a candidate's characterised performance rejected it.
    PointSkipped {
        /// The stage.
        stage: FlowStage,
        /// Index of the point within the stage's front: the (thinned)
        /// circuit-level front, or the system-level front in
        /// verification.
        point: usize,
        /// Why it was dropped.
        reason: String,
    },
    /// A failed point is being re-characterised with relaxed solver
    /// options.
    RetryAttempted {
        /// The stage.
        stage: FlowStage,
        /// Index of the point within the (thinned) front.
        point: usize,
        /// Retry number (1 = first retry).
        attempt: usize,
    },
    /// Some (but not all) Monte-Carlo samples of a point failed; the
    /// point survived.
    SampleFailures {
        /// The stage.
        stage: FlowStage,
        /// Index of the point within the (thinned) front.
        point: usize,
        /// Failing sample indices.
        samples: Vec<usize>,
        /// Total samples drawn.
        total: usize,
    },
    /// One task (a Monte-Carlo sample or GA candidate) blew its
    /// per-task wall-clock deadline; its result was discarded.
    TaskTimedOut {
        /// The stage.
        stage: FlowStage,
        /// Pareto-point index, when the task belongs to one.
        point: Option<usize>,
        /// Task index within its batch (sample or candidate index).
        task: usize,
        /// Observed duration in milliseconds.
        elapsed_ms: u64,
        /// The per-task limit in milliseconds.
        limit_ms: u64,
    },
    /// Scheduling summary of one supervised batch: worker utilisation,
    /// stolen-task count (work a static chunking would have stranded on
    /// a slow worker), retries, timeouts.
    PoolBatch {
        /// The stage.
        stage: FlowStage,
        /// Pareto-point index, when the batch belongs to one.
        point: Option<usize>,
        /// Tasks in the batch.
        tasks: usize,
        /// Worker threads used.
        workers: usize,
        /// Tasks executed per worker.
        per_worker: Vec<usize>,
        /// Tasks executed by a different worker than static chunking
        /// would have assigned.
        stolen: usize,
        /// Retry attempts performed.
        retries: usize,
        /// Per-task deadline overruns.
        timeouts: usize,
    },
    /// Evaluation memo-cache counters after a stage's batch of work
    /// (only emitted when the flow's cache is enabled; see
    /// [`crate::flow::CacheConfig`]). Counters are cumulative over the
    /// cache's lifetime, which spans every stage sharing it.
    CacheStats {
        /// The stage whose work the snapshot follows.
        stage: FlowStage,
        /// In-memory cache hits.
        hits: u64,
        /// Misses (evaluations actually performed).
        misses: u64,
        /// Hits served by the on-disk tier (subset of `hits`).
        disk_hits: u64,
        /// Entries evicted from the in-memory tier.
        evictions: u64,
    },
    /// The run's cancellation token fired; the stage stopped claiming
    /// work and the run ended (resumable from its checkpoints).
    RunCancelled {
        /// The stage that observed the cancellation.
        stage: FlowStage,
    },
    /// A wall-clock budget expired and the run ended (resumable from
    /// its checkpoints).
    BudgetExhausted {
        /// The stage that observed the expiry.
        stage: FlowStage,
        /// Which budget scope expired.
        scope: DeadlineScope,
    },
    /// A checkpoint artifact (or the event log itself) was present but
    /// unreadable — truncated, garbage, or written by an incompatible
    /// version. The file has been quarantined (renamed aside) and the
    /// stage recomputed; resume degrades, it never panics and never
    /// builds a report from a half-trusted artifact.
    CheckpointCorrupt {
        /// The stage whose artifact was corrupt; `None` when the event
        /// log itself (which belongs to no single stage) was the
        /// casualty.
        stage: Option<FlowStage>,
        /// Artifact file name within the run directory.
        file: String,
        /// Parse or I/O error text.
        reason: String,
    },
    /// An event this build does not recognise — typically one written
    /// into `events.json` by a newer flow version. The raw payload is
    /// preserved verbatim, so loading and re-persisting an event log
    /// never drops a future variant's history.
    #[serde(other)]
    Unrecognized(serde::Value),
}

/// Which wall-clock budget scope expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeadlineScope {
    /// A single task's deadline.
    Task,
    /// A stage's deadline.
    Stage,
    /// The whole-run deadline.
    Run,
}

impl fmt::Display for DeadlineScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeadlineScope::Task => "per-task",
            DeadlineScope::Stage => "per-stage",
            DeadlineScope::Run => "whole-run",
        })
    }
}

impl fmt::Display for FlowEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowEvent::StageStarted { stage } => write!(f, "[{stage}] started"),
            FlowEvent::StageFinished { stage } => write!(f, "[{stage}] finished"),
            FlowEvent::CheckpointSaved { stage, file } => {
                write!(f, "[{stage}] checkpoint saved: {file}")
            }
            FlowEvent::CheckpointLoaded { stage, file } => {
                write!(f, "[{stage}] checkpoint reused: {file}")
            }
            FlowEvent::PointSkipped {
                stage,
                point,
                reason,
            } => write!(f, "[{stage}] point {point} skipped: {reason}"),
            FlowEvent::RetryAttempted {
                stage,
                point,
                attempt,
            } => write!(
                f,
                "[{stage}] point {point}: retry {attempt} with relaxed solver options"
            ),
            FlowEvent::SampleFailures {
                stage,
                point,
                samples,
                total,
            } => write!(
                f,
                "[{stage}] point {point}: {}/{} monte-carlo samples failed (indices {:?})",
                samples.len(),
                total,
                samples
            ),
            FlowEvent::TaskTimedOut {
                stage,
                point,
                task,
                elapsed_ms,
                limit_ms,
            } => {
                write!(f, "[{stage}] ")?;
                if let Some(p) = point {
                    write!(f, "point {p}, ")?;
                }
                write!(
                    f,
                    "task {task}: timed out ({elapsed_ms} ms against a {limit_ms} ms deadline)"
                )
            }
            FlowEvent::PoolBatch {
                stage,
                point,
                tasks,
                workers,
                per_worker,
                stolen,
                retries,
                timeouts,
            } => {
                write!(f, "[{stage}] ")?;
                if let Some(p) = point {
                    write!(f, "point {p}: ")?;
                }
                write!(
                    f,
                    "pool ran {tasks} tasks on {workers} workers \
                     (per-worker {per_worker:?}, {stolen} stolen, \
                     {retries} retries, {timeouts} timeouts)"
                )
            }
            FlowEvent::CacheStats {
                stage,
                hits,
                misses,
                disk_hits,
                evictions,
            } => write!(
                f,
                "[{stage}] eval cache: {hits} hits ({disk_hits} from disk), \
                 {misses} misses, {evictions} evictions"
            ),
            FlowEvent::RunCancelled { stage } => {
                write!(f, "[{stage}] run cancelled (resumable from checkpoints)")
            }
            FlowEvent::BudgetExhausted { stage, scope } => {
                write!(
                    f,
                    "[{stage}] {scope} deadline exceeded (resumable from checkpoints)"
                )
            }
            FlowEvent::CheckpointCorrupt {
                stage,
                file,
                reason,
            } => {
                match stage {
                    Some(s) => write!(f, "[{s}] ")?,
                    None => write!(f, "[run] ")?,
                }
                write!(
                    f,
                    "corrupt checkpoint {file} quarantined, recomputing: {reason}"
                )
            }
            FlowEvent::Unrecognized(value) => {
                write!(
                    f,
                    "[unknown] unrecognised event (newer flow version?): {value:?}"
                )
            }
        }
    }
}

/// The per-run event log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlowEvents {
    events: Vec<FlowEvent>,
}

impl FlowEvents {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. When telemetry is active, the event is also
    /// mirrored into the trace as an annotation on the current span,
    /// carrying its index in this log so `events.json` entries and
    /// `trace.jsonl` spans correlate.
    pub fn push(&mut self, event: FlowEvent) {
        if telemetry::enabled() {
            telemetry::event_indexed(self.events.len(), &event.to_string());
        }
        self.events.push(event);
    }

    /// All events, in order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowEvent> {
        self.events.iter()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Indices of points skipped during `stage`.
    pub fn skipped_points(&self, stage: FlowStage) -> Vec<usize> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FlowEvent::PointSkipped {
                    stage: s, point, ..
                } if *s == stage => Some(*point),
                _ => None,
            })
            .collect()
    }

    /// Whether a stage's checkpoint was reused instead of recomputed.
    pub fn stage_resumed(&self, stage: FlowStage) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FlowEvent::CheckpointLoaded { stage: s, .. } if *s == stage))
    }

    /// Number of per-task deadline overruns recorded during `stage`.
    pub fn task_timeouts(&self, stage: FlowStage) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FlowEvent::TaskTimedOut { stage: s, .. } if *s == stage))
            .count()
    }

    /// The last evaluation-cache snapshot recorded during `stage`, as
    /// `(hits, misses, disk_hits, evictions)`. `None` when the stage
    /// ran without a cache (or was resumed from its checkpoint).
    pub fn cache_stats(&self, stage: FlowStage) -> Option<(u64, u64, u64, u64)> {
        self.events.iter().rev().find_map(|e| match e {
            FlowEvent::CacheStats {
                stage: s,
                hits,
                misses,
                disk_hits,
                evictions,
            } if *s == stage => Some((*hits, *misses, *disk_hits, *evictions)),
            _ => None,
        })
    }

    /// The `(file, reason)` pairs of every quarantined-checkpoint
    /// event, in order — the provenance trail a degraded resume leaves
    /// behind.
    pub fn checkpoint_corruptions(&self) -> Vec<(String, String)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FlowEvent::CheckpointCorrupt { file, reason, .. } => {
                    Some((file.clone(), reason.clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// Records the scheduling statistics of one supervised batch of
    /// `stage` (of Pareto point `point`, when the batch belongs to one).
    pub(crate) fn record_pool(
        &mut self,
        stage: FlowStage,
        point: Option<usize>,
        stats: &PoolStats,
    ) {
        self.push(FlowEvent::PoolBatch {
            stage,
            point,
            tasks: stats.tasks,
            workers: stats.workers,
            per_worker: stats.per_worker.clone(),
            stolen: stats.stolen,
            retries: stats.retries,
            timeouts: stats.timeouts,
        });
    }

    /// Snapshots an evaluation cache's counters after `stage`'s work;
    /// records nothing when the stage ran without a cache.
    pub(crate) fn record_cache<V>(&mut self, stage: FlowStage, cache: Option<&EvalCache<V>>)
    where
        V: Clone + Serialize + Deserialize,
    {
        if let Some(cache) = cache {
            let s = cache.stats();
            self.push(FlowEvent::CacheStats {
                stage,
                hits: s.hits,
                misses: s.misses,
                disk_hits: s.disk_hits,
                evictions: s.evictions,
            });
        }
    }

    /// Whether the run was interrupted (cancelled or out of budget) —
    /// the conditions under which the checkpoint directory is worth
    /// resuming.
    pub fn interrupted(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                FlowEvent::RunCancelled { .. } | FlowEvent::BudgetExhausted { .. }
            )
        })
    }
}

impl fmt::Display for FlowEvents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_and_queries() {
        let mut log = FlowEvents::new();
        assert!(log.is_empty());
        log.push(FlowEvent::StageStarted {
            stage: FlowStage::Characterize,
        });
        log.push(FlowEvent::PointSkipped {
            stage: FlowStage::Characterize,
            point: 3,
            reason: "all samples failed".into(),
        });
        log.push(FlowEvent::CheckpointLoaded {
            stage: FlowStage::CircuitOpt,
            file: "stage1_front.json".into(),
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.skipped_points(FlowStage::Characterize), vec![3]);
        assert!(log.stage_resumed(FlowStage::CircuitOpt));
        assert!(!log.stage_resumed(FlowStage::SystemOpt));
        let text = log.to_string();
        assert!(text.contains("point 3 skipped"));
        assert!(text.contains("checkpoint reused"));
    }

    #[test]
    fn log_round_trips_through_json() {
        let mut log = FlowEvents::new();
        log.push(FlowEvent::SampleFailures {
            stage: FlowStage::Characterize,
            point: 1,
            samples: vec![0, 4],
            total: 10,
        });
        log.push(FlowEvent::RetryAttempted {
            stage: FlowStage::Characterize,
            point: 1,
            attempt: 1,
        });
        log.push(FlowEvent::CacheStats {
            stage: FlowStage::CircuitOpt,
            hits: 12,
            misses: 340,
            disk_hits: 3,
            evictions: 0,
        });
        let text = serde_json::to_string(&log).unwrap();
        let back: FlowEvents = serde_json::from_str(&text).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn unknown_event_variants_survive_a_round_trip() {
        // A hand-crafted `events.json` fragment from a hypothetical
        // future flow version: one variant this build has never heard
        // of, mixed in with known ones. Loading must not error, the
        // foreign payload must be preserved verbatim, and re-persisting
        // must write it back out unchanged.
        let text = r#"{"events": [
            {"StageStarted": {"stage": "CircuitOpt"}},
            {"WarpDriveEngaged": {"stage": "CircuitOpt", "dilithium": 7, "notes": ["a", "b"]}},
            "QuantumFlush",
            {"StageFinished": {"stage": "CircuitOpt"}}
        ]}"#;
        let log: FlowEvents = serde_json::from_str(text).expect("future variants must not error");
        assert_eq!(log.len(), 4);
        assert_eq!(
            log.iter().next(),
            Some(&FlowEvent::StageStarted {
                stage: FlowStage::CircuitOpt
            })
        );
        let unknown: Vec<&FlowEvent> = log
            .iter()
            .filter(|e| matches!(e, FlowEvent::Unrecognized(_)))
            .collect();
        assert_eq!(unknown.len(), 2, "both foreign shapes are caught");
        // Display never panics on foreign payloads.
        assert!(log.to_string().contains("unrecognised event"));
        // Round trip: the foreign payloads re-serialise verbatim.
        let reserialized = serde_json::to_string(&log).unwrap();
        assert!(reserialized.contains("WarpDriveEngaged"));
        assert!(reserialized.contains("dilithium"));
        assert!(reserialized.contains("QuantumFlush"));
        let back: FlowEvents = serde_json::from_str(&reserialized).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn cache_stats_query_returns_latest_snapshot_per_stage() {
        let mut log = FlowEvents::new();
        assert!(log.cache_stats(FlowStage::CircuitOpt).is_none());
        log.push(FlowEvent::CacheStats {
            stage: FlowStage::CircuitOpt,
            hits: 1,
            misses: 9,
            disk_hits: 0,
            evictions: 0,
        });
        log.push(FlowEvent::CacheStats {
            stage: FlowStage::Characterize,
            hits: 50,
            misses: 50,
            disk_hits: 20,
            evictions: 2,
        });
        assert_eq!(log.cache_stats(FlowStage::CircuitOpt), Some((1, 9, 0, 0)));
        assert_eq!(
            log.cache_stats(FlowStage::Characterize),
            Some((50, 50, 20, 2))
        );
        assert!(log.cache_stats(FlowStage::Verify).is_none());
        let text = log.to_string();
        assert!(
            text.contains("eval cache: 50 hits (20 from disk)"),
            "{text}"
        );
    }
}
