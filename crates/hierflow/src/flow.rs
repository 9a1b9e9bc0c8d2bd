//! End-to-end orchestration of the hierarchical flow (paper Fig 4),
//! with stage checkpointing, graceful degradation and a structured
//! event log.
//!
//! [`HierarchicalFlow::run`] executes all five stages in memory.
//! [`HierarchicalFlow::run_with_checkpoints`] additionally persists each
//! stage's artifact to a run directory (see [`crate::checkpoint`]), and
//! [`HierarchicalFlow::resume`] picks a run back up from whatever
//! artifacts the directory already holds — a crash mid-verification no
//! longer costs the circuit-level GA budget.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use behavioral::spec::PllSpec;
use behavioral::timesim::LockSimConfig;
use evalcache::{EvalCache, KeyQuantiser};
use exec::{AbortReason, CancelToken, Deadline, ExecPolicy, PoolStats, RunBudget};
use moea::nsga2::{run_nsga2_cached, Nsga2Config};
use moea::problem::{Evaluation, Individual};
use netlist::topology::VcoSizing;
use serde::Serialize;
use variation::mc::{McConfig, MonteCarlo};
use variation::process::ProcessSpec;
use variation::yields::RiskObjective;

use crate::charmodel::{characterize_front_cached, CharacterizedFront};
use crate::checkpoint::{
    self, config_digest, LoadOutcome, RunDir, Stage1Artifact, Stage4Artifact, Stage5Artifact,
};
use crate::error::FlowError;
use crate::events::{DeadlineScope, FlowEvent, FlowEvents, FlowStage};
use crate::faults::FaultInjector;
use crate::model::PerfVariationModel;
use crate::policy::DegradePolicy;
use crate::propagate::select_verified_design;
use crate::system_opt::{PllArchitecture, PllSystemProblem, SystemSolution};
use crate::vco_eval::VcoTestbench;
use crate::vco_problem::VcoSizingProblem;
use crate::verify::{verify_design, VerificationReport};

/// Evaluation memo-cache settings (the [`evalcache`] crate wired into
/// the flow's hot evaluation paths: the stage-1 GA and stage-2
/// Monte-Carlo characterisation).
///
/// Disabled by default: caching is a pure-speed opt-in — results are
/// bit-identical either way, which
/// [`FlowConfig::digest`] relies on when it canonicalises these
/// settings out of the checkpoint manifest. The
/// `HIERSIZER_EVALCACHE` environment variable (`1`/`0`) overrides
/// [`CacheConfig::enabled`] at run time.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Master switch (default `false`).
    pub enabled: bool,
    /// In-memory entries held per cache (two caches exist: GA
    /// evaluations and Monte-Carlo sample metrics).
    pub capacity: usize,
    /// Design-coordinate quantum for key derivation; `0.0` keys on the
    /// exact bit pattern, guaranteeing hits are bit-identical replays.
    pub quantum: f64,
    /// Mirror entries under `<run dir>/evalcache/` so a resumed run
    /// reuses individual evaluations, not just whole stage artifacts.
    /// Only takes effect when the flow runs with checkpoints (or when
    /// [`CacheConfig::shared_disk`] names an explicit store).
    pub disk: bool,
    /// Root of a disk store *shared across runs* (the optimisation
    /// daemon points every job of a tenant here). Overrides the per-run
    /// `<run dir>/evalcache/` location; safe because entries are
    /// content-addressed by the canonical config digest, so runs under
    /// different configurations can never serve each other's values.
    /// Ignored unless [`CacheConfig::disk`] is set.
    pub shared_disk: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: false,
            capacity: 65_536,
            quantum: 0.0,
            disk: true,
            shared_disk: None,
        }
    }
}

impl CacheConfig {
    /// An enabled cache with the default capacity/quantum/disk tier.
    pub fn enabled() -> Self {
        CacheConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// Telemetry settings (the [`telemetry`] crate wired through the five
/// stages: hierarchical span tracing, a metrics registry and a per-run
/// profile report).
///
/// Disabled by default: telemetry is pure observation — results, cache
/// keys and the checkpoint config digest are bit-identical either way,
/// which [`FlowConfig::digest`] relies on when it canonicalises these
/// settings out of the manifest. The `HIERSIZER_TELEMETRY` environment
/// variable (`1`/`0`) overrides [`TelemetryConfig::enabled`] at run
/// time. When the run executes with checkpoints, the trace lands in
/// `trace.jsonl` and the profile in `metrics.json` next to
/// `events.json` in the run directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch (default `false`).
    pub enabled: bool,
    /// How many of the slowest characterisation points the profile
    /// report keeps.
    pub top_points: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            top_points: 10,
        }
    }
}

impl TelemetryConfig {
    /// An enabled telemetry configuration with default report settings.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// Complete configuration of the hierarchical flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Transistor-level VCO testbench.
    pub testbench: VcoTestbench,
    /// Circuit-level NSGA-II settings (paper: 100 × 30).
    pub circuit_ga: Nsga2Config,
    /// Monte-Carlo settings per Pareto point (paper: 100 samples).
    pub char_mc: McConfig,
    /// Statistical process description.
    pub process: ProcessSpec,
    /// PLL architecture around the optimised components.
    pub arch: PllArchitecture,
    /// System-level specification window.
    pub spec: PllSpec,
    /// System-level NSGA-II settings.
    pub system_ga: Nsga2Config,
    /// Behavioural lock-simulation settings.
    pub lock_sim: LockSimConfig,
    /// Final verification Monte-Carlo settings (paper: 500 samples).
    pub verify_mc: McConfig,
    /// Cap on characterised Pareto points (cost control; the front is
    /// thinned evenly along the supply-current axis).
    pub max_char_points: usize,
    /// What to do when a Pareto point fails Monte-Carlo
    /// characterisation (see [`DegradePolicy`]).
    pub degrade: DegradePolicy,
    /// Wall-clock budgets (per task, per stage, whole run) and retry
    /// policy for the supervised execution pool. Unlimited by default.
    pub budget: RunBudget,
    /// Evaluation memo-cache settings. Disabled by default; purely a
    /// speed knob — results are bit-identical either way.
    pub cache: CacheConfig,
    /// Telemetry settings. Disabled by default; pure observation —
    /// results are bit-identical either way.
    pub telemetry: TelemetryConfig,
    /// Risk posture of the system-level optimisation: the σ-multiplier
    /// applied to the ∆-table corners (see
    /// [`variation::yields::RiskObjective`]). `NominalSpread` (the
    /// default) reproduces the paper's nominal ± 1σ corners
    /// bit-for-bit.
    pub risk: RiskObjective,
}

impl FlowConfig {
    /// Paper-scale budgets: pop 100 × 30 generations at circuit level,
    /// 100 MC samples per Pareto point, 500-sample verification.
    /// Expect hours of CPU — use [`FlowConfig::quick`] for development.
    pub fn paper_scale() -> Self {
        FlowConfig {
            testbench: VcoTestbench::default(),
            circuit_ga: Nsga2Config {
                population: 100,
                generations: 30,
                seed: 2009,
                eval_threads: 2,
                axial_seeds: true,
                ..Default::default()
            },
            char_mc: McConfig {
                samples: 100,
                seed: 42,
                threads: 2,
                sampler: variation::sampler::SamplerKind::PlainMc,
            },
            process: ProcessSpec::default(),
            arch: PllArchitecture::default(),
            spec: PllSpec::default(),
            system_ga: Nsga2Config {
                population: 64,
                generations: 40,
                seed: 7,
                eval_threads: 2,
                axial_seeds: true,
                ..Default::default()
            },
            lock_sim: LockSimConfig::default(),
            verify_mc: McConfig {
                samples: 500,
                seed: 99,
                threads: 2,
                sampler: variation::sampler::SamplerKind::PlainMc,
            },
            max_char_points: 24,
            // Long runs absorb solver hiccups: retry with relaxed
            // options, then drop the point, but never model fewer than
            // a third of the budgeted front.
            degrade: DegradePolicy::RetryRelaxed {
                max_retries: 2,
                min_surviving_points: 8,
            },
            budget: RunBudget::unlimited(),
            cache: CacheConfig::default(),
            telemetry: TelemetryConfig::default(),
            risk: RiskObjective::NominalSpread,
        }
    }

    /// Development-scale budgets: the same flow, minutes instead of
    /// hours. Fronts are coarser but every stage runs for real.
    pub fn quick() -> Self {
        let mut cfg = Self::paper_scale();
        cfg.circuit_ga.population = 32;
        cfg.circuit_ga.generations = 10;
        cfg.char_mc.samples = 12;
        cfg.system_ga.population = 48;
        cfg.system_ga.generations = 24;
        cfg.verify_mc.samples = 40;
        cfg.max_char_points = 10;
        cfg.degrade = DegradePolicy::default();
        cfg
    }

    /// Stable digest of this configuration, used by the checkpoint
    /// manifest to refuse mixing artifacts across configurations.
    /// Wall-clock budgets shape *when* a run stops, never *what* it
    /// computes — and an interrupted run is typically resumed with a
    /// larger budget — so they are excluded from the digest. The memo
    /// cache is excluded for the same reason: cached and uncached runs
    /// produce bit-identical artifacts, and a run is often resumed with
    /// caching newly enabled to speed up the replay.
    fn digest(&self) -> u64 {
        let mut canon = self.clone();
        canon.budget = RunBudget::unlimited();
        canon.cache = CacheConfig::default();
        canon.telemetry = TelemetryConfig::default();
        config_digest(&format!("{canon:?}"))
    }
}

/// Everything the flow produced, stage by stage.
#[derive(Debug, Clone, Serialize)]
pub struct FlowReport {
    /// Characterised circuit-level Pareto front (Table 1 data).
    pub front: CharacterizedFront,
    /// System-level Pareto front rows (Table 2 data).
    pub system_front: Vec<SystemSolution>,
    /// The selected design solution (the paper's shaded row).
    pub selected: SystemSolution,
    /// Decision vector of the selected solution.
    pub selected_x: Vec<f64>,
    /// Transistor sizing recovered by spec propagation.
    pub final_sizing: VcoSizing,
    /// Bottom-up verification outcome (yield, paper §4.5).
    pub verification: VerificationReport,
    /// Transistor-level evaluations spent in stage 1 (from the stage-1
    /// artifact; unchanged when the stage was resumed from checkpoint).
    pub circuit_evaluations: usize,
    /// Transistor-level GA evaluations actually performed by *this*
    /// run — 0 when stage 1 was loaded from a checkpoint.
    pub circuit_evaluations_this_run: usize,
    /// Model-based evaluations spent in stage 4.
    pub system_evaluations: usize,
    /// Structured log of what this run did: stages computed or resumed,
    /// points skipped, retries attempted.
    pub events: FlowEvents,
    /// Wall-clock time per stage, in execution order. Always populated
    /// (cheap monotonic-clock reads, no telemetry required); resumed
    /// stages report their checkpoint-load time.
    pub stage_wall: Vec<telemetry::report::StageProfile>,
    /// Per-run telemetry profile (stage breakdown, slowest points,
    /// solver-vs-overhead split, metrics). `None` unless the run
    /// executed with telemetry enabled.
    pub profile: Option<telemetry::report::RunProfile>,
}

/// The flow orchestrator.
#[derive(Debug, Clone)]
pub struct HierarchicalFlow {
    config: FlowConfig,
    faults: Option<FaultInjector>,
    cancel: CancelToken,
}

impl HierarchicalFlow {
    /// Creates a flow with the given configuration.
    pub fn new(config: FlowConfig) -> Self {
        HierarchicalFlow {
            config,
            faults: None,
            cancel: CancelToken::new(),
        }
    }

    /// Installs a deterministic [`FaultInjector`] on the
    /// characterisation stage (failure-semantics testing).
    pub fn with_fault_injector(mut self, faults: FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Installs a cooperative cancellation token. Firing it makes the
    /// run stop claiming work at the next task boundary, flush its
    /// event log and checkpoints, and return a resumable
    /// [`FlowError::Cancelled`].
    pub fn with_cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Runs all five stages end to end, in memory (no checkpoints).
    ///
    /// # Errors
    ///
    /// Propagates stage errors: an empty Pareto front, model-domain
    /// failures, no spec-compliant system solution, or a broken final
    /// design. Under [`DegradePolicy::Strict`], also any failed
    /// Monte-Carlo sample (with point/sample provenance).
    pub fn run(&self) -> Result<FlowReport, FlowError> {
        self.execute(None)
    }

    /// Runs the flow, persisting each stage's artifact into `dir` as it
    /// completes. Stages whose artifacts are already present in `dir`
    /// are loaded instead of recomputed, so this doubles as the resume
    /// entry point.
    ///
    /// # Errors
    ///
    /// As [`HierarchicalFlow::run`]; additionally
    /// [`FlowError::Checkpoint`] when the directory is unusable, holds
    /// a corrupt artifact, or was produced by a different configuration.
    pub fn run_with_checkpoints<P: AsRef<Path>>(&self, dir: P) -> Result<FlowReport, FlowError> {
        let run_dir = RunDir::create(dir)?;
        if let Some(aside) = run_dir.ensure_manifest(self.config.digest())? {
            // The manifest was unreadable: every artifact was swept
            // aside with it (nothing could be attributed to a
            // configuration). Seed the fresh event log with the
            // provenance record — `execute_stages` picks it up from
            // disk like any other resumed log.
            let mut events = FlowEvents::new();
            events.push(FlowEvent::CheckpointCorrupt {
                stage: None,
                file: checkpoint::MANIFEST_FILE.to_string(),
                reason: format!(
                    "manifest unreadable; run directory reset, corrupt bytes at {}",
                    aside.display()
                ),
            });
            run_dir.save(checkpoint::EVENTS_FILE, &events)?;
        }
        self.execute(Some(&run_dir))
    }

    /// Resumes a checkpointed run: stages with artifacts in `dir` are
    /// skipped (their artifacts loaded), the rest computed and
    /// checkpointed. Identical to [`HierarchicalFlow::run_with_checkpoints`] —
    /// a fresh directory runs everything, a partial one resumes.
    ///
    /// # Errors
    ///
    /// As [`HierarchicalFlow::run_with_checkpoints`].
    pub fn resume<P: AsRef<Path>>(&self, dir: P) -> Result<FlowReport, FlowError> {
        self.run_with_checkpoints(dir)
    }

    /// Runs the five stages under an optional telemetry recorder. The
    /// recorder is installed for the duration of the stage pipeline (a
    /// `run` span wraps it), then — success or failure alike — the
    /// trace and profile are flushed to the run directory before the
    /// result surfaces. Telemetry observes, it never alters: the
    /// returned artifacts are bit-identical with and without it.
    fn execute(&self, dir: Option<&RunDir>) -> Result<FlowReport, FlowError> {
        let telemetry_on = telemetry::enabled_from_env(self.config.telemetry.enabled);
        let recorder = telemetry_on.then(telemetry::Recorder::new);
        let mut result = {
            let _install = recorder.as_ref().map(|r| r.install());
            let _run_span = telemetry::span("run");
            self.execute_stages(dir)
        };
        if let Some(rec) = &recorder {
            let profile = telemetry::report::build(rec, self.config.telemetry.top_points);
            if let Some(d) = dir {
                // Flushes are best-effort: a full disk must not turn a
                // finished run into an error.
                let _ = rec.write_trace(d.path().join(checkpoint::TRACE_FILE));
                let _ = d.save(checkpoint::METRICS_FILE, &profile);
            }
            if let Ok(report) = &mut result {
                report.profile = Some(profile);
            }
        }
        result
    }

    fn execute_stages(&self, dir: Option<&RunDir>) -> Result<FlowReport, FlowError> {
        let cfg = &self.config;
        let mut events = match dir {
            Some(d) => match d.load_or_quarantine::<FlowEvents>(checkpoint::EVENTS_FILE) {
                LoadOutcome::Loaded(ev) => ev,
                LoadOutcome::Absent => FlowEvents::new(),
                // A smashed event log loses history, never the run: start
                // a fresh log whose first entry records the loss.
                LoadOutcome::Quarantined { reason, .. } => {
                    let mut ev = FlowEvents::new();
                    ev.push(FlowEvent::CheckpointCorrupt {
                        stage: None,
                        file: checkpoint::EVENTS_FILE.to_string(),
                        reason,
                    });
                    ev
                }
            },
            None => FlowEvents::new(),
        };

        // A stage failure must not lose the event log: persist it
        // best-effort before surfacing the error.
        macro_rules! bail_on_err {
            ($result:expr) => {
                match $result {
                    Ok(v) => v,
                    Err(e) => {
                        let _ = persist_events(dir, &events);
                        return Err(e);
                    }
                }
            };
        }

        // The whole-run deadline starts ticking here; each stage's
        // batch deadline is the earlier of its own stage budget and
        // whatever remains of the run budget.
        let run_deadline = cfg.budget.run.map(Deadline::after);
        let stage_policy = || ExecPolicy {
            // 0 = inherit each stage's own configured thread count.
            threads: 0,
            task_deadline: cfg.budget.task,
            batch_deadline: Deadline::earliest(cfg.budget.stage.map(Deadline::after), run_deadline),
            cancel: self.cancel.clone(),
            retry: cfg.budget.retry,
        };

        // An aborted supervised batch becomes a resumable flow error,
        // with the interruption recorded (and persisted) first.
        macro_rules! bail_abort {
            ($result:expr, $stage:expr) => {
                match $result {
                    Ok(v) => v,
                    Err(AbortReason::Cancelled) => {
                        events.push(FlowEvent::RunCancelled { stage: $stage });
                        let _ = persist_events(dir, &events);
                        return Err(FlowError::Cancelled { stage: $stage });
                    }
                    Err(AbortReason::DeadlineExceeded) => {
                        let scope = if run_deadline.is_some_and(|d| d.expired()) {
                            DeadlineScope::Run
                        } else {
                            DeadlineScope::Stage
                        };
                        events.push(FlowEvent::BudgetExhausted {
                            stage: $stage,
                            scope,
                        });
                        let _ = persist_events(dir, &events);
                        return Err(FlowError::DeadlineExceeded {
                            stage: $stage,
                            scope,
                        });
                    }
                }
            };
        }

        // Cancellation and the run budget are also polled between
        // stages, so a token fired during a non-supervised section
        // still stops the run at the next stage boundary.
        macro_rules! check_interrupt {
            ($stage:expr) => {
                if self.cancel.poll() {
                    events.push(FlowEvent::RunCancelled { stage: $stage });
                    let _ = persist_events(dir, &events);
                    return Err(FlowError::Cancelled { stage: $stage });
                }
                if run_deadline.is_some_and(|d| d.expired()) {
                    events.push(FlowEvent::BudgetExhausted {
                        stage: $stage,
                        scope: DeadlineScope::Run,
                    });
                    let _ = persist_events(dir, &events);
                    return Err(FlowError::DeadlineExceeded {
                        stage: $stage,
                        scope: DeadlineScope::Run,
                    });
                }
            };
        }

        // Evaluation memo caches (opt-in, bit-identical): one for the
        // stage-1 GA's objective evaluations, one for the stage-2
        // Monte-Carlo sample metrics. Both key off the canonical config
        // digest, so a shared disk directory never serves entries
        // computed under a different configuration.
        let cache_on = evalcache::enabled_from_env(cfg.cache.enabled);
        let quantiser = if cfg.cache.quantum > 0.0 {
            KeyQuantiser::with_quantum(cfg.cache.quantum)
        } else {
            KeyQuantiser::exact()
        };
        let config_dig = cfg.digest();
        let circuit_cache: Option<EvalCache<Evaluation>> =
            cache_on.then(|| build_cache(&cfg.cache, quantiser, config_dig, "circuit", dir));
        let char_cache: Option<EvalCache<Vec<f64>>> =
            cache_on.then(|| build_cache(&cfg.cache, quantiser, config_dig, "char", dir));

        // Snapshots a cache's counters into the event log after a
        // stage's batch of work.
        macro_rules! record_cache {
            ($stage:expr, $cache:expr) => {
                if let Some(c) = $cache {
                    let s = c.stats();
                    events.push(FlowEvent::CacheStats {
                        stage: $stage,
                        hits: s.hits,
                        misses: s.misses,
                        disk_hits: s.disk_hits,
                        evictions: s.evictions,
                    });
                }
            };
        }

        // Records a GA stage's aggregated pool statistics.
        macro_rules! record_pool {
            ($stage:expr, $stats:expr) => {{
                let stats: &PoolStats = $stats;
                events.push(FlowEvent::PoolBatch {
                    stage: $stage,
                    point: None,
                    tasks: stats.tasks,
                    workers: stats.workers,
                    per_worker: stats.per_worker.clone(),
                    stolen: stats.stolen,
                    retries: stats.retries,
                    timeouts: stats.timeouts,
                });
            }};
        }

        // Wraps one stage in a telemetry span and an always-on wall
        // clock. The clock is plain `Instant` arithmetic — it reads no
        // RNG and feeds nothing back into the stages, so results stay
        // bit-identical whether or not anyone looks at the timings.
        let mut stage_wall: Vec<telemetry::report::StageProfile> = Vec::new();
        macro_rules! timed_stage {
            ($stage:expr, $body:expr) => {{
                let _stage_span = telemetry::span("stage").attr("stage", $stage.name());
                let stage_start = std::time::Instant::now();
                let value = $body;
                stage_wall.push(telemetry::report::StageProfile {
                    stage: $stage.name().to_string(),
                    wall_us: stage_start.elapsed().as_micros() as u64,
                });
                value
            }};
        }

        // Stage 1: circuit-level multi-objective sizing, with the
        // system band propagated down as coverage constraints (Fig 3).
        let mut circuit_evaluations_this_run = 0;
        let stage1 = timed_stage!(
            FlowStage::CircuitOpt,
            match load_artifact::<Stage1Artifact>(
                dir,
                checkpoint::STAGE1_FRONT,
                FlowStage::CircuitOpt,
                &mut events,
            )? {
                Some(artifact) => artifact,
                None => {
                    check_interrupt!(FlowStage::CircuitOpt);
                    events.push(FlowEvent::StageStarted {
                        stage: FlowStage::CircuitOpt,
                    });
                    let problem = VcoSizingProblem::with_band(
                        cfg.testbench.clone(),
                        cfg.spec.f_out_min,
                        cfg.spec.f_out_max,
                    );
                    let result = bail_abort!(
                        run_nsga2_cached(
                            &problem,
                            &cfg.circuit_ga,
                            &[],
                            &stage_policy(),
                            circuit_cache.as_ref(),
                        ),
                        FlowStage::CircuitOpt
                    );
                    record_pool!(FlowStage::CircuitOpt, &result.pool);
                    record_cache!(FlowStage::CircuitOpt, &circuit_cache);
                    circuit_evaluations_this_run = result.evaluations;
                    let mut front = result.pareto_front();
                    if front.is_empty() {
                        let _ = persist_events(dir, &events);
                        return Err(FlowError::stage(
                            FlowStage::CircuitOpt.name(),
                            "circuit-level optimisation produced no feasible designs",
                        ));
                    }
                    thin_front(&mut front, cfg.max_char_points);
                    events.push(FlowEvent::StageFinished {
                        stage: FlowStage::CircuitOpt,
                    });
                    let artifact = Stage1Artifact {
                        front,
                        evaluations: result.evaluations,
                    };
                    bail_on_err!(save_artifact(
                        dir,
                        checkpoint::STAGE1_FRONT,
                        FlowStage::CircuitOpt,
                        &artifact,
                        &mut events,
                    ));
                    artifact
                }
            }
        );
        bail_on_err!(persist_events(dir, &events));

        // Stage 2: Monte-Carlo characterisation of the front, under the
        // configured degradation policy.
        let engine = MonteCarlo::new(cfg.process);
        let characterized = timed_stage!(
            FlowStage::Characterize,
            match load_artifact::<CharacterizedFront>(
                dir,
                checkpoint::STAGE2_CHARACTERIZED,
                FlowStage::Characterize,
                &mut events,
            )? {
                Some(artifact) => artifact,
                None => {
                    check_interrupt!(FlowStage::Characterize);
                    events.push(FlowEvent::StageStarted {
                        stage: FlowStage::Characterize,
                    });
                    let characterized = bail_on_err!(characterize_front_cached(
                        &stage1.front,
                        &cfg.testbench,
                        &engine,
                        &cfg.char_mc,
                        cfg.degrade,
                        self.faults.as_ref(),
                        &stage_policy(),
                        char_cache.as_ref(),
                        &mut events,
                    ));
                    record_cache!(FlowStage::Characterize, &char_cache);
                    events.push(FlowEvent::StageFinished {
                        stage: FlowStage::Characterize,
                    });
                    bail_on_err!(save_artifact(
                        dir,
                        checkpoint::STAGE2_CHARACTERIZED,
                        FlowStage::Characterize,
                        &characterized,
                        &mut events,
                    ));
                    characterized
                }
            }
        );
        bail_on_err!(persist_events(dir, &events));

        // Stage 3: the combined performance + variation model. Rebuilt
        // every run — cheap, and its spline internals do not serialise.
        let model = timed_stage!(FlowStage::Model, {
            events.push(FlowEvent::StageStarted {
                stage: FlowStage::Model,
            });
            let model = Arc::new(bail_on_err!(PerfVariationModel::from_front(&characterized)));
            events.push(FlowEvent::StageFinished {
                stage: FlowStage::Model,
            });
            model
        });

        // Stage 4: system-level optimisation with the model in the loop.
        let system_problem =
            PllSystemProblem::new(Arc::clone(&model), cfg.arch, cfg.spec, cfg.lock_sim)
                .with_risk(cfg.risk);
        let stage4 = timed_stage!(
            FlowStage::SystemOpt,
            match load_artifact::<Stage4Artifact>(
                dir,
                checkpoint::STAGE4_SYSTEM,
                FlowStage::SystemOpt,
                &mut events,
            )? {
                Some(artifact) => artifact,
                None => {
                    check_interrupt!(FlowStage::SystemOpt);
                    events.push(FlowEvent::StageStarted {
                        stage: FlowStage::SystemOpt,
                    });
                    // Model-based evaluations are cheap; the memo cache is
                    // reserved for the transistor-level stages.
                    let system_result = bail_abort!(
                        run_nsga2_cached(
                            &system_problem,
                            &cfg.system_ga,
                            &system_problem.warm_start_seeds(),
                            &stage_policy(),
                            None,
                        ),
                        FlowStage::SystemOpt
                    );
                    record_pool!(FlowStage::SystemOpt, &system_result.pool);
                    let system_front = system_result.pareto_front();
                    let rows: Vec<SystemSolution> = system_front
                        .iter()
                        .filter_map(|ind| system_problem.detail(&ind.x).ok())
                        .collect();
                    events.push(FlowEvent::StageFinished {
                        stage: FlowStage::SystemOpt,
                    });
                    let artifact = Stage4Artifact {
                        front: system_front,
                        rows,
                        evaluations: system_result.evaluations,
                    };
                    bail_on_err!(save_artifact(
                        dir,
                        checkpoint::STAGE4_SYSTEM,
                        FlowStage::SystemOpt,
                        &artifact,
                        &mut events,
                    ));
                    artifact
                }
            }
        );
        bail_on_err!(persist_events(dir, &events));

        // Stage 5: spec propagation with verification-in-the-loop
        // (Fig 3's two-way arrows), then bottom-up Monte Carlo.
        let stage5 = timed_stage!(
            FlowStage::Verify,
            match load_artifact::<Stage5Artifact>(
                dir,
                checkpoint::STAGE5_SELECTED,
                FlowStage::Verify,
                &mut events,
            )? {
                Some(artifact) => artifact,
                None => {
                    check_interrupt!(FlowStage::Verify);
                    events.push(FlowEvent::StageStarted {
                        stage: FlowStage::Verify,
                    });
                    let picked = bail_on_err!(select_verified_design(
                        &system_problem,
                        &stage4.front,
                        &model,
                        &cfg.testbench,
                        &cfg.arch,
                        &cfg.spec,
                        &cfg.lock_sim,
                        12,
                        &mut events,
                    ));
                    let verification = bail_on_err!(verify_design(
                        &picked.sizing,
                        (picked.solution.c1, picked.solution.c2, picked.solution.r1),
                        &cfg.testbench,
                        &cfg.arch,
                        &cfg.spec,
                        &engine,
                        &cfg.verify_mc,
                        &cfg.lock_sim,
                        &stage_policy(),
                        &mut events,
                    ));
                    events.push(FlowEvent::StageFinished {
                        stage: FlowStage::Verify,
                    });
                    let artifact = Stage5Artifact {
                        x: picked.x,
                        solution: picked.solution,
                        sizing: picked.sizing,
                        verification,
                    };
                    bail_on_err!(save_artifact(
                        dir,
                        checkpoint::STAGE5_SELECTED,
                        FlowStage::Verify,
                        &artifact,
                        &mut events,
                    ));
                    artifact
                }
            }
        );
        bail_on_err!(persist_events(dir, &events));

        Ok(FlowReport {
            front: characterized,
            system_front: stage4.rows,
            selected: stage5.solution,
            selected_x: stage5.x,
            final_sizing: stage5.sizing,
            verification: stage5.verification,
            circuit_evaluations: stage1.evaluations,
            circuit_evaluations_this_run,
            system_evaluations: stage4.evaluations,
            events,
            stage_wall,
            profile: None,
        })
    }
}

/// Builds one evaluation memo cache, attaching the on-disk tier under
/// `<run dir>/evalcache/<tag>` when checkpointing is active and the
/// config asks for it. The `tag` is folded into the config digest so
/// the GA and Monte-Carlo caches can never serve each other's entries
/// even if their design vectors collide. An unusable disk directory
/// degrades to memory-only caching — the cache is an optimisation, not
/// a correctness dependency.
fn build_cache<V: Clone + serde::Serialize + serde::Deserialize>(
    cfg: &CacheConfig,
    quantiser: KeyQuantiser,
    config_digest: u64,
    tag: &str,
    dir: Option<&RunDir>,
) -> EvalCache<V> {
    let digest = evalcache::fnv1a_extend(config_digest, tag.as_bytes());
    let cache = EvalCache::new(cfg.capacity, quantiser, digest);
    let path = if !cfg.disk {
        None
    } else if let Some(root) = &cfg.shared_disk {
        Some(root.join(tag))
    } else {
        dir.map(|d| d.path().join("evalcache").join(tag))
    };
    match path {
        Some(path) => cache
            .with_disk(&path)
            .unwrap_or_else(|_| EvalCache::new(cfg.capacity, quantiser, digest)),
        None => cache,
    }
}

/// Loads a stage artifact from the run directory (when checkpointing is
/// active and the file exists), recording the reuse in the event log. A
/// present-but-corrupt artifact — truncated by a torn write that dodged
/// the atomic rename, or smashed by real disk trouble — is quarantined
/// and recorded as a [`FlowEvent::CheckpointCorrupt`], and the stage is
/// recomputed: resume degrades, it never refuses to run and never
/// builds a report from half-trusted bytes. The `Result` is kept for
/// call-site symmetry with [`save_artifact`]; it is currently always
/// `Ok`.
fn load_artifact<T: serde::Deserialize>(
    dir: Option<&RunDir>,
    file: &str,
    stage: FlowStage,
    events: &mut FlowEvents,
) -> Result<Option<T>, FlowError> {
    let Some(d) = dir else {
        return Ok(None);
    };
    match d.load_or_quarantine::<T>(file) {
        LoadOutcome::Loaded(value) => {
            events.push(FlowEvent::CheckpointLoaded {
                stage,
                file: file.to_string(),
            });
            Ok(Some(value))
        }
        LoadOutcome::Absent => Ok(None),
        LoadOutcome::Quarantined { reason, .. } => {
            events.push(FlowEvent::CheckpointCorrupt {
                stage: Some(stage),
                file: file.to_string(),
                reason,
            });
            Ok(None)
        }
    }
}

/// Saves a stage artifact to the run directory (when checkpointing is
/// active), recording the write in the event log.
fn save_artifact<T: serde::Serialize>(
    dir: Option<&RunDir>,
    file: &str,
    stage: FlowStage,
    value: &T,
    events: &mut FlowEvents,
) -> Result<(), FlowError> {
    if let Some(d) = dir {
        d.save(file, value)?;
        events.push(FlowEvent::CheckpointSaved {
            stage,
            file: file.to_string(),
        });
    }
    Ok(())
}

/// Persists the event log to the run directory (when checkpointing is
/// active), so interrupted runs keep their history.
fn persist_events(dir: Option<&RunDir>, events: &FlowEvents) -> Result<(), FlowError> {
    match dir {
        Some(d) => d.save(checkpoint::EVENTS_FILE, events),
        None => Ok(()),
    }
}

/// Thins a front to at most `max_points`, spread evenly along the
/// supply-current axis (`objectives[1]`): with the band constraint
/// active every feasible design covers the frequency band, so current
/// orders the power/jitter trade-off the system level explores, and an
/// even spread along it keeps both the leanest and the fastest designs.
/// `max_points == 0` disables thinning; `max_points == 1` keeps the
/// lowest-current design.
fn thin_front(front: &mut Vec<Individual>, max_points: usize) {
    if front.len() <= max_points || max_points == 0 {
        return;
    }
    front.sort_by(|a, b| {
        a.objectives[1]
            .partial_cmp(&b.objectives[1])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let n = front.len();
    // `max(1)` keeps the stride denominator non-zero when a single
    // point is requested (k is then always 0 → the lowest-current one).
    let denom = (max_points - 1).max(1);
    let picked: Vec<Individual> = (0..max_points)
        .map(|k| front[k * (n - 1) / denom].clone())
        .collect();
    *front = picked;
}

#[cfg(test)]
mod tests {
    use super::*;
    use moea::problem::Evaluation;

    fn ind(current_obj: f64) -> Individual {
        Individual::new(
            vec![0.0],
            Evaluation::feasible(vec![0.0, current_obj, 0.0, 0.0, 0.0]),
        )
    }

    #[test]
    fn thinning_keeps_extremes() {
        let mut front: Vec<Individual> = (0..30).map(|i| ind(i as f64 * 1e-3)).collect();
        thin_front(&mut front, 5);
        assert_eq!(front.len(), 5);
        // Both current extremes survive (leanest and fastest designs).
        assert!(front.iter().any(|i| i.objectives[1] == 0.0));
        assert!(front.iter().any(|i| i.objectives[1] == 29.0e-3));
    }

    #[test]
    fn thinning_is_noop_for_small_fronts() {
        let mut front: Vec<Individual> = (0..3).map(|i| ind(i as f64)).collect();
        thin_front(&mut front, 10);
        assert_eq!(front.len(), 3);
    }

    #[test]
    fn thinning_to_zero_is_a_noop_cap() {
        let mut front: Vec<Individual> = (0..7).map(|i| ind(i as f64)).collect();
        thin_front(&mut front, 0);
        assert_eq!(front.len(), 7, "0 means no cap");
    }

    #[test]
    fn thinning_to_one_point_keeps_the_leanest() {
        // Regression: `k * (n-1) / (max_points - 1)` divided by zero
        // when max_points == 1.
        let mut front: Vec<Individual> = (0..9).rev().map(|i| ind(i as f64)).collect();
        thin_front(&mut front, 1);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].objectives[1], 0.0, "lowest-current design");
    }

    #[test]
    fn thinning_to_two_points_keeps_both_extremes() {
        let mut front: Vec<Individual> = (0..9).map(|i| ind(i as f64)).collect();
        thin_front(&mut front, 2);
        assert_eq!(front.len(), 2);
        assert_eq!(front[0].objectives[1], 0.0);
        assert_eq!(front[1].objectives[1], 8.0);
    }

    #[test]
    fn quick_config_is_smaller_than_paper_scale() {
        let q = FlowConfig::quick();
        let p = FlowConfig::paper_scale();
        assert!(q.circuit_ga.population < p.circuit_ga.population);
        assert!(q.verify_mc.samples < p.verify_mc.samples);
        assert_eq!(p.circuit_ga.population, 100, "paper §4.2");
        assert_eq!(p.circuit_ga.generations, 30, "paper §4.2");
        assert_eq!(p.char_mc.samples, 100, "paper §4.3");
        assert_eq!(p.verify_mc.samples, 500, "paper §4.5");
    }

    #[test]
    fn paper_scale_degrades_gracefully_by_default() {
        let p = FlowConfig::paper_scale();
        assert!(!p.degrade.is_strict(), "hour-long runs must absorb faults");
        assert!(p.degrade.max_retries() > 0);
        assert!(p.degrade.min_surviving_points() >= 2);
    }

    #[test]
    fn config_digest_distinguishes_budgets() {
        let a = FlowConfig::quick();
        let mut b = FlowConfig::quick();
        assert_eq!(a.digest(), b.digest());
        b.char_mc.samples += 1;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn config_digest_ignores_cache_settings() {
        // Cached and uncached runs produce bit-identical artifacts, so
        // a directory started without the cache must accept a resumed
        // run that enables it (and vice versa).
        let a = FlowConfig::quick();
        let mut b = FlowConfig::quick();
        b.cache = CacheConfig::enabled();
        b.cache.capacity = 17;
        b.cache.quantum = 1e-9;
        b.cache.shared_disk = Some(PathBuf::from("/tmp/shared-store"));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn config_digest_ignores_telemetry_settings() {
        // Telemetry observes, it never alters: artifacts are
        // bit-identical either way, so a traced resume of an untraced
        // run (and vice versa) must be accepted.
        let a = FlowConfig::quick();
        let mut b = FlowConfig::quick();
        b.telemetry = TelemetryConfig::enabled();
        b.telemetry.top_points = 3;
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn config_digest_ignores_wall_clock_budget() {
        // A run that hit its deadline is resumed with a larger budget;
        // the checkpoint directory must still accept its artifacts.
        let a = FlowConfig::quick();
        let mut b = FlowConfig::quick();
        b.budget = RunBudget::unlimited()
            .whole_run(std::time::Duration::from_secs(1))
            .per_task(std::time::Duration::from_millis(50));
        assert_eq!(a.digest(), b.digest());
    }
}
