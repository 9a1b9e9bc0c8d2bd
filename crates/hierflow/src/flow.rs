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
use std::time::Instant;

use behavioral::spec::PllSpec;
use behavioral::timesim::LockSimConfig;
use evalcache::{EvalCache, KeyQuantiser};
use exec::{CancelToken, Deadline, ExecPolicy, RunBudget};
use moea::nsga2::{run_nsga2_cached, Nsga2Config};
use moea::problem::{Evaluation, Individual};
use netlist::topology::VcoSizing;
use serde::{Deserialize, Serialize};
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
/// the flow's transistor-level evaluation paths: the stage-1 GA, the
/// stage-2 Monte-Carlo characterisation and the stage-5 Monte-Carlo
/// verification).
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
    /// In-memory entries held per cache (three caches exist: GA
    /// evaluations, characterisation sample metrics and verification
    /// sample metrics).
    pub capacity: usize,
    /// Design-coordinate quantum for the GA and characterisation keys;
    /// `0.0` keys on the exact bit pattern, guaranteeing hits are
    /// bit-identical replays. Verification always keys exactly: it is
    /// the flow's ground truth.
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
    /// [`FlowError::Checkpoint`] when the directory is unusable or was
    /// produced by a different configuration. A corrupt artifact is no
    /// error: it is quarantined and its stage recomputed.
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
        let mut runner = StageRunner::new(dir, &self.cancel, run_deadline);

        // Evaluation memo caches (opt-in, bit-identical): one for the
        // stage-1 GA's objective evaluations, one each for the stage-2
        // and stage-5 Monte-Carlo sample metrics. All key off the
        // canonical config digest, so a shared disk directory never
        // serves entries computed under a different configuration.
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
        let verify_cache: Option<EvalCache<Vec<f64>>> = cache_on
            .then(|| build_cache(&cfg.cache, KeyQuantiser::exact(), config_dig, "verify", dir));

        // Stage 1: circuit-level multi-objective sizing, with the
        // system band propagated down as coverage constraints (Fig 3).
        let mut circuit_evaluations_this_run = 0;
        let stage1: Stage1Artifact =
            runner.checkpointed(FlowStage::CircuitOpt, checkpoint::STAGE1_FRONT, |events| {
                let problem = VcoSizingProblem::with_band(
                    cfg.testbench.clone(),
                    cfg.spec.f_out_min,
                    cfg.spec.f_out_max,
                );
                let result = run_nsga2_cached(
                    &problem,
                    &cfg.circuit_ga,
                    &[],
                    &stage_policy(),
                    circuit_cache.as_ref(),
                )
                .map_err(|reason| FlowError::aborted(FlowStage::CircuitOpt, reason))?;
                events.record_pool(FlowStage::CircuitOpt, None, &result.pool);
                events.record_cache(FlowStage::CircuitOpt, circuit_cache.as_ref());
                circuit_evaluations_this_run = result.evaluations;
                let mut front = result.pareto_front();
                if front.is_empty() {
                    return Err(FlowError::stage(
                        FlowStage::CircuitOpt.name(),
                        "circuit-level optimisation produced no feasible designs",
                    ));
                }
                thin_front(&mut front, cfg.max_char_points);
                Ok(Stage1Artifact {
                    front,
                    evaluations: result.evaluations,
                })
            })?;

        // Stage 2: Monte-Carlo characterisation of the front, under the
        // configured degradation policy.
        let engine = MonteCarlo::new(cfg.process);
        let characterized: CharacterizedFront = runner.checkpointed(
            FlowStage::Characterize,
            checkpoint::STAGE2_CHARACTERIZED,
            |events| {
                let characterized = characterize_front_cached(
                    &stage1.front,
                    &cfg.testbench,
                    &engine,
                    &cfg.char_mc,
                    cfg.degrade,
                    self.faults.as_ref(),
                    &stage_policy(),
                    char_cache.as_ref(),
                    events,
                )?;
                events.record_cache(FlowStage::Characterize, char_cache.as_ref());
                Ok(characterized)
            },
        )?;

        // Stage 3: the combined performance + variation model. Rebuilt
        // every run — cheap, and its spline internals do not serialise.
        let model = runner.run(FlowStage::Model, |r| {
            r.compute(FlowStage::Model, |_| {
                PerfVariationModel::from_front(&characterized).map(Arc::new)
            })
        })?;

        // Stage 4: system-level optimisation with the model in the loop.
        let system_problem =
            PllSystemProblem::new(Arc::clone(&model), cfg.arch, cfg.spec, cfg.lock_sim)
                .with_risk(cfg.risk);
        let stage4: Stage4Artifact =
            runner.checkpointed(FlowStage::SystemOpt, checkpoint::STAGE4_SYSTEM, |events| {
                // Model-based evaluations are cheap; the memo cache is
                // reserved for the transistor-level stages.
                let result = run_nsga2_cached(
                    &system_problem,
                    &cfg.system_ga,
                    &system_problem.warm_start_seeds(),
                    &stage_policy(),
                    None,
                )
                .map_err(|reason| FlowError::aborted(FlowStage::SystemOpt, reason))?;
                events.record_pool(FlowStage::SystemOpt, None, &result.pool);
                let front = result.pareto_front();
                let rows = front
                    .iter()
                    .filter_map(|ind| system_problem.detail(&ind.x).ok())
                    .collect();
                Ok(Stage4Artifact {
                    front,
                    rows,
                    evaluations: result.evaluations,
                })
            })?;

        // Stage 5: spec propagation with verification-in-the-loop
        // (Fig 3's two-way arrows), then bottom-up Monte Carlo. One
        // policy, built as the stage starts, supervises both: selection
        // polls it before each candidate.
        let stage5: Stage5Artifact =
            runner.checkpointed(FlowStage::Verify, checkpoint::STAGE5_SELECTED, |events| {
                let policy = stage_policy();
                let picked = select_verified_design(
                    &system_problem,
                    &stage4.front,
                    &model,
                    &cfg.arch,
                    &cfg.spec,
                    &cfg.lock_sim,
                    12,
                    &policy,
                    events,
                )?;
                let verification = verify_design(
                    &picked.sizing,
                    (picked.solution.c1, picked.solution.c2, picked.solution.r1),
                    &cfg.testbench,
                    &cfg.arch,
                    &cfg.spec,
                    &engine,
                    &cfg.verify_mc,
                    &cfg.lock_sim,
                    &policy,
                    verify_cache.as_ref(),
                )?;
                events.record_cache(FlowStage::Verify, verify_cache.as_ref());
                Ok(Stage5Artifact {
                    x: picked.x,
                    solution: picked.solution,
                    sizing: picked.sizing,
                    verification,
                })
            })?;

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
            events: runner.events,
            stage_wall: runner.stage_wall,
            profile: None,
        })
    }
}

/// Drives each stage of a run through one lifecycle: checkpoint reuse,
/// the interruption poll, the `StageStarted`/`StageFinished` records,
/// the checkpoint save, the stage's telemetry span and wall clock, and
/// a persisted event log however the stage ends. It is the only place
/// that records an interruption.
struct StageRunner<'a> {
    dir: Option<&'a RunDir>,
    cancel: &'a CancelToken,
    run_deadline: Option<Deadline>,
    events: FlowEvents,
    stage_wall: Vec<telemetry::report::StageProfile>,
}

impl<'a> StageRunner<'a> {
    /// Starts from the event log a previous run left in `dir`, so a
    /// resumed run appends to its history.
    fn new(
        dir: Option<&'a RunDir>,
        cancel: &'a CancelToken,
        run_deadline: Option<Deadline>,
    ) -> Self {
        let previous = dir.map(|d| d.load_or_quarantine(checkpoint::EVENTS_FILE));
        let events = match previous {
            Some(LoadOutcome::Loaded(events)) => events,
            Some(LoadOutcome::Absent) | None => FlowEvents::new(),
            // A smashed event log loses history, never the run: start
            // a fresh log whose first entry records the loss.
            Some(LoadOutcome::Quarantined { reason, .. }) => {
                let mut events = FlowEvents::new();
                events.push(FlowEvent::CheckpointCorrupt {
                    stage: None,
                    file: checkpoint::EVENTS_FILE.to_string(),
                    reason,
                });
                events
            }
        };
        StageRunner {
            dir,
            cancel,
            run_deadline,
            events,
            stage_wall: Vec::new(),
        }
    }

    /// Runs one stage: `body` loads or computes it inside the stage's
    /// telemetry span and always-on wall clock, and the event log is
    /// persisted however it ends. The clock is plain `Instant`
    /// arithmetic that feeds nothing back into the stages, so results
    /// stay bit-identical whether or not anyone reads the timings.
    fn run<T>(
        &mut self,
        stage: FlowStage,
        body: impl FnOnce(&mut Self) -> Result<T, FlowError>,
    ) -> Result<T, FlowError> {
        let result = {
            let _stage_span = telemetry::span("stage").attr("stage", stage.name());
            let stage_start = Instant::now();
            let result = body(self).map_err(|e| self.record_interruption(e));
            self.stage_wall.push(telemetry::report::StageProfile {
                stage: stage.name().to_string(),
                wall_us: stage_start.elapsed().as_micros() as u64,
            });
            result
        };
        let persisted = self
            .dir
            .map_or(Ok(()), |d| d.save(checkpoint::EVENTS_FILE, &self.events));
        // A stage's own error outranks a failed write of the log.
        let value = result?;
        persisted?;
        Ok(value)
    }

    /// Runs a checkpointed stage. An artifact that loads from the run
    /// directory is reused. A present-but-corrupt one (a torn write that
    /// dodged the atomic rename, or real disk trouble) is quarantined
    /// and recorded as a [`FlowEvent::CheckpointCorrupt`], and the stage
    /// recomputed: resume degrades, it never refuses to run and never
    /// builds a report from half-trusted bytes. A computed stage first
    /// polls the cancel token and the run budget, so a token fired
    /// during a non-supervised section still stops the run at the next
    /// stage boundary; its artifact is saved once it finishes.
    fn checkpointed<T: Serialize + Deserialize>(
        &mut self,
        stage: FlowStage,
        file: &str,
        work: impl FnOnce(&mut FlowEvents) -> Result<T, FlowError>,
    ) -> Result<T, FlowError> {
        self.run(stage, |r| {
            if let Some(d) = r.dir {
                match d.load_or_quarantine::<T>(file) {
                    LoadOutcome::Loaded(value) => {
                        r.events.push(FlowEvent::CheckpointLoaded {
                            stage,
                            file: file.to_string(),
                        });
                        return Ok(value);
                    }
                    LoadOutcome::Absent => {}
                    LoadOutcome::Quarantined { reason, .. } => {
                        r.events.push(FlowEvent::CheckpointCorrupt {
                            stage: Some(stage),
                            file: file.to_string(),
                            reason,
                        });
                    }
                }
            }
            if r.cancel.poll() {
                return Err(FlowError::Cancelled { stage });
            }
            if r.run_deadline.is_some_and(|d| d.expired()) {
                return Err(FlowError::DeadlineExceeded {
                    stage,
                    scope: DeadlineScope::Run,
                });
            }
            let value = r.compute(stage, work)?;
            if let Some(d) = r.dir {
                d.save(file, &value)?;
                r.events.push(FlowEvent::CheckpointSaved {
                    stage,
                    file: file.to_string(),
                });
            }
            Ok(value)
        })
    }

    /// Computes a stage's `work` between its `StageStarted` and
    /// `StageFinished` records.
    fn compute<T>(
        &mut self,
        stage: FlowStage,
        work: impl FnOnce(&mut FlowEvents) -> Result<T, FlowError>,
    ) -> Result<T, FlowError> {
        self.events.push(FlowEvent::StageStarted { stage });
        let value = work(&mut self.events)?;
        self.events.push(FlowEvent::StageFinished { stage });
        Ok(value)
    }

    /// Records a cancellation or an expired budget and returns the
    /// error the run surfaces; any other error passes through
    /// unrecorded. A stage only sees its batch deadline, the earlier of
    /// the stage and run budgets, so it reports an expiry at stage
    /// scope; the record names the whole-run budget when that one has
    /// expired.
    fn record_interruption(&mut self, error: FlowError) -> FlowError {
        match error {
            FlowError::Cancelled { stage } => {
                self.events.push(FlowEvent::RunCancelled { stage });
                FlowError::Cancelled { stage }
            }
            FlowError::DeadlineExceeded { stage, scope } => {
                let scope = if self.run_deadline.is_some_and(|d| d.expired()) {
                    DeadlineScope::Run
                } else {
                    scope
                };
                self.events
                    .push(FlowEvent::BudgetExhausted { stage, scope });
                FlowError::DeadlineExceeded { stage, scope }
            }
            other => other,
        }
    }
}

/// Builds one evaluation memo cache, attaching the on-disk tier under
/// `<run dir>/evalcache/<tag>` when checkpointing is active and the
/// config asks for it. The `tag` is folded into the config digest so
/// the GA and the two Monte-Carlo caches can never serve each other's
/// entries even if their design vectors collide. An unusable disk
/// directory degrades to memory-only caching — the cache is an
/// optimisation, not a correctness dependency.
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
