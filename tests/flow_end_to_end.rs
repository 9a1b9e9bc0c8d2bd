//! Integration test: the complete hierarchical flow at reduced budget.
//!
//! This is the repository's strongest correctness statement — every
//! stage of the paper's algorithm runs for real: transistor-level
//! NSGA-II sizing, Monte-Carlo characterisation, table-model
//! construction, system-level optimisation with corners, spec
//! propagation and bottom-up yield verification.

use std::time::Duration;

use hierflow::checkpoint::{
    RunDir, Stage1Artifact, STAGE2_CHARACTERIZED, STAGE4_SYSTEM, STAGE5_SELECTED,
};
use hierflow::flow::{CacheConfig, FlowConfig, HierarchicalFlow};
use hierflow::report::{format_table1, format_table2};
use hierflow::{
    CancelToken, DeadlineScope, DegradePolicy, FaultInjector, FaultKind, FlowError, FlowEvent,
    FlowEvents, FlowStage, RunBudget, VcoTestbench,
};
use moea::problem::{Evaluation, Individual};
use netlist::topology::VcoSizing;

/// Micro budgets: every stage runs for real but in seconds, not
/// minutes. The spec window is loosened accordingly — the point of
/// these tests is the flow's failure semantics, not front quality.
fn micro_config() -> FlowConfig {
    let mut cfg = FlowConfig::quick();
    cfg.circuit_ga.population = 16;
    cfg.circuit_ga.generations = 3;
    cfg.char_mc.samples = 5;
    cfg.max_char_points = 4;
    cfg.system_ga.population = 32;
    cfg.system_ga.generations = 10;
    cfg.verify_mc.samples = 10;
    cfg.spec.lock_time_max = 5e-6;
    cfg.spec.current_max = 50e-3;
    cfg
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hierflow_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small Pareto front built from *real* testbench evaluations of
/// hand-picked sizings, packaged as a stage-1 checkpoint — so flow
/// tests can start at stage 2 without paying for the GA.
fn seeded_stage1(dir: &std::path::Path, testbench: &VcoTestbench, n: usize) -> Stage1Artifact {
    let front: Vec<Individual> = (0..n)
        .map(|i| {
            let mut sizing = VcoSizing::nominal();
            sizing.wsn *= 1.0 + 0.25 * i as f64;
            sizing.wsp *= 1.0 + 0.25 * i as f64;
            let perf = testbench
                .evaluate_sizing(&sizing)
                .expect("nominal-family sizing evaluates");
            Individual::new(
                sizing.to_array().to_vec(),
                Evaluation::feasible(hierflow::vco_problem::VcoSizingProblem::objectives_of(
                    &perf,
                )),
            )
        })
        .collect();
    let artifact = Stage1Artifact {
        front,
        evaluations: n,
    };
    let run = RunDir::create(dir).expect("run dir");
    run.save(hierflow::checkpoint::STAGE1_FRONT, &artifact)
        .expect("seed stage-1 artifact");
    artifact
}

/// A flow killed after stage 2 resumes from its checkpoint directory
/// and completes without re-running any circuit-level GA evaluation.
#[test]
fn checkpointed_flow_resumes_without_repeating_circuit_work() {
    let dir = fresh_dir("resume");
    let config = micro_config();

    let first = HierarchicalFlow::new(config.clone())
        .run_with_checkpoints(&dir)
        .expect("first run completes");
    assert!(
        first.circuit_evaluations_this_run > 0,
        "the first run must pay for the GA"
    );
    assert!(!first.events.stage_resumed(FlowStage::CircuitOpt));

    // Simulate a kill after stage 2: stages 4 and 5 never landed.
    std::fs::remove_file(dir.join(STAGE4_SYSTEM)).expect("drop stage-4 artifact");
    std::fs::remove_file(dir.join(STAGE5_SELECTED)).expect("drop stage-5 artifact");

    let resumed = HierarchicalFlow::new(config)
        .resume(&dir)
        .expect("resume completes");

    // Stages 1 and 2 were loaded, not recomputed; the GA budget was
    // spent exactly once across both runs.
    assert_eq!(
        resumed.circuit_evaluations_this_run, 0,
        "resume must not re-run circuit-level GA evaluations"
    );
    assert!(resumed.events.stage_resumed(FlowStage::CircuitOpt));
    assert!(resumed.events.stage_resumed(FlowStage::Characterize));
    assert!(!resumed.events.stage_resumed(FlowStage::SystemOpt));

    // Identical inputs + deterministic seeds: the resumed run lands on
    // the same design the uninterrupted run selected.
    assert_eq!(resumed.selected, first.selected);
    assert_eq!(resumed.front, first.front);
    assert_eq!(resumed.circuit_evaluations, first.circuit_evaluations);

    std::fs::remove_dir_all(&dir).ok();
}

/// A cache-enabled flow produces bit-identical artifacts to an uncached
/// one, and after losing its stage-2 and stage-5 checkpoints a resumed
/// run replays every individual characterisation and verification
/// sample from the cache's disk tier instead of re-simulating.
#[test]
fn cached_flow_is_bit_identical_and_disk_tier_survives_resume() {
    let cfg = micro_config();
    let dir_plain = fresh_dir("cache_plain");
    let dir_cached = fresh_dir("cache_on");
    // Identical seeded stage-1 fronts keep the comparison cheap: the
    // runs start at characterisation.
    seeded_stage1(&dir_plain, &cfg.testbench, 3);
    seeded_stage1(&dir_cached, &cfg.testbench, 3);

    let plain = HierarchicalFlow::new(cfg.clone())
        .run_with_checkpoints(&dir_plain)
        .expect("uncached run completes");

    let mut cached_cfg = cfg.clone();
    cached_cfg.cache = CacheConfig::enabled();
    let cached = HierarchicalFlow::new(cached_cfg.clone())
        .run_with_checkpoints(&dir_cached)
        .expect("cached run completes");

    assert_eq!(cached.front, plain.front, "characterised fronts must match");
    assert_eq!(cached.selected, plain.selected);
    assert_eq!(cached.final_sizing, plain.final_sizing);
    assert_eq!(cached.verification, plain.verification);
    // `HIERSIZER_EVALCACHE=0` forces the cache off over the config: the
    // runs must still agree, but there are no cache counters to check.
    if !evalcache::enabled_from_env(true) {
        std::fs::remove_dir_all(&dir_plain).ok();
        std::fs::remove_dir_all(&dir_cached).ok();
        return;
    }
    let (hits, misses, disk_hits, _) = cached
        .events
        .cache_stats(FlowStage::Characterize)
        .expect("cache stats must be logged");
    assert!(misses > 0, "the cold run evaluates for real");
    assert_eq!(hits, 0, "distinct sizings and samples share no keys");
    assert_eq!(disk_hits, 0);
    let samples = cfg.verify_mc.samples as u64;
    assert_eq!(
        cached.events.cache_stats(FlowStage::Verify),
        Some((0, samples, 0, 0)),
        "the cold run simulates every verification sample"
    );

    // Lose the stage-2 and stage-5 artifacts: the resumed run
    // re-characterises and re-verifies, but its fresh in-memory caches
    // warm entirely from the disk tier.
    std::fs::remove_file(dir_cached.join(STAGE2_CHARACTERIZED)).expect("drop stage-2 artifact");
    std::fs::remove_file(dir_cached.join(STAGE5_SELECTED)).expect("drop stage-5 artifact");
    let resumed = HierarchicalFlow::new(cached_cfg)
        .resume(&dir_cached)
        .expect("resume completes");
    assert_eq!(resumed.front, plain.front, "replayed front must match");
    assert_eq!(
        resumed.verification, plain.verification,
        "replayed verification must match"
    );
    assert_eq!(
        resumed.events.cache_stats(FlowStage::Verify),
        Some((samples, 0, samples, 0)),
        "every verification sample must replay from the disk tier"
    );
    let (hits, misses, disk_hits, _) = resumed
        .events
        .cache_stats(FlowStage::Characterize)
        .expect("cache stats must be logged");
    assert_eq!(misses, 0, "every sample must replay from the cache");
    assert!(hits > 0);
    assert_eq!(
        disk_hits, hits,
        "a fresh process serves all hits from the disk tier"
    );

    std::fs::remove_dir_all(&dir_plain).ok();
    std::fs::remove_dir_all(&dir_cached).ok();
}

/// A stale checkpoint directory from a different configuration is
/// refused, not silently mixed into the run.
#[test]
fn resume_refuses_a_directory_from_another_config() {
    let dir = fresh_dir("drift");
    let config = micro_config();
    let run = RunDir::create(&dir).expect("run dir");
    // Seed a manifest as if a different config had produced the dir.
    run.save(
        hierflow::checkpoint::MANIFEST_FILE,
        &hierflow::checkpoint::RunManifest {
            config_digest: 0xdead_beef,
            version: hierflow::checkpoint::ARTIFACT_VERSION,
        },
    )
    .expect("seed manifest");
    let err = HierarchicalFlow::new(config).resume(&dir).unwrap_err();
    assert!(
        err.to_string().contains("different flow configuration"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt stage checkpoint (torn write, bit rot) must not panic or
/// poison the run: the resumed flow quarantines the file, records a
/// `CheckpointCorrupt` provenance event, recomputes the stage, and
/// still lands on bit-identical results.
#[test]
fn resume_quarantines_corrupt_checkpoint_and_stays_bit_identical() {
    let dir = fresh_dir("corrupt_ckpt");
    let config = micro_config();
    seeded_stage1(&dir, &config.testbench, 3);

    let first = HierarchicalFlow::new(config.clone())
        .run_with_checkpoints(&dir)
        .expect("reference run completes");

    // Model a kill during stage 4 whose stage-2 artifact also took a
    // torn write: garbage bytes, later stages missing.
    std::fs::write(dir.join(STAGE2_CHARACTERIZED), "{ \"front\": [tr").expect("smash stage-2");
    std::fs::remove_file(dir.join(STAGE4_SYSTEM)).expect("drop stage-4 artifact");
    std::fs::remove_file(dir.join(STAGE5_SELECTED)).expect("drop stage-5 artifact");

    let resumed = HierarchicalFlow::new(config)
        .resume(&dir)
        .expect("resume survives the corrupt checkpoint");

    let corruptions = resumed.events.checkpoint_corruptions();
    assert!(
        corruptions
            .iter()
            .any(|(file, _)| file == STAGE2_CHARACTERIZED),
        "corruption must be recorded in provenance: {corruptions:?}"
    );
    assert!(
        !resumed.events.stage_resumed(FlowStage::Characterize),
        "the corrupt stage is recomputed, not resumed"
    );
    assert!(
        resumed.events.stage_resumed(FlowStage::CircuitOpt),
        "the intact stage-1 artifact is still reused"
    );
    // The casualty was moved aside for post-mortems, not deleted.
    let quarantined = std::fs::read_dir(&dir)
        .expect("run dir listable")
        .flatten()
        .any(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with("stage2_characterized.json.corrupt-")
        });
    assert!(quarantined, "corrupt artifact must be quarantined on disk");

    assert_eq!(resumed.front, first.front, "recomputed stage matches");
    assert_eq!(resumed.selected, first.selected);
    assert_eq!(resumed.final_sizing, first.final_sizing);

    std::fs::remove_dir_all(&dir).ok();
}

/// The ISSUE's degradation acceptance case: with an injector failing
/// 20 % of one point's Monte-Carlo samples and *all* samples of
/// another, `SkipFailedPoints` completes the flow end to end and
/// reports the skipped point in the event log, while `Strict` aborts
/// with stage + point + sample provenance.
#[test]
fn fault_injected_flow_degrades_or_aborts_per_policy() {
    let testbench = VcoTestbench::default();
    let samples = 10;
    // 20% of point 0's samples fail; point 1 fails wholesale.
    let injector = FaultInjector::new()
        .fail_fraction(0, samples, 0.2, FaultKind::NonConvergence)
        .fail_point(1, FaultKind::SingularMatrix);

    let mut config = micro_config();
    config.char_mc.samples = samples;

    // Strict: abort, with provenance down to the sample.
    let strict_dir = fresh_dir("strict");
    seeded_stage1(&strict_dir, &testbench, 4);
    let mut strict_cfg = config.clone();
    strict_cfg.degrade = DegradePolicy::Strict;
    let err = HierarchicalFlow::new(strict_cfg)
        .with_fault_injector(injector.clone())
        .run_with_checkpoints(&strict_dir)
        .unwrap_err();
    assert_eq!(err.flow_stage(), Some(FlowStage::Characterize));
    assert_eq!(err.point(), Some(0), "point 0's sample 0 fails first");
    assert_eq!(err.sample(), Some(0));

    // Skip: the flow completes, the dead point is dropped and reported.
    let skip_dir = fresh_dir("skip");
    seeded_stage1(&skip_dir, &testbench, 4);
    let mut skip_cfg = config;
    skip_cfg.degrade = DegradePolicy::SkipFailedPoints {
        min_surviving_points: 2,
    };
    let report = HierarchicalFlow::new(skip_cfg)
        .with_fault_injector(injector)
        .run_with_checkpoints(&skip_dir)
        .expect("degraded flow completes");
    assert_eq!(report.front.points.len(), 3, "point 1 dropped, 3 survive");
    assert_eq!(
        report.events.skipped_points(FlowStage::Characterize),
        vec![1]
    );
    // The partial failures on point 0 are logged, and its spreads come
    // from the surviving 80% of samples.
    assert!(report.events.iter().any(|e| matches!(
        e,
        hierflow::FlowEvent::SampleFailures { point: 0, samples, total: 10, .. }
            if samples.len() == 2
    )));
    assert_eq!(report.front.points[0].mc_failed, 2);
    assert_eq!(report.front.points[0].mc_accepted, 8);
    // The degraded run still produces a verified selection.
    assert!(report.verification.total > 0);

    std::fs::remove_dir_all(&strict_dir).ok();
    std::fs::remove_dir_all(&skip_dir).ok();
}

/// Cooperative cancellation mid-characterisation: the run stops at a
/// task boundary with a resumable error, the stage-1 checkpoint and
/// event log survive in the run directory, and `resume` completes with
/// results identical to a never-cancelled run.
#[test]
fn cancelled_run_leaves_valid_checkpoints_and_resumes_identically() {
    let testbench = VcoTestbench::default();
    let mut config = micro_config();
    // Serial execution makes the poll count — and therefore the exact
    // cancellation point — deterministic; small budgets keep the three
    // full (reference, cancelled, resumed) passes affordable.
    config.char_mc.threads = 1;
    config.char_mc.samples = 4;
    config.circuit_ga.eval_threads = 1;
    config.system_ga.eval_threads = 1;

    // Reference: the same seeded stage-1 front, never cancelled.
    let ref_dir = fresh_dir("cancel_ref");
    seeded_stage1(&ref_dir, &testbench, 3);
    let reference = HierarchicalFlow::new(config.clone())
        .run_with_checkpoints(&ref_dir)
        .expect("reference run completes");

    // Cancelled run: the token fires after a handful of cancellation
    // polls — stage 2 polls once on entry and once per Monte-Carlo
    // sample, so poll #8 lands inside characterisation, after point 0
    // but before the front is done.
    let dir = fresh_dir("cancel");
    seeded_stage1(&dir, &testbench, 3);
    let err = HierarchicalFlow::new(config.clone())
        .with_cancel_token(CancelToken::cancel_after(8))
        .run_with_checkpoints(&dir)
        .unwrap_err();
    assert!(err.is_resumable_interruption(), "{err}");
    assert_eq!(err.flow_stage(), Some(FlowStage::Characterize));

    // The run directory still holds a valid stage-1 checkpoint and a
    // persisted event log recording the interruption.
    let run = RunDir::create(&dir).expect("reopen run dir");
    let stage1: Option<Stage1Artifact> = run
        .load(hierflow::checkpoint::STAGE1_FRONT)
        .expect("stage-1 artifact still parses");
    assert_eq!(stage1.expect("stage-1 artifact present").front.len(), 3);
    let events: FlowEvents = run
        .load(hierflow::checkpoint::EVENTS_FILE)
        .expect("event log parses")
        .expect("event log present");
    assert!(events.interrupted(), "the cancellation must be on record");

    // Resume without the token: completes, and lands on exactly the
    // same results as the never-cancelled reference.
    let resumed = HierarchicalFlow::new(config)
        .resume(&dir)
        .expect("resume completes");
    assert_eq!(resumed.front, reference.front);
    assert_eq!(resumed.selected, reference.selected);
    assert_eq!(resumed.final_sizing, reference.final_sizing);

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// The ISSUE's deadline acceptance case: deliberately slow injected
/// evaluations (`Timeout` faults with a real wall-clock stall) trip the
/// per-task deadline — the samples fail and the overruns are visible in
/// `FlowEvents` — the whole-run budget then expires mid-stage, the run
/// errors resumably, and `resume` with the budget lifted completes from
/// the last checkpoint.
///
/// Every timed sample here is injected (point 0 fails wholesale), so no
/// real transistor-level evaluation — seconds each in debug builds —
/// ever races the millisecond-scale deadlines.
#[test]
fn injected_stall_trips_task_deadline_and_budget_exhaustion_is_resumable() {
    let testbench = VcoTestbench::default();
    let mut config = micro_config();
    config.char_mc.threads = 1;
    config.char_mc.samples = 4;
    config.degrade = DegradePolicy::SkipFailedPoints {
        min_surviving_points: 2,
    };

    let dir = fresh_dir("run_budget");
    seeded_stage1(&dir, &testbench, 3);
    let mut strangled = config.clone();
    strangled.budget = RunBudget::unlimited()
        .per_task(Duration::from_millis(50))
        .whole_run(Duration::from_millis(500));
    // Every sample of point 0 stalls 200 ms against the 50 ms per-task
    // deadline; two or three such stalls exhaust the 500 ms run budget
    // before point 0's batch ends — long before any real evaluation.
    let stalls = FaultInjector::new()
        .fail_point(0, FaultKind::Timeout)
        .with_timeout_stall(Duration::from_millis(200));
    let err = HierarchicalFlow::new(strangled)
        .with_fault_injector(stalls)
        .run_with_checkpoints(&dir)
        .unwrap_err();
    assert!(err.is_resumable_interruption(), "{err}");
    assert!(err.to_string().contains("deadline exceeded"), "{err}");
    assert_eq!(err.flow_stage(), Some(FlowStage::Characterize));
    // Only the whole-run budget is set, so the error names it.
    let stage = FlowStage::Characterize;
    let scope = DeadlineScope::Run;
    assert_eq!(err, FlowError::DeadlineExceeded { stage, scope });

    // The overruns and the budget exhaustion are on record in the
    // persisted event log, and the stage-1 checkpoint is intact.
    let run = RunDir::create(&dir).expect("reopen run dir");
    let events: FlowEvents = run
        .load(hierflow::checkpoint::EVENTS_FILE)
        .expect("event log parses")
        .expect("event log present");
    assert!(events.task_timeouts(FlowStage::Characterize) >= 1);
    assert!(events.interrupted());
    assert_eq!(
        interruptions(&events),
        [FlowEvent::BudgetExhausted { stage, scope }]
    );
    let overrun = events.iter().find_map(|e| match e {
        hierflow::FlowEvent::TaskTimedOut {
            point,
            task,
            elapsed_ms,
            limit_ms,
            ..
        } => Some((*point, *task, *elapsed_ms, *limit_ms)),
        _ => None,
    });
    let (point, task, elapsed_ms, limit_ms) = overrun.expect("overrun event recorded");
    assert_eq!((point, task), (Some(0), 0), "point 0's first sample");
    assert!(elapsed_ms >= limit_ms, "{elapsed_ms} ms vs {limit_ms} ms");
    let stage1: Option<Stage1Artifact> = run
        .load(hierflow::checkpoint::STAGE1_FRONT)
        .expect("stage-1 artifact still parses");
    assert_eq!(stage1.expect("stage-1 artifact present").front.len(), 3);

    // Resuming with the budget lifted (and the stalls gone) finishes
    // the flow from the checkpointed stage-1 front.
    let resumed = HierarchicalFlow::new(config)
        .resume(&dir)
        .expect("resume completes once the budget is lifted");
    assert!(resumed.front.points.len() >= 2);
    assert!(resumed.verification.total > 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// An interrupted verification is recorded once, by the flow. With
/// stages 1, 2 and 4 checkpointed, a per-stage budget of zero expires
/// before selection evaluates its first candidate at transistor level:
/// the run names the per-stage budget, its own profile shows no
/// simulator analysis, the persisted log holds exactly one
/// `BudgetExhausted`, and a rerun without the budget reproduces the
/// uninterrupted report.
#[test]
fn verification_interrupted_by_stage_budget_is_recorded_once_and_resumes() {
    use hierflow::TelemetryConfig;

    let config = micro_config();
    let dir = fresh_dir("verify_budget");
    seeded_stage1(&dir, &config.testbench, 3);
    let first = HierarchicalFlow::new(config.clone())
        .run_with_checkpoints(&dir)
        .expect("reference run completes");

    std::fs::remove_file(dir.join(STAGE5_SELECTED)).expect("drop stage-5 artifact");
    let mut strangled = config.clone();
    strangled.budget = RunBudget::unlimited().per_stage(Duration::ZERO);
    // Traced, so the run's profile counts every simulator analysis.
    strangled.telemetry = TelemetryConfig::enabled();
    let err = HierarchicalFlow::new(strangled).resume(&dir).unwrap_err();
    let stage = FlowStage::Verify;
    let scope = DeadlineScope::Stage;
    assert_eq!(err, FlowError::DeadlineExceeded { stage, scope });

    // `HIERSIZER_TELEMETRY=0` overrides the config and leaves no profile.
    if telemetry::enabled_from_env(true) {
        let metrics = std::fs::read_to_string(dir.join(hierflow::checkpoint::METRICS_FILE))
            .expect("the interrupted run wrote its metrics");
        let profile: telemetry::report::RunProfile =
            serde_json::from_str(&metrics).expect("metrics.json parses");
        assert_eq!(
            profile
                .metrics
                .counter(telemetry::names::SIM_SPARSE_ANALYZE),
            None,
            "the interrupted stage ran a transistor-level evaluation"
        );
    }

    let events: FlowEvents = RunDir::create(&dir)
        .expect("reopen run dir")
        .load(hierflow::checkpoint::EVENTS_FILE)
        .expect("event log parses")
        .expect("event log present");
    assert_eq!(
        interruptions(&events),
        [FlowEvent::BudgetExhausted { stage, scope }]
    );

    let resumed = HierarchicalFlow::new(config)
        .resume(&dir)
        .expect("resume completes once the budget is lifted");
    assert_eq!(resumed.front, first.front);
    assert_eq!(resumed.system_front, first.system_front);
    assert_eq!(resumed.selected, first.selected);
    assert_eq!(resumed.selected_x, first.selected_x);
    assert_eq!(resumed.final_sizing, first.final_sizing);
    assert_eq!(resumed.verification, first.verification);

    std::fs::remove_dir_all(&dir).ok();
}

/// The cancellation and budget-exhaustion records of an event log.
fn interruptions(events: &FlowEvents) -> Vec<FlowEvent> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e,
                FlowEvent::RunCancelled { .. } | FlowEvent::BudgetExhausted { .. }
            )
        })
        .cloned()
        .collect()
}

/// The full five-stage flow with `FlowConfig::quick` budgets.
/// Expensive (several minutes of transistor-level simulation); marked
/// ignored so `cargo test` stays fast — run explicitly with
/// `cargo test --release --test flow_end_to_end -- --ignored`.
#[test]
#[ignore = "minutes of transistor-level simulation; run with --ignored"]
fn quick_flow_end_to_end() {
    let mut config = FlowConfig::quick();
    // Loosen the spec window slightly relative to the paper so the tiny
    // GA budget reliably finds a compliant corner of the space.
    config.spec.lock_time_max = 2e-6;
    config.spec.current_max = 30e-3;
    let flow = HierarchicalFlow::new(config);
    let report = flow.run().expect("flow completes");

    // Stage 1+2: a characterised front exists and is self-consistent.
    assert!(report.front.points.len() >= 2);
    for p in &report.front.points {
        assert!(p.perf.fmax > p.perf.fmin);
        assert!(p.perf.kvco > 0.0);
        assert!(p.delta.kvco >= 0.0);
        assert!(p.mc_accepted > 0);
    }

    // Stage 4: system solutions carry corner information.
    assert!(!report.system_front.is_empty());
    for s in &report.system_front {
        assert!(s.kvco_min <= s.kvco && s.kvco <= s.kvco_max);
        assert!(s.jitter_min <= s.jitter && s.jitter <= s.jitter_max);
    }

    // Stage 5: the selected solution meets spec and verification yields
    // a sensible number.
    assert!(report.selected.meets_spec);
    assert!(report.verification.total > 0);
    assert!(report.verification.yield_value >= 0.0);
    assert!(report.verification.yield_value <= 1.0);
    // The paper's headline: the selected design verifies at high yield.
    assert!(
        report.verification.yield_value >= 0.5,
        "selected design verified at only {:.0}% yield",
        100.0 * report.verification.yield_value
    );

    // The report renders.
    assert!(!format_table1(&report.front).is_empty());
    assert!(!format_table2(&report.system_front).is_empty());

    // The report serialises (for EXPERIMENTS.md bookkeeping).
    let json = serde_json::to_string(&report).expect("report serialises");
    assert!(json.contains("yield_value"));
}

/// The telemetry acceptance case: a telemetry-enabled run writes
/// `trace.jsonl` and `metrics.json` into the run directory, every
/// stage/point/sample span nests under a live parent, and the
/// run's results are bit-identical to a telemetry-disabled run.
#[test]
fn telemetry_enabled_run_traces_spans_and_stays_bit_identical() {
    use hierflow::TelemetryConfig;

    let testbench = VcoTestbench::default();
    let cfg = micro_config();
    let dir_off = fresh_dir("telemetry_off");
    let dir_on = fresh_dir("telemetry_on");
    seeded_stage1(&dir_off, &testbench, 3);
    seeded_stage1(&dir_on, &testbench, 3);

    let plain = HierarchicalFlow::new(cfg.clone())
        .run_with_checkpoints(&dir_off)
        .expect("disabled run completes");
    // `HIERSIZER_TELEMETRY` overrides the config: `1` traces the
    // "disabled" run too and `0` leaves the "enabled" one untraced. Bit
    // identity is the point either way; each path's assertions apply
    // only where the environment leaves the config in charge.
    let env_forced = telemetry::enabled_from_env(false);
    let env_allows = telemetry::enabled_from_env(true);
    if !env_forced {
        assert!(plain.profile.is_none(), "no profile without telemetry");
    }

    let mut traced_cfg = cfg;
    traced_cfg.telemetry = TelemetryConfig::enabled();
    let traced = HierarchicalFlow::new(traced_cfg)
        .run_with_checkpoints(&dir_on)
        .expect("traced run completes");

    // Bit identity: telemetry observes, never perturbs.
    assert_eq!(traced.front, plain.front, "fronts must be bit-identical");
    assert_eq!(traced.selected, plain.selected);
    assert_eq!(traced.final_sizing, plain.final_sizing);
    assert_eq!(traced.verification, plain.verification);

    // The always-on stage timings cover all five stages either way.
    assert_eq!(plain.stage_wall.len(), 5);
    assert_eq!(traced.stage_wall.len(), 5);
    if !env_allows {
        std::fs::remove_dir_all(&dir_off).ok();
        std::fs::remove_dir_all(&dir_on).ok();
        return;
    }

    // The in-memory profile and the persisted metrics.json agree.
    let profile = traced.profile.as_ref().expect("traced run has a profile");
    assert!(profile.span_count > 0);
    assert_eq!(profile.stages.len(), 5, "five stage spans profiled");
    assert!(
        profile.metrics.counter("mc.samples").unwrap_or(0) > 0,
        "Monte-Carlo sample counter must be recorded"
    );
    let metrics_path = dir_on.join(hierflow::checkpoint::METRICS_FILE);
    let metrics_text = std::fs::read_to_string(&metrics_path).expect("metrics.json written");
    let on_disk: telemetry::report::RunProfile =
        serde_json::from_str(&metrics_text).expect("metrics.json parses");
    assert_eq!(&on_disk, profile, "metrics.json mirrors the profile");
    if !env_forced {
        assert!(!dir_off.join(hierflow::checkpoint::METRICS_FILE).is_file());
    }

    // trace.jsonl: every line parses; spans nest correctly.
    let trace_path = dir_on.join(hierflow::checkpoint::TRACE_FILE);
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace.jsonl written");
    // (id -> (parent, name, start_us, seq)) for every span line.
    let mut spans: Vec<(u64, Option<u64>, String, u64, u64)> = Vec::new();
    let mut events = 0u64;
    for line in trace_text.lines() {
        let v: serde::Value = serde_json::from_str(line).expect("trace line parses");
        let kind = v.get("type").and_then(|t| t.as_str()).expect("type field");
        match kind {
            "span" => {
                let id = v.get("id").and_then(serde::Value::as_f64).expect("id") as u64;
                let parent = v
                    .get("parent")
                    .filter(|p| !p.is_null())
                    .and_then(serde::Value::as_f64)
                    .map(|p| p as u64);
                let name = v
                    .get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string();
                let start = v
                    .get("start_us")
                    .and_then(serde::Value::as_f64)
                    .expect("start_us") as u64;
                let seq = v.get("seq").and_then(serde::Value::as_f64).expect("seq") as u64;
                spans.push((id, parent, name, start, seq));
            }
            "event" => events += 1,
            other => panic!("unexpected trace line type {other:?}"),
        }
    }
    assert_eq!(spans.len() as u64, profile.span_count);
    assert_eq!(events, profile.event_count);

    let runs: Vec<_> = spans.iter().filter(|s| s.2 == "run").collect();
    assert_eq!(runs.len(), 1, "exactly one root run span");
    assert!(runs[0].1.is_none(), "the run span has no parent");
    assert_eq!(spans.iter().filter(|s| s.2 == "stage").count(), 5);
    assert!(spans.iter().any(|s| s.2 == "point"));
    assert!(spans.iter().any(|s| s.2 == "sample"));
    assert!(spans.iter().any(|s| s.2 == "solve"));

    // Every stage/point/sample span nests under a live parent: the
    // parent exists, opened no later than the child, and closed after
    // it (records are appended in close order, so a larger seq means a
    // later close).
    let by_id: std::collections::HashMap<u64, &(u64, Option<u64>, String, u64, u64)> =
        spans.iter().map(|s| (s.0, s)).collect();
    for child in spans
        .iter()
        .filter(|s| matches!(s.2.as_str(), "stage" | "point" | "sample"))
    {
        let parent_id = child
            .1
            .unwrap_or_else(|| panic!("{} span {} has no parent", child.2, child.0));
        let parent = by_id
            .get(&parent_id)
            .unwrap_or_else(|| panic!("{} span {} has a dead parent", child.2, child.0));
        assert!(
            parent.3 <= child.3,
            "parent {} opened after child {}",
            parent.0,
            child.0
        );
        assert!(
            parent.4 > child.4,
            "parent {} closed before child {}",
            parent.0,
            child.0
        );
    }

    std::fs::remove_dir_all(&dir_off).ok();
    std::fs::remove_dir_all(&dir_on).ok();
}
