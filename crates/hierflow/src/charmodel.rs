//! Pareto-front characterisation: Monte-Carlo spreads per optimal
//! solution (paper §3.3/§4.3, producing Table 1) and `.tbl` emission
//! (Listing 1).

use std::path::Path;

use evalcache::EvalCache;
use exec::{AbortReason, ExecPolicy, FaultClass, PoolStats, TaskFailure};
use moea::problem::Individual;
use netlist::topology::VcoSizing;
use serde::{Deserialize, Serialize};
use tablemodel::tbl_io::write_tbl_file;
use variation::mc::{McConfig, MonteCarlo};

use crate::error::FlowError;
use crate::events::{FlowEvent, FlowEvents, FlowStage};
use crate::faults::FaultInjector;
use crate::policy::{relaxed_options, DegradePolicy};
use crate::vco_eval::{VcoPerf, VcoTestbench};
use crate::vco_problem::VcoSizingProblem;
use telemetry::names;

/// Relative spreads (the paper's ∆ columns, `σ/µ` in percent) of the
/// five VCO performances.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VcoDeltas {
    /// ∆Kvco (%).
    pub kvco: f64,
    /// ∆Ivco (%).
    pub ivco: f64,
    /// ∆Jvco (%).
    pub jvco: f64,
    /// ∆fmin (%).
    pub fmin: f64,
    /// ∆fmax (%).
    pub fmax: f64,
}

impl VcoDeltas {
    /// Packs in the canonical (kvco, ivco, jvco, fmin, fmax) order.
    pub fn to_array(&self) -> [f64; 5] {
        [self.kvco, self.ivco, self.jvco, self.fmin, self.fmax]
    }
}

/// One characterised Pareto point: sizing, nominal performance and
/// Monte-Carlo spreads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharPoint {
    /// Transistor sizing (the paper's p1…p7).
    pub sizing: VcoSizing,
    /// Nominal performance.
    pub perf: VcoPerf,
    /// Relative spreads from Monte Carlo.
    pub delta: VcoDeltas,
    /// Monte-Carlo samples that evaluated successfully.
    pub mc_accepted: usize,
    /// Monte-Carlo samples that failed (circuit stopped oscillating —
    /// itself a yield signal).
    pub mc_failed: usize,
}

/// The characterised Pareto front: the combined performance + variation
/// model's raw data.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CharacterizedFront {
    /// Characterised points.
    pub points: Vec<CharPoint>,
}

/// Outcome of one characterisation attempt of one point.
struct PointAttempt {
    point: Option<CharPoint>,
    /// `(sample index, failure description)` of every failing sample.
    failures: Vec<(usize, String)>,
    /// `(sample index, elapsed ms, limit ms)` of every per-task
    /// deadline overrun.
    timeouts: Vec<(usize, u64, u64)>,
    /// Scheduling statistics of the Monte-Carlo batch.
    stats: PoolStats,
    /// Set when the batch stopped early (cancellation or batch
    /// deadline) — the point's result is meaningless and the whole
    /// run must wind down.
    aborted: Option<AbortReason>,
}

/// One Monte-Carlo pass over one Pareto point, on the supervised pool.
/// Output validation runs here: a measurement that *returns* non-finite
/// values (the quietest failure mode a simulator has) counts as a
/// failed sample, never as data. Injected faults carry their
/// [`FaultKind::class`](crate::faults::FaultKind::class) so the pool's
/// retry policy can tell transient solver wobbles from permanent
/// failures.
#[allow(clippy::too_many_arguments)]
fn characterize_point(
    point: usize,
    sizing: &VcoSizing,
    nominal: VcoPerf,
    attempt: usize,
    testbench: &VcoTestbench,
    engine: &MonteCarlo,
    mc: &McConfig,
    exec: &ExecPolicy,
    faults: Option<&FaultInjector>,
    cache: Option<&EvalCache<Vec<f64>>>,
) -> PointAttempt {
    let _point_span = telemetry::span("point")
        .attr("stage", FlowStage::Characterize.name())
        .attr("point", point)
        .attr("attempt", attempt);
    let ring = testbench.build(sizing);
    // The memoisation key is the sizing plus the retry attempt: relaxed
    // solver options change what a sample measures, so attempt 1 must
    // never replay attempt 0's metrics. The sample index itself is
    // salted in by the Monte-Carlo engine.
    let mut design: Vec<f64> = sizing.to_array().to_vec();
    design.push(attempt as f64);
    let run = engine.run_cached(&ring.circuit, mc, exec, &design, cache, |i, perturbed| {
        let result = match faults {
            Some(inj) => inj.evaluate(point, i, attempt, testbench, perturbed, &ring),
            None => testbench.evaluate_circuit(perturbed, &ring),
        };
        match result {
            Ok(perf) if perf.is_finite() => Ok(perf.to_array().to_vec()),
            Ok(_) => Err(TaskFailure::permanent(
                "measurement returned non-finite values",
            )),
            Err(e) => Err(TaskFailure::Failed {
                message: e.to_string(),
                class: faults
                    .and_then(|inj| inj.fault_for(point, i, attempt))
                    .map(|kind| kind.class())
                    .unwrap_or(FaultClass::Permanent),
            }),
        }
    });
    let failures: Vec<(usize, String)> = run
        .failures
        .iter()
        .map(|(i, f)| (*i, f.to_string()))
        .collect();
    let timeouts: Vec<(usize, u64, u64)> = run
        .failures
        .iter()
        .filter_map(|(i, f)| match f {
            TaskFailure::TimedOut { elapsed, limit } => {
                Some((*i, elapsed.as_millis() as u64, limit.as_millis() as u64))
            }
            _ => None,
        })
        .collect();

    if run.aborted.is_some() || run.accepted == 0 {
        return PointAttempt {
            point: None,
            failures,
            timeouts,
            stats: run.stats,
            aborted: run.aborted,
        };
    }
    // A spread that cannot be computed (zero-mean metric) is a failed
    // point under every policy — zeroing it silently would tell the
    // system level this design has no variation at all.
    let mut delta = [0.0f64; 5];
    for (k, slot) in delta.iter_mut().enumerate() {
        match run.delta_percent(k) {
            Some(d) => *slot = d,
            None => {
                return PointAttempt {
                    point: None,
                    failures: vec![(
                        usize::MAX,
                        format!(
                            "spread of metric {} undefined (zero mean)",
                            VcoPerf::NAMES[k]
                        ),
                    )],
                    timeouts,
                    stats: run.stats,
                    aborted: None,
                };
            }
        }
    }
    PointAttempt {
        point: Some(CharPoint {
            sizing: *sizing,
            perf: nominal,
            delta: VcoDeltas {
                kvco: delta[0],
                ivco: delta[1],
                jvco: delta[2],
                fmin: delta[3],
                fmax: delta[4],
            },
            mc_accepted: run.accepted,
            mc_failed: run.failed,
        }),
        failures,
        timeouts,
        stats: run.stats,
        aborted: None,
    }
}

/// Characterises every Pareto-front individual under a degradation
/// policy: for each one, a `mc.samples`-sample Monte Carlo re-measures
/// the five performances on perturbed circuits and records the relative
/// spreads. Failures are absorbed per the policy — aborted on with full
/// provenance ([`DegradePolicy::Strict`]), skipped
/// ([`DegradePolicy::SkipFailedPoints`]), or retried with relaxed
/// solver options ([`DegradePolicy::RetryRelaxed`]) — and every
/// decision is appended to `events`. An optional [`FaultInjector`]
/// deterministically fails selected `(point, sample)` evaluations for
/// failure-semantics testing.
///
/// The stage runs under an explicit execution policy: per-sample
/// wall-clock deadlines (overruns become [`FlowEvent::TaskTimedOut`]
/// entries and failed samples), cooperative cancellation and batch
/// deadlines (the stage stops claiming work and returns a resumable
/// [`FlowError::Cancelled`] / [`FlowError::DeadlineExceeded`] without
/// recording it: the caller owns that record), and per-sample retries
/// for transient faults. Every batch's scheduling statistics land in
/// `events` as [`FlowEvent::PoolBatch`]. Worker threads come from
/// `exec.threads` when set (> 0), falling back to `mc.threads`; results
/// are bit-identical across thread counts.
///
/// An optional evaluation memo cache memoises each `(sizing, retry
/// attempt, sample)` measurement, so repeated characterisation of the
/// same front — a flow resumed after its stage-2 checkpoint was lost,
/// or Pareto points sharing a sizing — replays metric vectors instead
/// of re-simulating. Results are bit-identical with and without the
/// cache; only successful samples are memoised, failures re-run every
/// time.
///
/// A [`FaultInjector`] disables the cache for the whole call: injected
/// faults are keyed by `(point, sample, attempt)`, and serving a
/// memoised success for a sample the injector intended to fail would
/// defeat the failure-semantics test it exists for.
///
/// # Errors
///
/// Returns [`FlowError::Stage`] when the front is empty or fewer than
/// the policy's minimum points survive,
/// [`FlowError::Characterization`] (with stage, point and sample
/// provenance) when a strict policy meets a failed sample,
/// [`FlowError::Cancelled`] when the policy's token fires and
/// [`FlowError::DeadlineExceeded`] at stage scope when its batch
/// deadline expires mid-stage.
#[allow(clippy::too_many_arguments)]
pub fn characterize_front_cached(
    front: &[Individual],
    testbench: &VcoTestbench,
    engine: &MonteCarlo,
    mc: &McConfig,
    policy: DegradePolicy,
    faults: Option<&FaultInjector>,
    exec: &ExecPolicy,
    cache: Option<&EvalCache<Vec<f64>>>,
    events: &mut FlowEvents,
) -> Result<CharacterizedFront, FlowError> {
    const STAGE: FlowStage = FlowStage::Characterize;
    let cache = if faults.is_some() { None } else { cache };
    if front.is_empty() {
        return Err(FlowError::stage(STAGE.name(), "empty pareto front"));
    }
    let mut points = Vec::with_capacity(front.len());
    let mut skipped: Vec<usize> = Vec::new();
    let record_batch = |events: &mut FlowEvents, idx: usize, outcome: &PointAttempt| {
        for &(task, elapsed_ms, limit_ms) in &outcome.timeouts {
            events.push(FlowEvent::TaskTimedOut {
                stage: STAGE,
                point: Some(idx),
                task,
                elapsed_ms,
                limit_ms,
            });
        }
        events.record_pool(STAGE, Some(idx), &outcome.stats);
    };
    for (idx, ind) in front.iter().enumerate() {
        let sizing = VcoSizing::from_array(&ind.x);
        let nominal = VcoSizingProblem::perf_of(&ind.objectives);

        let mut attempt = 0usize;
        let mut outcome = characterize_point(
            idx, &sizing, nominal, attempt, testbench, engine, mc, exec, faults, cache,
        );
        record_batch(events, idx, &outcome);
        while outcome.aborted.is_none() && outcome.point.is_none() && attempt < policy.max_retries()
        {
            attempt += 1;
            telemetry::counter_add(names::FLOW_RETRY_ATTEMPTS, 1);
            events.push(FlowEvent::RetryAttempted {
                stage: STAGE,
                point: idx,
                attempt,
            });
            let mut relaxed_tb = testbench.clone();
            relaxed_tb.sim = relaxed_options(&testbench.sim, attempt);
            outcome = characterize_point(
                idx,
                &sizing,
                nominal,
                attempt,
                &relaxed_tb,
                engine,
                mc,
                exec,
                faults,
                cache,
            );
            record_batch(events, idx, &outcome);
        }

        if let Some(reason) = outcome.aborted {
            return Err(FlowError::aborted(STAGE, reason));
        }

        match outcome.point {
            Some(char_point) => {
                if !outcome.failures.is_empty() {
                    if policy.is_strict() {
                        let (sample, message) = outcome.failures[0].clone();
                        return Err(FlowError::characterization(
                            STAGE,
                            idx,
                            Some(sample),
                            message,
                        ));
                    }
                    events.push(FlowEvent::SampleFailures {
                        stage: STAGE,
                        point: idx,
                        samples: outcome.failures.iter().map(|(i, _)| *i).collect(),
                        total: mc.samples,
                    });
                }
                points.push(char_point);
            }
            None => {
                let (sample, message) = outcome
                    .failures
                    .first()
                    .cloned()
                    .unwrap_or((usize::MAX, "characterisation produced no samples".into()));
                let sample = (sample != usize::MAX).then_some(sample);
                if policy.is_strict() {
                    return Err(FlowError::characterization(STAGE, idx, sample, message));
                }
                events.push(FlowEvent::PointSkipped {
                    stage: STAGE,
                    point: idx,
                    reason: format!(
                        "{message} ({} of {} samples failed, {} retries)",
                        outcome.failures.len(),
                        mc.samples,
                        attempt
                    ),
                });
                skipped.push(idx);
            }
        }
    }

    if points.len() < policy.min_surviving_points() {
        return Err(FlowError::stage(
            STAGE.name(),
            format!(
                "only {} of {} pareto points survived characterisation \
                 (minimum {}; skipped points: {:?})",
                points.len(),
                front.len(),
                policy.min_surviving_points(),
                skipped
            ),
        ));
    }
    Ok(CharacterizedFront { points })
}

/// Characterises a front under the default degradation policy
/// ([`DegradePolicy::default`]: skip failed points, keep at least the
/// two survivors the table model needs) with no fault injection and a
/// discarded event log. Prefer [`characterize_front_cached`] where the
/// event log matters.
///
/// # Errors
///
/// As [`characterize_front_cached`].
pub fn characterize_front(
    front: &[Individual],
    testbench: &VcoTestbench,
    engine: &MonteCarlo,
    mc: &McConfig,
) -> Result<CharacterizedFront, FlowError> {
    let mut events = FlowEvents::new();
    characterize_front_cached(
        front,
        testbench,
        engine,
        mc,
        DegradePolicy::default(),
        None,
        &ExecPolicy::default(),
        None,
        &mut events,
    )
}

impl CharacterizedFront {
    /// Writes the paper's data files (Listing 1) into `dir`:
    ///
    /// * `kvco_delta.tbl`, `ivco_delta.tbl`, `jvco_delta.tbl`,
    ///   `fmin_delta.tbl`, `fmax_delta.tbl` — 1-D performance → ∆%;
    /// * `data.tbl` — (kvco, ivco) → jvco, the forward performance
    ///   model used by Listing 2;
    /// * `p1_data.tbl` … `p7_data.tbl` — 5-D performance point →
    ///   transistor dimension (the inverse sizing model).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Table`] on I/O failure.
    pub fn write_tbl_files<P: AsRef<Path>>(&self, dir: P) -> Result<(), FlowError> {
        let dir = dir.as_ref();
        let perf_arrays: Vec<[f64; 5]> = self.points.iter().map(|p| p.perf.to_array()).collect();
        let delta_arrays: Vec<[f64; 5]> = self.points.iter().map(|p| p.delta.to_array()).collect();

        for (k, name) in VcoPerf::NAMES.iter().enumerate() {
            let points: Vec<Vec<f64>> = perf_arrays.iter().map(|p| vec![p[k]]).collect();
            let values: Vec<f64> = delta_arrays.iter().map(|d| d[k]).collect();
            write_tbl_file(
                dir.join(format!("{name}_delta.tbl")),
                &points,
                &values,
                &format!("{name} -> delta percent (sigma / mean)"),
            )?;
        }

        // Forward model: (kvco, ivco) -> jvco.
        let ki: Vec<Vec<f64>> = perf_arrays.iter().map(|p| vec![p[0], p[1]]).collect();
        let jv: Vec<f64> = perf_arrays.iter().map(|p| p[2]).collect();
        write_tbl_file(dir.join("data.tbl"), &ki, &jv, "(kvco, ivco) -> jvco")?;

        // Inverse sizing model: 5-D performance -> each parameter.
        let perf5: Vec<Vec<f64>> = perf_arrays.iter().map(|p| p.to_vec()).collect();
        for (idx, name) in VcoSizing::NAMES.iter().enumerate() {
            let values: Vec<f64> = self
                .points
                .iter()
                .map(|p| p.sizing.to_array()[idx])
                .collect();
            write_tbl_file(
                dir.join(format!("p{}_data.tbl", idx + 1)),
                &perf5,
                &values,
                &format!("(kvco, ivco, jvco, fmin, fmax) -> {name}"),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moea::problem::Evaluation;
    use variation::process::ProcessSpec;

    fn fake_front(n: usize) -> Vec<Individual> {
        (0..n)
            .map(|i| {
                let mut sizing = VcoSizing::nominal();
                sizing.wsn = 20e-6 + i as f64 * 10e-6;
                sizing.wsp = 40e-6 + i as f64 * 10e-6;
                let perf = VcoPerf {
                    kvco: 1e9 + i as f64 * 1e8,
                    jvco: 0.3e-12 - i as f64 * 0.02e-12,
                    ivco: 2e-3 + i as f64 * 1e-3,
                    fmin: 0.5e9,
                    fmax: 1.5e9 + i as f64 * 1e8,
                };
                Individual::new(
                    sizing.to_array().to_vec(),
                    Evaluation::feasible(VcoSizingProblem::objectives_of(&perf)),
                )
            })
            .collect()
    }

    #[test]
    fn characterise_small_front_produces_spreads() {
        let front = fake_front(2);
        let tb = VcoTestbench::default();
        let engine = MonteCarlo::new(ProcessSpec::default());
        let mc = McConfig {
            samples: 6,
            seed: 1,
            threads: 2,
            sampler: variation::sampler::SamplerKind::PlainMc,
        };
        let out = characterize_front(&front, &tb, &engine, &mc).unwrap();
        assert_eq!(out.points.len(), 2);
        for p in &out.points {
            assert!(p.mc_accepted > 0);
            // All spreads non-negative; kvco spread smaller than jvco's
            // is checked at paper scale in the table1 experiment.
            assert!(p.delta.kvco >= 0.0 && p.delta.jvco >= 0.0);
        }
    }

    #[test]
    fn cached_characterisation_is_bit_identical_and_replays_warm() {
        let front = fake_front(2);
        let tb = VcoTestbench::default();
        let engine = MonteCarlo::new(ProcessSpec::default());
        let mc = McConfig {
            samples: 6,
            seed: 1,
            threads: 2,
            sampler: variation::sampler::SamplerKind::PlainMc,
        };
        let mut events = FlowEvents::new();
        let baseline = characterize_front_cached(
            &front,
            &tb,
            &engine,
            &mc,
            DegradePolicy::default(),
            None,
            &ExecPolicy::default(),
            None,
            &mut events,
        )
        .unwrap();

        let cache = EvalCache::<Vec<f64>>::new(1024, evalcache::KeyQuantiser::exact(), 0xabc);
        let mut events = FlowEvents::new();
        let cold = characterize_front_cached(
            &front,
            &tb,
            &engine,
            &mc,
            DegradePolicy::default(),
            None,
            &ExecPolicy::default(),
            Some(&cache),
            &mut events,
        )
        .unwrap();
        assert_eq!(cold, baseline, "cold cached pass must be bit-identical");
        assert_eq!(cache.stats().misses, 12, "2 points x 6 samples simulated");

        let mut events = FlowEvents::new();
        let warm = characterize_front_cached(
            &front,
            &tb,
            &engine,
            &mc,
            DegradePolicy::default(),
            None,
            &ExecPolicy::default(),
            Some(&cache),
            &mut events,
        )
        .unwrap();
        assert_eq!(warm, baseline, "warm cached pass must be bit-identical");
        assert_eq!(
            cache.stats().misses,
            12,
            "the warm pass must re-simulate nothing"
        );
        assert_eq!(cache.stats().hits, 12);
    }

    #[test]
    fn strict_policy_aborts_with_point_and_sample_provenance() {
        let front = fake_front(2);
        let tb = VcoTestbench::default();
        let engine = MonteCarlo::new(ProcessSpec::default());
        let mc = McConfig {
            samples: 4,
            seed: 1,
            threads: 1,
            sampler: variation::sampler::SamplerKind::PlainMc,
        };
        let faults =
            FaultInjector::new().fail_sample(1, 2, crate::faults::FaultKind::SingularMatrix);
        let mut events = FlowEvents::new();
        let err = characterize_front_cached(
            &front,
            &tb,
            &engine,
            &mc,
            DegradePolicy::Strict,
            Some(&faults),
            &ExecPolicy::default(),
            None,
            &mut events,
        )
        .unwrap_err();
        assert_eq!(err.flow_stage(), Some(FlowStage::Characterize));
        assert_eq!(err.point(), Some(1));
        assert_eq!(err.sample(), Some(2));
        assert!(err.to_string().contains("singular"), "{err}");
    }

    #[test]
    fn skip_policy_drops_failed_point_and_records_events() {
        let front = fake_front(3);
        let tb = VcoTestbench::default();
        let engine = MonteCarlo::new(ProcessSpec::default());
        let mc = McConfig {
            samples: 4,
            seed: 1,
            threads: 2,
            sampler: variation::sampler::SamplerKind::PlainMc,
        };
        // Point 1 fails completely; point 0 loses one sample.
        let faults = FaultInjector::new()
            .fail_point(1, crate::faults::FaultKind::NonConvergence)
            .fail_sample(0, 0, crate::faults::FaultKind::Timeout);
        let mut events = FlowEvents::new();
        let out = characterize_front_cached(
            &front,
            &tb,
            &engine,
            &mc,
            DegradePolicy::SkipFailedPoints {
                min_surviving_points: 2,
            },
            Some(&faults),
            &ExecPolicy::default(),
            None,
            &mut events,
        )
        .unwrap();
        assert_eq!(out.points.len(), 2, "point 1 dropped, 0 and 2 survive");
        assert_eq!(events.skipped_points(FlowStage::Characterize), vec![1]);
        // The partial failure on point 0 is recorded, not fatal.
        let partial = events.iter().any(|e| {
            matches!(e, FlowEvent::SampleFailures { point: 0, samples, .. }
                if samples == &vec![0])
        });
        assert!(partial, "sample failure on point 0 must be logged");
        assert_eq!(out.points[0].mc_failed, 1);
        assert_eq!(out.points[0].mc_accepted, 3);
    }

    #[test]
    fn retry_policy_recovers_transient_faults() {
        let front = fake_front(2);
        let tb = VcoTestbench::default();
        let engine = MonteCarlo::new(ProcessSpec::default());
        let mc = McConfig {
            samples: 4,
            seed: 1,
            threads: 1,
            sampler: variation::sampler::SamplerKind::PlainMc,
        };
        // Point 0 fails wholesale on attempt 0, succeeds on retry.
        let faults = FaultInjector::new()
            .fail_point(0, crate::faults::FaultKind::NonConvergence)
            .transient();
        let mut events = FlowEvents::new();
        let out = characterize_front_cached(
            &front,
            &tb,
            &engine,
            &mc,
            DegradePolicy::RetryRelaxed {
                max_retries: 1,
                min_surviving_points: 2,
            },
            Some(&faults),
            &ExecPolicy::default(),
            None,
            &mut events,
        )
        .unwrap();
        assert_eq!(out.points.len(), 2, "retry must recover the point");
        assert!(events.skipped_points(FlowStage::Characterize).is_empty());
        let retried = events.iter().any(|e| {
            matches!(
                e,
                FlowEvent::RetryAttempted {
                    point: 0,
                    attempt: 1,
                    ..
                }
            )
        });
        assert!(retried, "the retry must be logged");
    }

    #[test]
    fn surviving_point_floor_is_enforced() {
        let front = fake_front(2);
        let tb = VcoTestbench::default();
        let engine = MonteCarlo::new(ProcessSpec::default());
        let mc = McConfig {
            samples: 4,
            seed: 1,
            threads: 1,
            sampler: variation::sampler::SamplerKind::PlainMc,
        };
        let faults = FaultInjector::new()
            .fail_point(0, crate::faults::FaultKind::SingularMatrix)
            .fail_point(1, crate::faults::FaultKind::SingularMatrix);
        let mut events = FlowEvents::new();
        let err = characterize_front_cached(
            &front,
            &tb,
            &engine,
            &mc,
            DegradePolicy::default(),
            Some(&faults),
            &ExecPolicy::default(),
            None,
            &mut events,
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::Stage { .. }));
        assert!(err.to_string().contains("0 of 2"), "{err}");
    }

    #[test]
    fn nan_outputs_are_caught_by_validation_not_trusted() {
        // NanOutput *succeeds* with NaN performances — the quietest
        // failure mode. It must surface as a failed sample.
        let front = fake_front(1);
        let tb = VcoTestbench::default();
        let engine = MonteCarlo::new(ProcessSpec::default());
        let mc = McConfig {
            samples: 4,
            seed: 1,
            threads: 1,
            sampler: variation::sampler::SamplerKind::PlainMc,
        };
        let faults = FaultInjector::new().fail_sample(0, 1, crate::faults::FaultKind::NanOutput);
        let mut events = FlowEvents::new();
        let out = characterize_front_cached(
            &front,
            &tb,
            &engine,
            &mc,
            DegradePolicy::SkipFailedPoints {
                min_surviving_points: 1,
            },
            Some(&faults),
            &ExecPolicy::default(),
            None,
            &mut events,
        )
        .unwrap();
        assert_eq!(out.points[0].mc_failed, 1, "NaN sample must not count");
        assert_eq!(out.points[0].mc_accepted, 3);
        assert!(out.points[0].delta.to_array().iter().all(|d| d.is_finite()));
        let logged = events.iter().any(|e| {
            matches!(e, FlowEvent::SampleFailures { point: 0, samples, .. }
                if samples == &vec![1])
        });
        assert!(logged);
    }

    #[test]
    fn empty_front_is_an_error() {
        let tb = VcoTestbench::default();
        let engine = MonteCarlo::new(ProcessSpec::default());
        let mc = McConfig::default();
        assert!(matches!(
            characterize_front(&[], &tb, &engine, &mc),
            Err(FlowError::Stage { .. })
        ));
    }

    #[test]
    fn tbl_files_are_written_and_parse_back() {
        let front = CharacterizedFront {
            points: vec![
                CharPoint {
                    sizing: VcoSizing::nominal(),
                    perf: VcoPerf {
                        kvco: 1e9,
                        jvco: 0.2e-12,
                        ivco: 3e-3,
                        fmin: 0.5e9,
                        fmax: 1.4e9,
                    },
                    delta: VcoDeltas {
                        kvco: 0.4,
                        ivco: 2.8,
                        jvco: 23.0,
                        fmin: 1.0,
                        fmax: 1.2,
                    },
                    mc_accepted: 100,
                    mc_failed: 0,
                },
                CharPoint {
                    sizing: VcoSizing::nominal(),
                    perf: VcoPerf {
                        kvco: 1.5e9,
                        jvco: 0.3e-12,
                        ivco: 5e-3,
                        fmin: 0.6e9,
                        fmax: 1.8e9,
                    },
                    delta: VcoDeltas {
                        kvco: 0.3,
                        ivco: 2.6,
                        jvco: 25.0,
                        fmin: 0.9,
                        fmax: 1.1,
                    },
                    mc_accepted: 100,
                    mc_failed: 0,
                },
            ],
        };
        let dir = std::env::temp_dir().join("hierflow_charmodel_test");
        std::fs::create_dir_all(&dir).unwrap();
        front.write_tbl_files(&dir).unwrap();
        // Files named per Listing 1 exist and parse.
        for name in [
            "kvco_delta.tbl",
            "jvco_delta.tbl",
            "ivco_delta.tbl",
            "fmin_delta.tbl",
            "fmax_delta.tbl",
            "data.tbl",
            "p1_data.tbl",
            "p7_data.tbl",
        ] {
            let data = tablemodel::tbl_io::read_tbl_file(dir.join(name))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(data.len(), 2, "{name}");
        }
        // p-tables key on all five performances.
        let p1 = tablemodel::tbl_io::read_tbl_file(dir.join("p1_data.tbl")).unwrap();
        assert_eq!(p1.dim(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
