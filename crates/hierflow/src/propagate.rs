//! Spec propagation: selecting the system-level solution and backing it
//! out to transistor dimensions (top-down step of Fig 3).

use behavioral::spec::PllSpec;
use behavioral::timesim::LockSimConfig;
use exec::ExecPolicy;
use moea::problem::Individual;
use netlist::topology::VcoSizing;

use crate::charmodel::CharPoint;
use crate::error::FlowError;
use crate::events::{FlowEvent, FlowEvents, FlowStage};
use crate::model::PerfVariationModel;
use crate::system_opt::{PllArchitecture, PllSystemProblem, SystemSolution};
use crate::vco_eval::VcoPerf;
use crate::verify::pll_performance;

/// Backs a selected system solution out to transistor dimensions.
///
/// This **snaps to the nearest characterised design** rather than
/// interpolating the 5-D inverse p1…p7 tables
/// ([`PerfVariationModel::sizing_for`], which remains available): on
/// the paper's dense 3,000-sample fronts interpolation and snapping
/// coincide, but on reproduction-budget fronts inverse interpolation
/// between distant designs fabricates sizings whose real performance
/// matches neither neighbour. Snapping guarantees the propagated design
/// is one that was actually characterised, so its transistor-level
/// nominal performance is already known: it is the point's stored
/// [`CharPoint::perf`](crate::charmodel::CharPoint::perf), which
/// [`select_verified_design`] reads instead of re-simulating.
pub fn backout_sizing(model: &PerfVariationModel, sol: &SystemSolution) -> VcoSizing {
    model.nearest_point(sol.kvco, sol.ivco).sizing
}

/// A design that survived verification-in-the-loop selection.
#[derive(Debug, Clone)]
pub struct VerifiedSelection {
    /// Decision vector of the accepted system solution.
    pub x: Vec<f64>,
    /// The model-based Table-2 row.
    pub solution: SystemSolution,
    /// Transistor sizing recovered by spec propagation.
    pub sizing: VcoSizing,
    /// The sizing's *actual* transistor-level performance: the snapped
    /// design's characterised nominal, which stage 1 measured with the
    /// flow's testbench (approximate when the circuit cache keys on a
    /// quantum).
    pub actual: VcoPerf,
}

/// Verification-in-the-loop selection (the two-way arrows of the paper's
/// Fig 3): walk the spec-compliant system solutions in ascending jitter
/// order, back each out to its characterised design, and accept the
/// first whose **actual** performance — the design's characterised
/// nominal, not the model's interpolation — still meets the PLL
/// specification. Model interpolation error on sparse fronts is thereby
/// caught before the expensive Monte-Carlo verification, at the cost of
/// one behavioural lock simulation per candidate and no
/// transistor-level work. Each rejected candidate is recorded in
/// `events` as a [`FlowEvent::PointSkipped`] in the verify stage, keyed
/// by its index in `front`, with the specs its actual performance
/// misses.
///
/// # Errors
///
/// Returns [`FlowError::Stage`] when no candidate survives (at most
/// `max_candidates` distinct designs are judged), and the resumable
/// [`FlowError::Cancelled`] or [`FlowError::DeadlineExceeded`] when
/// `exec`'s token or batch deadline stops the walk: it is polled
/// before each candidate.
#[allow(clippy::too_many_arguments)]
pub fn select_verified_design(
    problem: &PllSystemProblem,
    front: &[Individual],
    model: &PerfVariationModel,
    arch: &PllArchitecture,
    spec: &PllSpec,
    sim_cfg: &LockSimConfig,
    max_candidates: usize,
    exec: &ExecPolicy,
    events: &mut FlowEvents,
) -> Result<VerifiedSelection, FlowError> {
    // Rank the model-compliant candidates by nominal jitter, keeping
    // each one's index in the front.
    let mut candidates: Vec<(usize, Vec<f64>, SystemSolution)> = front
        .iter()
        .enumerate()
        .filter_map(|(idx, ind)| {
            problem
                .detail(&ind.x)
                .ok()
                .filter(|sol| sol.meets_spec)
                .map(|sol| (idx, ind.x.clone(), sol))
        })
        .collect();
    candidates.sort_by(|a, b| {
        a.2.jitter
            .partial_cmp(&b.2.jitter)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if candidates.is_empty() {
        return Err(FlowError::stage(
            "propagate",
            format!(
                "no system-level solution meets the specification ({} candidates)",
                front.len()
            ),
        ));
    }

    // The GA front carries many near-duplicate solutions; walk at most
    // one candidate per snapped (characterised) design so the budget is
    // spent on genuinely distinct circuits.
    let mut distinct: Vec<(usize, Vec<f64>, SystemSolution, &CharPoint)> = Vec::new();
    for (idx, x, solution) in candidates {
        let design = model.nearest_point(solution.kvco, solution.ivco);
        if !distinct.iter().any(|seen| std::ptr::eq(seen.3, design)) {
            distinct.push((idx, x, solution, design));
        }
    }

    let mut rejected = 0usize;
    for (idx, x, solution, design) in distinct.into_iter().take(max_candidates.max(1)) {
        if let Some(reason) = exec.poll() {
            return Err(FlowError::aborted(FlowStage::Verify, reason));
        }
        // Re-run the behavioural PLL on the actual performance.
        let filter = (solution.c1, solution.c2, solution.r1);
        let violations = spec.violations(&pll_performance(&design.perf, filter, arch, sim_cfg));
        if violations.is_empty() {
            return Ok(VerifiedSelection {
                x,
                solution,
                sizing: design.sizing,
                actual: design.perf,
            });
        }
        rejected += 1;
        events.push(FlowEvent::PointSkipped {
            stage: FlowStage::Verify,
            point: idx,
            reason: format!(
                "actual performance misses the spec: {}",
                violations.join("; ")
            ),
        });
    }
    Err(FlowError::stage(
        "propagate",
        format!(
            "no candidate survived verification-in-the-loop ({rejected} rejected) — \
             the model over-estimates in this region; increase the characterisation budget"
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charmodel::{CharPoint, CharacterizedFront, VcoDeltas};
    use crate::system_opt::PllArchitecture;
    use behavioral::spec::PllSpec;
    use behavioral::timesim::LockSimConfig;
    use moea::problem::Evaluation;
    use moea::Problem;
    use std::sync::Arc;

    fn model() -> Arc<PerfVariationModel> {
        let n = 14;
        let points = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                let mut sizing = VcoSizing::nominal();
                sizing.wsn = 15e-6 + 50e-6 * t;
                CharPoint {
                    sizing,
                    perf: VcoPerf {
                        kvco: 0.8e9 + 1.6e9 * t,
                        ivco: 1.5e-3 + 3.0e-3 * t,
                        jvco: 0.32e-12 - 0.2e-12 * t,
                        fmin: 0.30e9 + 0.15e9 * t,
                        fmax: 1.5e9 + 1.1e9 * t,
                    },
                    delta: VcoDeltas {
                        kvco: 0.4,
                        ivco: 2.8,
                        jvco: 23.0,
                        fmin: 1.0,
                        fmax: 1.1,
                    },
                    mc_accepted: 100,
                    mc_failed: 0,
                }
            })
            .collect();
        Arc::new(PerfVariationModel::from_front(&CharacterizedFront { points }).unwrap())
    }

    fn problem() -> PllSystemProblem {
        PllSystemProblem::new(
            model(),
            PllArchitecture::default(),
            PllSpec::default(),
            LockSimConfig::default(),
        )
    }

    fn candidate(p: &PllSystemProblem, x: Vec<f64>) -> Individual {
        let eval = p.evaluate(&x);
        Individual::new(x, eval)
    }

    fn select(
        p: &PllSystemProblem,
        front: &[Individual],
        spec: &PllSpec,
        events: &mut FlowEvents,
    ) -> Result<VerifiedSelection, FlowError> {
        select_verified_design(
            p,
            front,
            &model(),
            &PllArchitecture::default(),
            spec,
            &LockSimConfig::default(),
            2,
            &ExecPolicy::default(),
            events,
        )
    }

    #[test]
    fn no_compliant_solution_is_an_error() {
        let p = problem();
        // A hopeless candidate: lowest gain cannot cover the band at
        // worst case AND current-heavy filter — craft one out of domain
        // so detail() fails for it.
        let front = vec![Individual::new(
            vec![9e9, 3e-3, 30e-12, 3e-12, 4e3],
            Evaluation::failed(3),
        )];
        let mut events = FlowEvents::new();
        assert!(matches!(
            select(&p, &front, &PllSpec::default(), &mut events),
            Err(FlowError::Stage { .. })
        ));
        assert!(events.is_empty(), "nothing was evaluated: {events}");
    }

    #[test]
    fn rejected_candidates_are_recorded_with_the_missed_spec() {
        // A loose system spec makes the model call three candidates on
        // its characterised curve compliant; a verification spec no
        // real VCO meets (1 µA) then rejects every snapped sizing.
        let loose = PllSpec {
            lock_time_max: 5e-6,
            current_max: 50e-3,
            ..PllSpec::default()
        };
        let p = PllSystemProblem::new(
            model(),
            PllArchitecture::default(),
            loose,
            LockSimConfig::default(),
        );
        let front: Vec<Individual> = [0.25, 0.5, 0.75]
            .into_iter()
            .map(|t| {
                let x = vec![0.8e9 + 1.6e9 * t, 1.5e-3 + 3.0e-3 * t, 30e-12, 3e-12, 4e3];
                candidate(&p, x)
            })
            .collect();
        let spec = PllSpec {
            current_max: 1e-6,
            ..PllSpec::default()
        };
        let mut events = FlowEvents::new();
        let err = select(&p, &front, &spec, &mut events).unwrap_err();
        // Lowest jitter first, and at most `max_candidates` (2) tried.
        assert_eq!(events.skipped_points(FlowStage::Verify), vec![2, 1]);
        assert!(err.to_string().contains("(2 rejected)"), "{err}");
        for e in events.iter() {
            let FlowEvent::PointSkipped { reason, .. } = e else {
                panic!("unexpected event {e}");
            };
            assert!(reason.contains("current"), "{reason}");
        }
    }

    #[test]
    fn a_fired_token_stops_selection_before_any_evaluation() {
        // The loose spec of the test above makes both candidates
        // model-compliant, so only the token stops the walk.
        let loose = PllSpec {
            lock_time_max: 5e-6,
            current_max: 50e-3,
            ..PllSpec::default()
        };
        let p = PllSystemProblem::new(
            model(),
            PllArchitecture::default(),
            loose,
            LockSimConfig::default(),
        );
        let front: Vec<Individual> = [0.25, 0.5]
            .into_iter()
            .map(|t| {
                let x = vec![0.8e9 + 1.6e9 * t, 1.5e-3 + 3.0e-3 * t, 30e-12, 3e-12, 4e3];
                candidate(&p, x)
            })
            .collect();
        let cancel = exec::CancelToken::new();
        cancel.cancel();
        let mut events = FlowEvents::new();
        let err = select_verified_design(
            &p,
            &front,
            &model(),
            &PllArchitecture::default(),
            &loose,
            &LockSimConfig::default(),
            2,
            &ExecPolicy::default().with_cancel(cancel),
            &mut events,
        )
        .unwrap_err();
        assert_eq!(
            err,
            FlowError::Cancelled {
                stage: FlowStage::Verify
            }
        );
        assert!(events.is_empty(), "no candidate was evaluated: {events}");
    }

    #[test]
    fn selection_reads_the_snapped_designs_nominal_without_simulating() {
        // The loose spec judges both the model and the actual
        // performance, so the lowest-jitter candidate is accepted.
        let loose = PllSpec {
            lock_time_max: 5e-6,
            current_max: 50e-3,
            ..PllSpec::default()
        };
        let m = model();
        let p = PllSystemProblem::new(
            Arc::clone(&m),
            PllArchitecture::default(),
            loose,
            LockSimConfig::default(),
        );
        let front: Vec<Individual> = [0.25, 0.5, 0.75]
            .into_iter()
            .map(|t| {
                let x = vec![0.8e9 + 1.6e9 * t, 1.5e-3 + 3.0e-3 * t, 30e-12, 3e-12, 4e3];
                candidate(&p, x)
            })
            .collect();
        let recorder = telemetry::Recorder::new();
        let mut events = FlowEvents::new();
        let picked = {
            let _installed = recorder.install();
            select(&p, &front, &loose, &mut events).expect("a candidate is accepted")
        };
        let snapped = m.nearest_point(picked.solution.kvco, picked.solution.ivco);
        assert_eq!(picked.sizing, snapped.sizing);
        assert_eq!(
            picked.actual.to_array().map(f64::to_bits),
            snapped.perf.to_array().map(f64::to_bits),
            "the actual performance is the snapped point's stored nominal"
        );
        let metrics = recorder.metrics();
        assert_eq!(metrics.counter(telemetry::names::SIM_SPARSE_ANALYZE), None);
        assert!(
            metrics
                .histogram(telemetry::names::SIM_NEWTON_ITERATIONS_TRANSIENT)
                .is_none_or(|h| h.count == 0),
            "selection ran a transient Newton solve"
        );
    }

    #[test]
    fn backout_recovers_nearby_front_sizing() {
        let m = model();
        let p = problem();
        let sol = p.detail(&[1.6e9, 3.0e-3, 30e-12, 3e-12, 4e3]).unwrap();
        let sizing = backout_sizing(&m, &sol);
        // The recovered sizing interpolates the front designs, whose
        // wsn spans 15–65 µm.
        assert!(
            (10e-6..=100e-6).contains(&sizing.wsn),
            "wsn {} outside bounds",
            sizing.wsn
        );
    }
}
