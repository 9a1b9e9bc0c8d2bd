//! Spec propagation: selecting the system-level solution and backing it
//! out to transistor dimensions (top-down step of Fig 3).

use behavioral::jitter::pll_jitter_sum;
use behavioral::params::{PllParams, PLL_FIXED_CURRENT};
use behavioral::spec::{PllPerformance, PllSpec};
use behavioral::timesim::{lock_times, LockSimConfig};
use moea::problem::Individual;
use netlist::topology::VcoSizing;

use crate::error::FlowError;
use crate::model::PerfVariationModel;
use crate::system_opt::{PllArchitecture, PllSystemProblem, SystemSolution};
use crate::vco_eval::{VcoPerf, VcoTestbench};

/// Selects the design solution from a system-level Pareto front: among
/// solutions that meet every specification *including the variation
/// corners* (the paper's shaded Table-2 row), the one with the lowest
/// nominal jitter; ties break on current.
///
/// Returns the winning decision vector and its Table-2 row.
///
/// # Errors
///
/// Returns [`FlowError::Stage`] when no solution meets the
/// specification.
pub fn select_design(
    problem: &PllSystemProblem,
    front: &[Individual],
) -> Result<(Vec<f64>, SystemSolution), FlowError> {
    let mut best: Option<(Vec<f64>, SystemSolution)> = None;
    for ind in front {
        let Ok(sol) = problem.detail(&ind.x) else {
            continue;
        };
        if !sol.meets_spec {
            continue;
        }
        let better = match &best {
            None => true,
            Some((_, b)) => {
                sol.jitter < b.jitter || (sol.jitter == b.jitter && sol.current < b.current)
            }
        };
        if better {
            best = Some((ind.x.clone(), sol));
        }
    }
    best.ok_or_else(|| {
        FlowError::stage(
            "propagate",
            format!(
                "no system-level solution meets the specification ({} candidates)",
                front.len()
            ),
        )
    })
}

/// Backs a selected system solution out to transistor dimensions.
///
/// This **snaps to the nearest characterised design** rather than
/// interpolating the 5-D inverse p1…p7 tables
/// ([`PerfVariationModel::sizing_for`], which remains available): on
/// the paper's dense 3,000-sample fronts interpolation and snapping
/// coincide, but on reproduction-budget fronts inverse interpolation
/// between distant designs fabricates sizings whose real performance
/// matches neither neighbour. Snapping guarantees the propagated design
/// is one that was actually characterised — the selection stage then
/// re-verifies it at transistor level (see [`select_verified_design`]).
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
    /// The sizing's *actual* transistor-level performance.
    pub actual: VcoPerf,
    /// Candidates rejected before this one was accepted.
    pub rejected: usize,
}

/// Verification-in-the-loop selection (the two-way arrows of the paper's
/// Fig 3): walk the spec-compliant system solutions in ascending jitter
/// order, back each out to a transistor sizing, re-measure that sizing
/// once at transistor level, and accept the first whose **actual**
/// performance still meets the PLL specification. Model interpolation
/// error on sparse fronts is thereby caught before the expensive
/// Monte-Carlo verification.
///
/// # Errors
///
/// Returns [`FlowError::Stage`] when no candidate survives (at most
/// `max_candidates` transistor evaluations are spent).
#[allow(clippy::too_many_arguments)]
pub fn select_verified_design(
    problem: &PllSystemProblem,
    front: &[Individual],
    model: &PerfVariationModel,
    testbench: &VcoTestbench,
    arch: &PllArchitecture,
    spec: &PllSpec,
    sim_cfg: &LockSimConfig,
    max_candidates: usize,
) -> Result<VerifiedSelection, FlowError> {
    // Rank the model-compliant candidates by nominal jitter.
    let mut candidates: Vec<(Vec<f64>, SystemSolution)> = front
        .iter()
        .filter_map(|ind| {
            problem
                .detail(&ind.x)
                .ok()
                .filter(|sol| sol.meets_spec)
                .map(|sol| (ind.x.clone(), sol))
        })
        .collect();
    candidates.sort_by(|a, b| {
        a.1.jitter
            .partial_cmp(&b.1.jitter)
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
    let mut seen_designs: Vec<usize> = Vec::new();
    let mut distinct = Vec::new();
    for (x, solution) in candidates {
        let nearest_ref = model.nearest_point(solution.kvco, solution.ivco);
        let nearest = model
            .points()
            .iter()
            .position(|p| std::ptr::eq(p, nearest_ref))
            .unwrap_or(usize::MAX);
        if seen_designs.contains(&nearest) {
            continue;
        }
        seen_designs.push(nearest);
        distinct.push((x, solution));
    }

    let mut rejected = 0usize;
    for (x, solution) in distinct.into_iter().take(max_candidates.max(1)) {
        let sizing = backout_sizing(model, &solution);
        let Ok(actual) = testbench.evaluate_sizing(&sizing) else {
            rejected += 1;
            continue;
        };
        // Re-run the behavioural PLL on the actual performance.
        let params = PllParams {
            fref: arch.fref,
            divider: arch.divider,
            icp: arch.icp,
            c1: solution.c1,
            c2: solution.c2,
            r1: solution.r1,
            kvco: actual.kvco,
            f0: 0.5 * (actual.fmin + actual.fmax),
            vctrl_ref: 0.5 * (arch.vctrl_lo + arch.vctrl_hi),
            fmin: actual.fmin,
            fmax: actual.fmax,
            ivco: actual.ivco,
            jvco: actual.jvco,
        };
        let lock_time = match lock_times(&[params], sim_cfg) {
            Ok([t]) => t.unwrap_or(f64::INFINITY),
            Err(_) => f64::INFINITY,
        };
        let perf = PllPerformance {
            fmin: actual.fmin,
            fmax: actual.fmax,
            lock_time,
            jitter: pll_jitter_sum(actual.jvco, arch.divider),
            current: actual.ivco + PLL_FIXED_CURRENT,
        };
        if spec.passes(&perf) {
            return Ok(VerifiedSelection {
                x,
                solution,
                sizing,
                actual,
                rejected,
            });
        }
        rejected += 1;
    }
    Err(FlowError::stage(
        "propagate",
        format!(
            "no candidate survived verification-in-the-loop ({rejected} rejected) —              the model over-estimates in this region; increase the characterisation budget"
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

    #[test]
    fn selects_lowest_jitter_spec_compliant_solution() {
        let p = problem();
        let front = vec![
            candidate(&p, vec![1.6e9, 3.0e-3, 30e-12, 3e-12, 4e3]),
            candidate(&p, vec![2.2e9, 4.2e-3, 30e-12, 3e-12, 4e3]),
        ];
        let (x, sol) = select_design(&p, &front).unwrap();
        assert!(sol.meets_spec);
        // The higher-gain/higher-current design has lower VCO jitter on
        // this synthetic front; it should win if both meet spec.
        let other = p.detail(&front[0].x).unwrap();
        if other.meets_spec {
            assert!(sol.jitter <= other.jitter);
        }
        assert_eq!(x.len(), 5);
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
        assert!(matches!(
            select_design(&p, &front),
            Err(FlowError::Stage { .. })
        ));
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
