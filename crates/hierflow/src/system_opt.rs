//! System-level PLL optimisation (paper §4.5, Table 2): NSGA-II over
//! (Kvco, Ivco, C1, C2, R1) with the VCO's combined performance +
//! variation model in the loop.

use std::sync::Arc;

use behavioral::jitter::jitter_summary;
use behavioral::linear::LoopAnalysis;
use behavioral::params::{PllParams, PLL_FIXED_CURRENT};
use behavioral::spec::PllSpec;
use behavioral::timesim::{lock_times, LockSimConfig};
use moea::problem::{Evaluation, Problem};
use serde::{Deserialize, Serialize};

use crate::error::FlowError;
use crate::model::{PerfVariationModel, VcoQuery};
use variation::yields::RiskObjective;

/// Fixed PLL architecture around the optimised components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PllArchitecture {
    /// Reference frequency (Hz).
    pub fref: f64,
    /// Divider ratio (output = N·fref).
    pub divider: u32,
    /// Charge-pump current (A).
    pub icp: f64,
    /// Bottom of the VCO control range (V) — matches the testbench.
    pub vctrl_lo: f64,
    /// Top of the VCO control range (V).
    pub vctrl_hi: f64,
}

impl Default for PllArchitecture {
    fn default() -> Self {
        PllArchitecture {
            fref: 50e6,
            divider: 18,
            icp: 50e-6,
            vctrl_lo: 0.5,
            vctrl_hi: 1.2,
        }
    }
}

/// One Table-2 row: the system-level designables plus every performance
/// with its nominal/min/max values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemSolution {
    /// VCO gain designable (Hz/V) with corners.
    pub kvco: f64,
    /// Minimum-corner gain.
    pub kvco_min: f64,
    /// Maximum-corner gain.
    pub kvco_max: f64,
    /// VCO current designable (A) with corners.
    pub ivco: f64,
    /// Minimum-corner current.
    pub ivco_min: f64,
    /// Maximum-corner current.
    pub ivco_max: f64,
    /// Loop-filter C1 (F).
    pub c1: f64,
    /// Loop-filter C2 (F).
    pub c2: f64,
    /// Loop-filter R1 (Ω).
    pub r1: f64,
    /// Lock time (s), nominal corner.
    pub lock_time: f64,
    /// Worst lock time across the variation corners (s).
    pub lock_time_worst: f64,
    /// Output jitter sum (s) with corners.
    pub jitter: f64,
    /// Minimum-corner jitter.
    pub jitter_min: f64,
    /// Maximum-corner jitter.
    pub jitter_max: f64,
    /// Total PLL current (A) with corners.
    pub current: f64,
    /// Minimum-corner current.
    pub current_min: f64,
    /// Maximum-corner current.
    pub current_max: f64,
    /// Whether all specs (including corners) pass.
    pub meets_spec: bool,
}

/// The system-level optimisation problem.
pub struct PllSystemProblem {
    model: Arc<PerfVariationModel>,
    arch: PllArchitecture,
    spec: PllSpec,
    sim_cfg: LockSimConfig,
    bounds: [(f64, f64); 5],
    risk: RiskObjective,
}

impl PllSystemProblem {
    /// Creates the problem; variable bounds for (kvco, ivco) come from
    /// the model's Pareto-cloud domain, the loop-filter bounds are the
    /// engineering ranges of the paper's Table 2 scaled to this
    /// architecture.
    pub fn new(
        model: Arc<PerfVariationModel>,
        arch: PllArchitecture,
        spec: PllSpec,
        sim_cfg: LockSimConfig,
    ) -> Self {
        let dom = model.design_domain();
        let bounds = [
            dom[0],           // kvco
            dom[1],           // ivco
            (5e-12, 50e-12),  // c1
            (0.5e-12, 5e-12), // c2
            (1e3, 10e3),      // r1
        ];
        PllSystemProblem {
            model,
            arch,
            spec,
            sim_cfg,
            bounds,
            risk: RiskObjective::NominalSpread,
        }
    }

    /// Sets the risk posture applied to every model query, builder
    /// style. The default, [`RiskObjective::NominalSpread`], keeps the
    /// historical nominal ± 1σ corners bit-for-bit; quantile/CVaR
    /// postures widen the corners the optimiser must satisfy.
    #[must_use]
    pub fn with_risk(mut self, risk: RiskObjective) -> Self {
        self.risk = risk;
        self
    }

    /// The risk posture in use.
    pub fn risk(&self) -> RiskObjective {
        self.risk
    }

    /// The architecture in use.
    pub fn architecture(&self) -> &PllArchitecture {
        &self.arch
    }

    /// The spec window in use.
    pub fn spec(&self) -> &PllSpec {
        &self.spec
    }

    /// Warm-start candidates for the system GA: every characterised
    /// design paired with a small grid of loop-filter variants. The
    /// trusted region of the model is a set of islands around the
    /// characterised points — seeding there turns a needle search into
    /// a refinement.
    pub fn warm_start_seeds(&self) -> Vec<Vec<f64>> {
        let mut seeds = Vec::new();
        for p in self.model.points() {
            for (c1, r1) in [(10e-12, 8e3), (20e-12, 6e3), (30e-12, 4e3)] {
                seeds.push(vec![p.perf.kvco, p.perf.ivco, c1, 2e-12, r1]);
            }
        }
        seeds
    }

    /// Builds the behavioural parameter bundle for one VCO corner.
    fn params_for(&self, q: &VcoQuery, kvco: f64, ivco: f64, jvco: f64) -> PllParams {
        let vctrl_ref = 0.5 * (self.arch.vctrl_lo + self.arch.vctrl_hi);
        PllParams {
            fref: self.arch.fref,
            divider: self.arch.divider,
            icp: self.arch.icp,
            c1: 0.0, // filled by caller
            c2: 0.0,
            r1: 0.0,
            kvco,
            f0: 0.5 * (q.fmin + q.fmax),
            vctrl_ref,
            fmin: q.fmin,
            fmax: q.fmax,
            ivco,
            jvco,
        }
    }

    /// Full corner-aware evaluation of a candidate, producing the
    /// Table-2 row. Used both inside `evaluate` and to print selected
    /// solutions.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] when the design point is outside the model
    /// domain or the loop cannot lock at some corner.
    pub fn detail(&self, x: &[f64]) -> Result<SystemSolution, FlowError> {
        assert_eq!(x.len(), 5, "five system-level designables");
        let (kvco, ivco, c1, c2, r1) = (x[0], x[1], x[2], x[3], x[4]);
        let q = self.model.query_risk(kvco, ivco, self.risk)?;

        let jit = jitter_summary(
            q.jvco,
            q.jvco_min.min(q.jvco),
            q.jvco_max.max(q.jvco),
            self.arch.divider,
        );

        // Lock transient at the three gain corners, stepped together.
        let corners = [
            (q.kvco, q.ivco, q.jvco),
            (q.kvco_min, q.ivco_min, q.jvco_max),
            (q.kvco_max, q.ivco_max, q.jvco_min),
        ]
        .map(|(k, i, j)| PllParams {
            c1,
            c2,
            r1,
            ..self.params_for(&q, k, i, j)
        });
        let locks = lock_times(&corners, &self.sim_cfg)?.map(|t| t.unwrap_or(f64::INFINITY));

        let current = q.ivco + PLL_FIXED_CURRENT;
        let current_min = q.ivco_min + PLL_FIXED_CURRENT;
        let current_max = q.ivco_max + PLL_FIXED_CURRENT;
        let lock_worst = locks.iter().copied().fold(0.0f64, f64::max);

        let meets_spec = q.fmin_worst <= self.spec.f_out_min
            && q.fmax_worst >= self.spec.f_out_max
            && lock_worst <= self.spec.lock_time_max
            && current_max <= self.spec.current_max;

        Ok(SystemSolution {
            kvco: q.kvco,
            kvco_min: q.kvco_min,
            kvco_max: q.kvco_max,
            ivco: q.ivco,
            ivco_min: q.ivco_min,
            ivco_max: q.ivco_max,
            c1,
            c2,
            r1,
            lock_time: locks[0],
            lock_time_worst: lock_worst,
            jitter: jit.nominal,
            jitter_min: jit.min,
            jitter_max: jit.max,
            current,
            current_min,
            current_max,
            meets_spec,
        })
    }
}

impl Problem for PllSystemProblem {
    fn num_vars(&self) -> usize {
        5
    }

    fn bounds(&self, i: usize) -> (f64, f64) {
        self.bounds[i]
    }

    fn num_objectives(&self) -> usize {
        3
    }

    fn num_constraints(&self) -> usize {
        6
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        let (kvco, ivco, c1, c2, r1) = (x[0], x[1], x[2], x[3], x[4]);
        let Ok(q) = self.model.query_risk(kvco, ivco, self.risk) else {
            return Evaluation::failed(3);
        };

        // Stability screen before paying for the transient.
        let mut p_nom = self.params_for(&q, q.kvco, q.ivco, q.jvco);
        p_nom.c1 = c1;
        p_nom.c2 = c2;
        p_nom.r1 = r1;
        if p_nom.validate().is_err() {
            return Evaluation::failed(3);
        }
        let analysis = LoopAnalysis::of(&p_nom);
        // Combined stability margin: phase margin headroom AND the
        // discrete-time bandwidth rule (crossover below fref/10).
        let pm_margin = (analysis.phase_margin_deg - 20.0) / 90.0;
        let bw_margin = (self.arch.fref / 10.0 - analysis.crossover_hz) / (self.arch.fref / 10.0);
        let stability_margin = pm_margin.min(bw_margin);

        let Ok(sol) = self.detail(x) else {
            return Evaluation::failed(3);
        };

        // Cap unlocked corners so the GA still sees a gradient.
        let lock_cap = 20.0 * self.spec.lock_time_max;
        let lock_nom = sol.lock_time.min(lock_cap);
        let lock_worst = sol.lock_time_worst.min(lock_cap);

        Evaluation {
            objectives: vec![lock_nom, sol.jitter, sol.current],
            constraints: vec![
                (self.spec.f_out_min - q.fmin_worst) / self.spec.f_out_min,
                (q.fmax_worst - self.spec.f_out_max) / self.spec.f_out_max,
                (self.spec.lock_time_max - lock_worst) / self.spec.lock_time_max,
                (self.spec.current_max - sol.current_max) / self.spec.current_max,
                stability_margin,
                // Manifold proximity: ≤ 1 means the (kvco, ivco) point is
                // realised by a characterised design neighbourhood.
                1.0 - self.model.manifold_distance(kvco, ivco),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charmodel::{CharPoint, CharacterizedFront, VcoDeltas};
    use crate::vco_eval::VcoPerf;
    use moea::nsga2::{run_nsga2, Nsga2Config};
    use netlist::topology::VcoSizing;

    /// Synthetic model covering 0.35–2.6 GHz with a clean trade-off.
    fn synthetic_model() -> Arc<PerfVariationModel> {
        let n = 14;
        let points = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                CharPoint {
                    sizing: VcoSizing::nominal(),
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
            synthetic_model(),
            PllArchitecture::default(),
            PllSpec::default(),
            LockSimConfig::default(),
        )
    }

    #[test]
    fn detail_produces_full_table2_row() {
        let p = problem();
        let x = [1.6e9, 3.0e-3, 30e-12, 3e-12, 4e3];
        let sol = p.detail(&x).unwrap();
        assert!(sol.kvco_min < sol.kvco && sol.kvco < sol.kvco_max);
        assert!(sol.current > sol.ivco, "fixed block current added");
        assert!(sol.jitter_min <= sol.jitter && sol.jitter <= sol.jitter_max);
        assert!(sol.lock_time.is_finite(), "this loop locks");
        // Jitter sums in the paper's ps window.
        assert!((1e-12..2e-11).contains(&sol.jitter));
    }

    /// The three corners are stepped together; each lane must still
    /// land in its own slot with the lone simulation's bits.
    #[test]
    fn detail_lock_times_match_per_corner_simulations() {
        use behavioral::timesim::simulate_lock;
        let p = problem();
        let (mut locked, mut unlocked) = (0, 0);
        for t in [0.1, 0.5, 0.9] {
            let (kvco, ivco) = (0.8e9 + 1.6e9 * t, 1.5e-3 + 3.0e-3 * t);
            for (c1, c2, r1) in [
                (10e-12, 2e-12, 8e3),
                (30e-12, 3e-12, 4e3),
                (5e-12, 5e-12, 1e3),
            ] {
                let sol = p.detail(&[kvco, ivco, c1, c2, r1]).unwrap();
                let q = p.model.query_risk(kvco, ivco, p.risk).unwrap();
                let lock = |k, i, j| {
                    let params = PllParams {
                        c1,
                        c2,
                        r1,
                        ..p.params_for(&q, k, i, j)
                    };
                    let t = simulate_lock(&params, &p.sim_cfg).unwrap().lock_time;
                    t.unwrap_or(f64::INFINITY)
                };
                let nominal = lock(q.kvco, q.ivco, q.jvco);
                let low = lock(q.kvco_min, q.ivco_min, q.jvco_max);
                let high = lock(q.kvco_max, q.ivco_max, q.jvco_min);
                let worst = nominal.max(low).max(high);
                assert_eq!(sol.lock_time.to_bits(), nominal.to_bits());
                assert_eq!(sol.lock_time_worst.to_bits(), worst.to_bits());
                if nominal.is_finite() {
                    locked += 1;
                }
                if worst.is_infinite() {
                    unlocked += 1;
                }
            }
        }
        assert!(
            locked > 0 && unlocked > 0,
            "{locked} locked, {unlocked} unlocked"
        );
    }

    /// The risk knob is conservative: CVaR corners contain the nominal
    /// ± 1σ corners, and the default posture reproduces the historical
    /// evaluation bit-for-bit.
    #[test]
    fn risk_posture_widens_the_corners_the_optimiser_sees() {
        let x = [1.6e9, 3.0e-3, 30e-12, 3e-12, 4e3];
        let base = problem().detail(&x).unwrap();
        let nominal = problem()
            .with_risk(RiskObjective::NominalSpread)
            .detail(&x)
            .unwrap();
        assert_eq!(base, nominal, "NominalSpread is the identity posture");

        let averse = problem()
            .with_risk(RiskObjective::Cvar(0.95))
            .detail(&x)
            .unwrap();
        assert!(averse.kvco_min < base.kvco_min);
        assert!(averse.kvco_max > base.kvco_max);
        assert!(averse.ivco_max > base.ivco_max);
        assert!(averse.jitter_max > base.jitter_max);
        assert!(averse.current_max > base.current_max);
        assert_eq!(averse.kvco, base.kvco, "nominal column unchanged");
    }

    #[test]
    fn out_of_domain_design_fails_cleanly() {
        let p = problem();
        let eval = p.evaluate(&[9e9, 3e-3, 30e-12, 3e-12, 4e3]);
        assert!(!eval.is_feasible());
        assert!(eval.objectives.iter().all(|o| o.is_infinite()));
    }

    #[test]
    fn constraints_reward_covering_the_band() {
        let p = problem();
        // High-gain end covers 0.5–1.2 GHz even at worst case.
        let good = p.evaluate(&[2.2e9, 4.2e-3, 30e-12, 3e-12, 4e3]);
        assert!(
            good.constraints[0] > 0.0 && good.constraints[1] > 0.0,
            "coverage constraints should pass at the high-gain end: {:?}",
            good.constraints
        );
        // Low end cannot reach 1.2 GHz... (fmax 1.5 GHz at t=0 — still
        // covers; shrink check to the fmin side instead).
        let low = p.evaluate(&[0.85e9, 1.6e-3, 30e-12, 3e-12, 4e3]);
        // fmin at the low end is 0.30 GHz < 0.5 GHz → passes coverage too;
        // both candidates should therefore be feasible on constraints 0-1.
        assert!(low.constraints[0] > 0.0);
    }

    #[test]
    fn unstable_filter_violates_stability_constraint() {
        let p = problem();
        // Tiny R1 → no zero → vanishing phase margin.
        let eval = p.evaluate(&[1.6e9, 3.0e-3, 5e-12, 5e-12, 1e3]);
        assert!(
            eval.constraints[4] < 0.2,
            "stability margin should be small/negative: {:?}",
            eval.constraints[4]
        );
    }

    #[test]
    fn tiny_system_ga_finds_feasible_solutions() {
        let p = problem();
        let cfg = Nsga2Config {
            population: 16,
            generations: 6,
            seed: 5,
            eval_threads: 2,
            ..Default::default()
        };
        let result = run_nsga2(&p, &cfg);
        let front = result.pareto_front();
        assert!(
            !front.is_empty(),
            "system-level GA should find feasible PLL designs"
        );
        // Every feasible front member meets the hard constraints.
        for ind in &front {
            assert!(ind.is_feasible());
            let sol = p.detail(&ind.x).unwrap();
            assert!(sol.lock_time <= PllSpec::default().lock_time_max * 20.0);
        }
    }
}
