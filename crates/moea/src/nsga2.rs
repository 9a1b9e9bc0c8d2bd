//! NSGA-II: elitist non-dominated sorting genetic algorithm
//! (Deb, Pratap, Agarwal, Meyarivan, 2002) — the optimiser named by the
//! paper for both the circuit-level and system-level stages.
//!
//! Candidate evaluation runs on the supervised [`exec`] pool: workers
//! claim candidates from a shared cursor (a slow simulation no longer
//! sets the generation's wall clock through its static chunk), panics
//! and per-task deadline overruns become failed candidates, and
//! [`run_nsga2_cached`] threads a cancellation token and batch
//! deadline through every generation.

use evalcache::EvalCache;
use exec::{AbortReason, ExecPolicy, PoolStats};
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use numkit::dist;

use crate::ops::{
    environmental_selection, evaluate_all, initial_candidates, polynomial_mutation, sbx_crossover,
};
use crate::problem::{Evaluation, Individual, Problem};
use crate::sorting::{crowding_distance, fast_non_dominated_sort};
use telemetry::names;

/// NSGA-II configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Nsga2Config {
    /// Population size (paper §4.2 uses 100).
    pub population: usize,
    /// Number of generations (paper §4.2 uses 30).
    pub generations: usize,
    /// Crossover probability.
    pub crossover_prob: f64,
    /// Per-variable mutation probability; `None` → `1/num_vars`.
    pub mutation_prob: Option<f64>,
    /// SBX distribution index (larger → children closer to parents).
    pub eta_crossover: f64,
    /// Polynomial-mutation distribution index.
    pub eta_mutation: f64,
    /// RNG seed — runs are deterministic given the seed.
    pub seed: u64,
    /// Number of worker threads for evaluation (1 = serial).
    pub eval_threads: usize,
    /// Include axial design-of-experiments seeds in the initial
    /// population: the box centre, the two diagonal corners, and per
    /// variable one point at each bound with the others centred
    /// (2·n_vars + 3 points). Gives the GA structured coverage of the
    /// parameter axes and extremes, which matters for narrow feasible
    /// corners under tight budgets.
    pub axial_seeds: bool,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population: 100,
            generations: 30,
            crossover_prob: 0.9,
            mutation_prob: None,
            eta_crossover: 15.0,
            eta_mutation: 20.0,
            seed: 0,
            eval_threads: 1,
            axial_seeds: false,
        }
    }
}

impl Nsga2Config {
    fn validate(&self) {
        assert!(self.population >= 4, "population must be at least 4");
        assert!(self.population.is_multiple_of(2), "population must be even");
        assert!(self.generations >= 1, "need at least one generation");
        assert!(
            (0.0..=1.0).contains(&self.crossover_prob),
            "crossover probability must be in [0,1]"
        );
        assert!(self.eval_threads >= 1, "need at least one eval thread");
    }
}

/// Per-generation convergence record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation index (0 = initial population).
    pub generation: usize,
    /// Feasible individuals in the population.
    pub feasible: usize,
    /// Size of the current first front.
    pub front_size: usize,
    /// Best (minimum) value of the first objective among feasible
    /// individuals, or `NaN` when none are feasible.
    pub best_first_objective: f64,
}

/// Outcome of an NSGA-II run.
#[derive(Debug, Clone)]
pub struct Nsga2Result {
    /// Final population (sorted: best fronts first).
    pub population: Vec<Individual>,
    /// Total candidate evaluations performed.
    pub evaluations: usize,
    /// Generation count actually run.
    pub generations: usize,
    /// Per-generation convergence history (initial population plus one
    /// entry per generation).
    pub history: Vec<GenerationStats>,
    /// Accumulated scheduling statistics of every evaluation batch
    /// (worker utilisation, stolen tasks, panics, timeouts, retries).
    pub pool: PoolStats,
}

impl Nsga2Result {
    /// The feasible non-dominated front of the final population.
    pub fn pareto_front(&self) -> Vec<Individual> {
        let fronts = fast_non_dominated_sort(&self.population);
        let Some(first) = fronts.first() else {
            return Vec::new();
        };
        first
            .iter()
            .map(|&i| self.population[i].clone())
            .filter(|ind| ind.is_feasible())
            .collect()
    }
}

/// Runs NSGA-II on `problem`.
///
/// # Panics
///
/// Panics on invalid configuration (population < 4 or odd, zero
/// generations) or if the problem reports zero variables/objectives.
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn run_nsga2<P: Problem>(problem: &P, cfg: &Nsga2Config) -> Nsga2Result {
    run_nsga2_cached(problem, cfg, &[], &ExecPolicy::default(), None)
        .expect("an unsupervised run has no cancellation or deadline to abort it")
}

/// Runs NSGA-II with warm starts, an execution policy and an optional
/// evaluation memo cache.
///
/// `seeds` are warm-start candidates injected into the initial
/// population (clamped to bounds; excess beyond the population size is
/// dropped). Warm starts matter when the feasible region is a set of
/// small islands — e.g. a system-level problem whose trusted design
/// points come from a characterised library.
///
/// Candidate evaluation uses the supervised pool (worker threads from
/// `exec.threads` when set, else `cfg.eval_threads`): a per-task
/// deadline turns slow candidates into failed evaluations, and the
/// cancel token and batch deadline are honoured between tasks and
/// between generations.
///
/// With a cache, each generation's batch is first deduplicated by exact
/// genome bit pattern (SBX and elitism re-propose identical genomes
/// across generations), then probed against the cache; only misses
/// reach the evaluator. Because the default cache key is the exact
/// IEEE-754 bit pattern and the evaluator is deterministic, the
/// returned population is bit-identical to an uncached run —
/// [`Nsga2Result::evaluations`] then counts *evaluator invocations*
/// (misses), not candidates. Hit/miss counters accumulate on `cache`
/// for the caller to report.
///
/// # Errors
///
/// Returns the [`AbortReason`] when the run was cancelled or its batch
/// deadline expired; partial GA state is discarded (a half-evolved
/// population is not a result).
///
/// # Panics
///
/// As [`run_nsga2`]; additionally if any seed has the wrong dimension.
pub fn run_nsga2_cached<P: Problem>(
    problem: &P,
    cfg: &Nsga2Config,
    seeds: &[Vec<f64>],
    exec: &ExecPolicy,
    cache: Option<&EvalCache<Evaluation>>,
) -> Result<Nsga2Result, AbortReason> {
    cfg.validate();
    assert!(problem.num_vars() > 0, "problem has no variables");
    assert!(problem.num_objectives() > 0, "problem has no objectives");

    let mut policy = exec.clone();
    if policy.threads == 0 {
        policy.threads = cfg.eval_threads;
    }
    let mut pool = PoolStats::default();

    let mut rng = dist::seeded_rng(cfg.seed);
    let bounds = problem.all_bounds();
    let pm = cfg.mutation_prob.unwrap_or(1.0 / bounds.len() as f64);
    let mut evaluations = 0usize;

    // Warm starts, then axial DOE seeds, then Latin hypercube.
    let initial = initial_candidates(&bounds, cfg.population, cfg.axial_seeds, seeds, &mut rng);
    let mut population = evaluate_all(
        problem,
        initial,
        &policy,
        &mut pool,
        cache,
        &mut evaluations,
    )?;
    let mut history = vec![generation_stats(0, &population)];

    for gen in 0..cfg.generations {
        let gen_start = telemetry::enabled().then(std::time::Instant::now);
        if policy.cancel.is_cancelled() {
            return Err(AbortReason::Cancelled);
        }
        if policy.batch_deadline.is_some_and(|d| d.expired()) {
            return Err(AbortReason::DeadlineExceeded);
        }
        // Selection + variation produce an offspring population.
        let ranks = rank_and_crowd(&population);
        let mut offspring_x = Vec::with_capacity(cfg.population);
        while offspring_x.len() < cfg.population {
            let p1 = tournament(&population, &ranks, &mut rng);
            let p2 = tournament(&population, &ranks, &mut rng);
            let (mut c1, mut c2) = if rng.random::<f64>() < cfg.crossover_prob {
                sbx_crossover(
                    &population[p1].x,
                    &population[p2].x,
                    &bounds,
                    cfg.eta_crossover,
                    &mut rng,
                )
            } else {
                (population[p1].x.clone(), population[p2].x.clone())
            };
            polynomial_mutation(&mut c1, &bounds, pm, cfg.eta_mutation, &mut rng);
            polynomial_mutation(&mut c2, &bounds, pm, cfg.eta_mutation, &mut rng);
            offspring_x.push(c1);
            if offspring_x.len() < cfg.population {
                offspring_x.push(c2);
            }
        }
        let offspring = evaluate_all(
            problem,
            offspring_x,
            &policy,
            &mut pool,
            cache,
            &mut evaluations,
        )?;

        // Elitist environmental selection on parents ∪ offspring.
        let mut combined = population;
        combined.extend(offspring);
        population = environmental_selection(combined, cfg.population);
        history.push(generation_stats(gen + 1, &population));
        if let Some(start) = gen_start {
            telemetry::observe_secs(names::MOEA_GENERATION_SECONDS, start.elapsed());
        }
    }

    Ok(Nsga2Result {
        population,
        evaluations,
        generations: cfg.generations,
        history,
        pool,
    })
}

fn generation_stats(generation: usize, population: &[Individual]) -> GenerationStats {
    let feasible = population.iter().filter(|i| i.is_feasible()).count();
    let fronts = fast_non_dominated_sort(population);
    let front_size = fronts.first().map_or(0, |f| f.len());
    let best_first_objective = population
        .iter()
        .filter(|i| i.is_feasible())
        .map(|i| i.objectives[0])
        .fold(
            f64::NAN,
            |acc, v| if acc.is_nan() || v < acc { v } else { acc },
        );
    GenerationStats {
        generation,
        feasible,
        front_size,
        best_first_objective,
    }
}

/// (rank, crowding) per individual, used by tournament selection.
fn rank_and_crowd(pop: &[Individual]) -> Vec<(usize, f64)> {
    let fronts = fast_non_dominated_sort(pop);
    let mut out = vec![(0usize, 0.0f64); pop.len()];
    for (rank, front) in fronts.iter().enumerate() {
        let dist = crowding_distance(pop, front);
        for (k, &i) in front.iter().enumerate() {
            out[i] = (rank, dist[k]);
        }
    }
    out
}

/// Binary tournament on (rank, crowding distance).
fn tournament(pop: &[Individual], ranks: &[(usize, f64)], rng: &mut StdRng) -> usize {
    let a = rng.random_range(0..pop.len());
    let b = rng.random_range(0..pop.len());
    let (ra, da) = ranks[a];
    let (rb, db) = ranks[b];
    if ra < rb || (ra == rb && da > db) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::pareto_dominates;

    /// ZDT1: 30-var benchmark with known Pareto front f2 = 1 − √f1.
    struct Zdt1;

    impl Problem for Zdt1 {
        fn num_vars(&self) -> usize {
            10
        }
        fn bounds(&self, _i: usize) -> (f64, f64) {
            (0.0, 1.0)
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&self, x: &[f64]) -> Evaluation {
            let f1 = x[0];
            let g = 1.0 + 9.0 * x[1..].iter().sum::<f64>() / (x.len() - 1) as f64;
            let f2 = g * (1.0 - (f1 / g).sqrt());
            Evaluation::feasible(vec![f1, f2])
        }
    }

    /// Constrained single-variable problem: minimise (x², (x−2)²) s.t. x ≥ 1.
    struct ConstrainedSchaffer;

    impl Problem for ConstrainedSchaffer {
        fn num_vars(&self) -> usize {
            1
        }
        fn bounds(&self, _i: usize) -> (f64, f64) {
            (-3.0, 3.0)
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn num_constraints(&self) -> usize {
            1
        }
        fn evaluate(&self, x: &[f64]) -> Evaluation {
            Evaluation {
                objectives: vec![x[0] * x[0], (x[0] - 2.0) * (x[0] - 2.0)],
                constraints: vec![x[0] - 1.0],
            }
        }
    }

    #[test]
    fn zdt1_front_approaches_analytic() {
        let cfg = Nsga2Config {
            population: 60,
            generations: 60,
            seed: 3,
            ..Default::default()
        };
        let result = run_nsga2(&Zdt1, &cfg);
        let front = result.pareto_front();
        assert!(front.len() >= 20, "front size {}", front.len());
        // Mean distance to the analytic front f2 = 1 - sqrt(f1) is small.
        let mean_err: f64 = front
            .iter()
            .map(|ind| {
                let f1 = ind.objectives[0];
                (ind.objectives[1] - (1.0 - f1.sqrt())).abs()
            })
            .sum::<f64>()
            / front.len() as f64;
        assert!(mean_err < 0.25, "mean distance to true front {mean_err}");
    }

    #[test]
    fn front_is_mutually_nondominated() {
        let cfg = Nsga2Config {
            population: 40,
            generations: 20,
            seed: 5,
            ..Default::default()
        };
        let result = run_nsga2(&Zdt1, &cfg);
        let front = result.pareto_front();
        for a in &front {
            for b in &front {
                if a.x != b.x {
                    assert!(!pareto_dominates(&a.objectives, &b.objectives));
                }
            }
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let cfg = Nsga2Config {
            population: 20,
            generations: 10,
            seed: 11,
            ..Default::default()
        };
        let a = run_nsga2(&Zdt1, &cfg);
        let b = run_nsga2(&Zdt1, &cfg);
        assert_eq!(a.population, b.population);
        let cfg2 = Nsga2Config { seed: 12, ..cfg };
        let c = run_nsga2(&Zdt1, &cfg2);
        assert_ne!(a.population, c.population);
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let cfg = Nsga2Config {
            population: 24,
            generations: 8,
            seed: 9,
            eval_threads: 1,
            ..Default::default()
        };
        let serial = run_nsga2(&Zdt1, &cfg);
        let cfg_par = Nsga2Config {
            eval_threads: 4,
            ..cfg
        };
        let parallel = run_nsga2(&Zdt1, &cfg_par);
        assert_eq!(serial.population, parallel.population);
    }

    #[test]
    fn constraints_are_respected() {
        let cfg = Nsga2Config {
            population: 40,
            generations: 40,
            seed: 2,
            ..Default::default()
        };
        let result = run_nsga2(&ConstrainedSchaffer, &cfg);
        let front = result.pareto_front();
        assert!(!front.is_empty());
        for ind in &front {
            assert!(
                ind.x[0] >= 1.0 - 1e-9,
                "constraint x >= 1 violated: {}",
                ind.x[0]
            );
        }
    }

    #[test]
    fn warm_start_seeds_survive_into_the_search() {
        // A problem whose optimum is a tiny feasible island: only the
        // warm-started run finds it in one generation.
        struct Island;
        impl Problem for Island {
            fn num_vars(&self) -> usize {
                2
            }
            fn bounds(&self, _i: usize) -> (f64, f64) {
                (0.0, 1.0)
            }
            fn num_objectives(&self) -> usize {
                1
            }
            fn num_constraints(&self) -> usize {
                1
            }
            fn evaluate(&self, x: &[f64]) -> Evaluation {
                let d = ((x[0] - 0.123).powi(2) + (x[1] - 0.456).powi(2)).sqrt();
                Evaluation {
                    objectives: vec![d],
                    constraints: vec![0.01 - d], // feasible within 0.01
                }
            }
        }
        let cfg = Nsga2Config {
            population: 12,
            generations: 1,
            seed: 1,
            ..Default::default()
        };
        let cold = run_nsga2(&Island, &cfg);
        let warm = run_nsga2_cached(
            &Island,
            &cfg,
            &[vec![0.123, 0.456]],
            &ExecPolicy::default(),
            None,
        )
        .unwrap();
        assert!(warm.pareto_front().iter().any(|i| i.is_feasible()));
        assert!(warm.pareto_front().iter().any(|i| i.objectives[0] < 1e-12));
        // The cold run almost surely misses the island in one generation.
        let _ = cold;
    }

    #[test]
    fn seeds_are_clamped_to_bounds() {
        let cfg = Nsga2Config {
            population: 8,
            generations: 1,
            seed: 2,
            ..Default::default()
        };
        let result =
            run_nsga2_cached(&Zdt1, &cfg, &[vec![5.0; 10]], &ExecPolicy::default(), None).unwrap();
        for ind in &result.population {
            assert!(ind.x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn axial_seeds_cover_the_bounds() {
        // With axial seeding, a 1-generation run on a problem whose
        // optimum sits at a bound corner finds that bound immediately.
        struct EdgeProblem;
        impl Problem for EdgeProblem {
            fn num_vars(&self) -> usize {
                3
            }
            fn bounds(&self, _i: usize) -> (f64, f64) {
                (0.0, 1.0)
            }
            fn num_objectives(&self) -> usize {
                2
            }
            fn evaluate(&self, x: &[f64]) -> Evaluation {
                Evaluation::feasible(vec![x[0], 1.0 - x[0] + x[1] + x[2]])
            }
        }
        let cfg = Nsga2Config {
            population: 20,
            generations: 1,
            seed: 3,
            axial_seeds: true,
            ..Default::default()
        };
        let result = run_nsga2(&EdgeProblem, &cfg);
        // The axial point x0 = 0 (others centred) is in the population's
        // history: best first objective is exactly 0.
        assert_eq!(result.history[0].best_first_objective, 0.0);
    }

    #[test]
    fn history_tracks_convergence() {
        let cfg = Nsga2Config {
            population: 30,
            generations: 15,
            seed: 8,
            ..Default::default()
        };
        let result = run_nsga2(&Zdt1, &cfg);
        assert_eq!(result.history.len(), 16); // initial + 15 generations
        assert_eq!(result.history[0].generation, 0);
        // Everything feasible on ZDT1.
        assert!(result.history.iter().all(|h| h.feasible == 30));
        // Best f1 never worsens under elitism... (f1 = x0 can trade off;
        // check the LAST entry at least matches the final population).
        let final_best = result
            .population
            .iter()
            .map(|i| i.objectives[0])
            .fold(f64::INFINITY, f64::min);
        let hist_best = result.history.last().unwrap().best_first_objective;
        assert!((final_best - hist_best).abs() < 1e-12);
    }

    #[test]
    fn evaluation_count_is_reported() {
        let cfg = Nsga2Config {
            population: 10,
            generations: 5,
            seed: 1,
            ..Default::default()
        };
        let result = run_nsga2(&Zdt1, &cfg);
        // Initial pop + one offspring pop per generation.
        assert_eq!(result.evaluations, 10 * (5 + 1));
    }

    #[test]
    fn nan_objectives_become_failed_candidates() {
        struct NanProblem;
        impl Problem for NanProblem {
            fn num_vars(&self) -> usize {
                1
            }
            fn bounds(&self, _i: usize) -> (f64, f64) {
                (0.0, 1.0)
            }
            fn num_objectives(&self) -> usize {
                2
            }
            fn evaluate(&self, x: &[f64]) -> Evaluation {
                if x[0] > 0.5 {
                    Evaluation::feasible(vec![f64::NAN, 0.0])
                } else {
                    Evaluation::feasible(vec![x[0], 1.0 - x[0]])
                }
            }
        }
        let cfg = Nsga2Config {
            population: 20,
            generations: 10,
            seed: 4,
            ..Default::default()
        };
        let result = run_nsga2(&NanProblem, &cfg);
        let front = result.pareto_front();
        assert!(!front.is_empty());
        for ind in &front {
            assert!(ind.objectives.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn infinite_objectives_become_failed_candidates() {
        // ±∞ compares fine but saturates crowding-distance arithmetic
        // and shadows every real trade-off; it must be quarantined the
        // same way NaN is.
        struct InfProblem;
        impl Problem for InfProblem {
            fn num_vars(&self) -> usize {
                1
            }
            fn bounds(&self, _i: usize) -> (f64, f64) {
                (0.0, 1.0)
            }
            fn num_objectives(&self) -> usize {
                2
            }
            fn evaluate(&self, x: &[f64]) -> Evaluation {
                if x[0] > 0.5 {
                    Evaluation::feasible(vec![f64::NEG_INFINITY, 0.0])
                } else {
                    Evaluation::feasible(vec![x[0], 1.0 - x[0]])
                }
            }
        }
        let cfg = Nsga2Config {
            population: 20,
            generations: 10,
            seed: 4,
            ..Default::default()
        };
        let result = run_nsga2(&InfProblem, &cfg);
        let front = result.pareto_front();
        assert!(!front.is_empty());
        for ind in &front {
            assert!(
                ind.objectives.iter().all(|v| v.is_finite()),
                "-inf objective survived into the front: {:?}",
                ind.objectives
            );
        }
    }

    #[test]
    fn panicking_evaluator_becomes_failed_candidate() {
        // A panic in evaluate() (index bug, assert, poisoned solver
        // state) must cost one candidate, not the run: serially and
        // with worker threads alike.
        struct PanickyProblem;
        impl Problem for PanickyProblem {
            fn num_vars(&self) -> usize {
                1
            }
            fn bounds(&self, _i: usize) -> (f64, f64) {
                (0.0, 1.0)
            }
            fn num_objectives(&self) -> usize {
                2
            }
            fn evaluate(&self, x: &[f64]) -> Evaluation {
                assert!(x[0] <= 0.7, "solver blew up at x = {}", x[0]);
                Evaluation::feasible(vec![x[0], 1.0 - x[0]])
            }
        }
        // Silence the panic hook for the duration: these panics are the
        // test fixture, not failures worth printing hundreds of times.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = std::panic::catch_unwind(|| {
            let cfg = Nsga2Config {
                population: 20,
                generations: 8,
                seed: 6,
                ..Default::default()
            };
            let serial = run_nsga2(&PanickyProblem, &cfg);
            let cfg_par = Nsga2Config {
                eval_threads: 4,
                ..cfg
            };
            let parallel = run_nsga2(&PanickyProblem, &cfg_par);
            (serial, parallel)
        });
        std::panic::set_hook(hook);
        let (serial, parallel) = run.expect("the GA itself must not panic");
        for result in [&serial, &parallel] {
            let front = result.pareto_front();
            assert!(!front.is_empty());
            for ind in &front {
                assert!(ind.x[0] <= 0.7, "panicking candidate won: {:?}", ind.x);
                assert!(ind.objectives.iter().all(|v| v.is_finite()));
            }
        }
        // Failure handling is deterministic too.
        assert_eq!(serial.population, parallel.population);
    }

    #[test]
    fn supervised_run_reports_pool_stats() {
        let cfg = Nsga2Config {
            population: 20,
            generations: 5,
            seed: 3,
            eval_threads: 4,
            ..Default::default()
        };
        let result = run_nsga2(&Zdt1, &cfg);
        // Initial pop + one offspring batch per generation.
        assert_eq!(result.pool.tasks, 20 * 6);
        assert_eq!(result.pool.completed, 20 * 6);
        assert_eq!(result.pool.workers, 4);
        assert_eq!(result.pool.panics, 0);
    }

    #[test]
    fn cancelled_supervised_run_aborts() {
        let cfg = Nsga2Config {
            population: 16,
            generations: 50,
            seed: 1,
            ..Default::default()
        };
        let token = exec::CancelToken::new();
        token.cancel();
        let policy = ExecPolicy::default().with_cancel(token);
        let err = run_nsga2_cached(&Zdt1, &cfg, &[], &policy, None).unwrap_err();
        assert_eq!(err, AbortReason::Cancelled);
    }

    #[test]
    fn mid_run_cancellation_stops_between_generations() {
        // One worker + a poll budget that expires during generation 2's
        // evaluations: the run aborts instead of finishing 50 gens.
        let cfg = Nsga2Config {
            population: 16,
            generations: 50,
            seed: 1,
            eval_threads: 1,
            ..Default::default()
        };
        let policy = ExecPolicy::default().with_cancel(exec::CancelToken::cancel_after(40));
        let err = run_nsga2_cached(&Zdt1, &cfg, &[], &policy, None).unwrap_err();
        assert_eq!(err, AbortReason::Cancelled);
    }

    #[test]
    fn per_task_deadline_degrades_slow_candidates_without_losing_the_run() {
        // Candidates in the slow corner stall past the deadline; they
        // must become failed evaluations while the rest of the search
        // proceeds.
        struct SlowCorner;
        impl Problem for SlowCorner {
            fn num_vars(&self) -> usize {
                1
            }
            fn bounds(&self, _i: usize) -> (f64, f64) {
                (0.0, 1.0)
            }
            fn num_objectives(&self) -> usize {
                2
            }
            fn evaluate(&self, x: &[f64]) -> Evaluation {
                if x[0] > 0.9 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                Evaluation::feasible(vec![x[0], 1.0 - x[0]])
            }
        }
        let cfg = Nsga2Config {
            population: 12,
            generations: 2,
            seed: 5,
            ..Default::default()
        };
        let policy = ExecPolicy::default().task_deadline(std::time::Duration::from_millis(10));
        let result = run_nsga2_cached(&SlowCorner, &cfg, &[], &policy, None)
            .expect("per-task overruns must not abort the run");
        assert!(result.pool.timeouts > 0, "the slow corner must get hit");
        for ind in result.pareto_front() {
            assert!(
                ind.x[0] <= 0.9,
                "a timed-out candidate must not win: {:?}",
                ind.x
            );
        }
    }

    #[test]
    fn cached_run_is_bit_identical_to_uncached() {
        let cfg = Nsga2Config {
            population: 24,
            generations: 12,
            seed: 7,
            ..Default::default()
        };
        let plain = run_nsga2(&Zdt1, &cfg);
        let cache = EvalCache::new(4096, evalcache::KeyQuantiser::exact(), 0xc0ffee);
        let cached = run_nsga2_cached(&Zdt1, &cfg, &[], &ExecPolicy::default(), Some(&cache))
            .expect("no abort configured");
        assert_eq!(plain.population, cached.population);
        assert_eq!(plain.history.len(), cached.history.len());
        for (a, b) in plain.history.iter().zip(&cached.history) {
            assert_eq!(a, b);
        }
        // The GA re-proposes elite genomes, so the cache must have been
        // exercised and evaluator work must not exceed the plain run's.
        let stats = cache.stats();
        assert!(stats.hits > 0, "elitist duplicates should hit the cache");
        assert!(cached.evaluations <= plain.evaluations);
        assert_eq!(cached.evaluations as u64, stats.misses);
    }

    #[test]
    fn cached_run_with_threads_matches_serial_cached_run() {
        let cfg = Nsga2Config {
            population: 20,
            generations: 8,
            seed: 13,
            ..Default::default()
        };
        let c1 = EvalCache::new(2048, evalcache::KeyQuantiser::exact(), 1);
        let serial = run_nsga2_cached(&Zdt1, &cfg, &[], &ExecPolicy::default(), Some(&c1)).unwrap();
        let c2 = EvalCache::new(2048, evalcache::KeyQuantiser::exact(), 1);
        let cfg_par = Nsga2Config {
            eval_threads: 4,
            ..cfg
        };
        let parallel =
            run_nsga2_cached(&Zdt1, &cfg_par, &[], &ExecPolicy::default(), Some(&c2)).unwrap();
        assert_eq!(serial.population, parallel.population);
    }

    #[test]
    fn warm_cache_eliminates_evaluator_work() {
        let cfg = Nsga2Config {
            population: 16,
            generations: 6,
            seed: 21,
            ..Default::default()
        };
        let cache = EvalCache::new(8192, evalcache::KeyQuantiser::exact(), 5);
        let cold =
            run_nsga2_cached(&Zdt1, &cfg, &[], &ExecPolicy::default(), Some(&cache)).unwrap();
        // Same seed, same cache: every candidate the rerun proposes was
        // already evaluated, so the warm pass does zero evaluator work.
        let warm =
            run_nsga2_cached(&Zdt1, &cfg, &[], &ExecPolicy::default(), Some(&cache)).unwrap();
        assert_eq!(cold.population, warm.population);
        assert_eq!(warm.evaluations, 0, "warm rerun must be all cache hits");
        assert!(cold.evaluations > 0);
    }

    #[test]
    #[should_panic(expected = "population must be even")]
    fn odd_population_panics() {
        let cfg = Nsga2Config {
            population: 25,
            ..Default::default()
        };
        let _ = run_nsga2(&Zdt1, &cfg);
    }
}
