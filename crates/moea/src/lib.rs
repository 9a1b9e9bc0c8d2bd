//! Multi-objective evolutionary optimisation.
//!
//! This crate implements the optimisation machinery the DATE 2009 flow
//! is built on:
//!
//! * [`problem::Problem`] — the trait circuit-sizing tasks implement
//!   (box-bounded variables, minimised objectives, `g(x) ≥ 0`
//!   constraints);
//! * [`nsga2`] — the Non-dominated Sorting Genetic Algorithm II with
//!   constrained-domination tournament selection, simulated binary
//!   crossover and polynomial mutation, exactly the algorithm named by
//!   the paper (§2.1/§3.2);
//! * [`spea2`] — the Strength Pareto Evolutionary Algorithm 2
//!   (Zitzler, Laumanns, Thiele, 2001) on the same variation operators
//!   and slot-keyed supervised evaluation as NSGA-II;
//! * [`de`] — GDE3-style multi-objective differential evolution
//!   (rand/1/bin trials, constrained-dominance selection);
//! * [`zoo`] — a common front-end ([`zoo::run_optimizer`]) that maps a
//!   shared budget onto any of the three optimisers for head-to-head
//!   comparison;
//! * [`sorting`] — fast non-dominated sorting and crowding distance;
//! * [`hypervolume`] — 2-D/3-D hypervolume indicators for ablation
//!   studies;
//! * [`baseline`] — single-objective weighted-sum GA and pure random
//!   search, the comparison points used in the benches.
//!
//! # Examples
//!
//! Minimising the bi-objective Schaffer problem:
//!
//! ```
//! use moea::nsga2::{Nsga2Config, run_nsga2};
//! use moea::problem::{Evaluation, Problem};
//!
//! struct Schaffer;
//!
//! impl Problem for Schaffer {
//!     fn num_vars(&self) -> usize { 1 }
//!     fn bounds(&self, _i: usize) -> (f64, f64) { (-3.0, 3.0) }
//!     fn num_objectives(&self) -> usize { 2 }
//!     fn evaluate(&self, x: &[f64]) -> Evaluation {
//!         Evaluation::feasible(vec![x[0] * x[0], (x[0] - 2.0) * (x[0] - 2.0)])
//!     }
//! }
//!
//! let cfg = Nsga2Config { population: 40, generations: 30, seed: 1, ..Default::default() };
//! let result = run_nsga2(&Schaffer, &cfg);
//! let front = result.pareto_front();
//! assert!(front.len() > 10);
//! // All Pareto solutions lie in [0, 2].
//! assert!(front.iter().all(|ind| (-0.1..=2.1).contains(&ind.x[0])));
//! ```

pub mod baseline;
pub mod de;
pub mod hypervolume;
pub mod nsga2;
mod ops;
pub mod problem;
pub mod sorting;
pub mod spea2;
pub mod zoo;

pub use de::{run_de, run_de_cached, DeConfig, DeResult};
pub use nsga2::{run_nsga2, run_nsga2_cached, Nsga2Config, Nsga2Result};
pub use problem::{Evaluation, Individual, Problem};
pub use spea2::{run_spea2, run_spea2_cached, Spea2Config, Spea2Result};
pub use zoo::{run_optimizer, run_optimizer_cached, OptimizerKind, ZooConfig, ZooResult};
