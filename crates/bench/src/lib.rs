//! Shared plumbing for the experiment harnesses: budget selection
//! (`--full` = paper scale), artifact caching under `target/experiments/`
//! so the expensive circuit-level stages are computed once and reused by
//! every table/figure binary.

use std::path::PathBuf;

use hierflow::charmodel::{characterize_front_with, CharacterizedFront};
use hierflow::vco_problem::VcoSizingProblem;
use hierflow::{DegradePolicy, FlowEvents, VcoTestbench};
use moea::nsga2::{run_nsga2, Nsga2Config};
use variation::mc::{McConfig, MonteCarlo};
use variation::process::ProcessSpec;

/// Experiment budget, selected by the `--full` CLI flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Scaled-down budgets that finish in minutes on a laptop.
    Quick,
    /// The paper's budgets (§4.2–4.5): 100×30 GA, 100-sample MC,
    /// 500-sample verification. `yield_verify --full` builds its front
    /// from scratch and verifies it in about 85 s on 2 vCPUs.
    Full,
}

impl Budget {
    /// Reads the budget from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Budget::Full
        } else {
            Budget::Quick
        }
    }

    /// Label used in artifact file names and printouts.
    pub fn label(self) -> &'static str {
        match self {
            Budget::Quick => "quick",
            Budget::Full => "full",
        }
    }

    /// Circuit-level GA budget.
    pub fn circuit_ga(self) -> Nsga2Config {
        match self {
            Budget::Quick => Nsga2Config {
                population: 40,
                generations: 12,
                seed: 2009,
                eval_threads: 2,
                axial_seeds: true,
                ..Default::default()
            },
            Budget::Full => Nsga2Config {
                population: 100,
                generations: 30,
                seed: 2009,
                eval_threads: 2,
                axial_seeds: true,
                ..Default::default()
            },
        }
    }

    /// Characterisation Monte-Carlo budget (paper: 100).
    pub fn char_mc(self) -> McConfig {
        McConfig {
            samples: match self {
                Budget::Quick => 24,
                Budget::Full => 100,
            },
            seed: 42,
            threads: 2,
            sampler: variation::sampler::SamplerKind::PlainMc,
        }
    }

    /// Verification Monte-Carlo budget (paper: 500).
    pub fn verify_mc(self) -> McConfig {
        McConfig {
            samples: match self {
                Budget::Quick => 60,
                Budget::Full => 500,
            },
            seed: 99,
            threads: 2,
            sampler: variation::sampler::SamplerKind::PlainMc,
        }
    }

    /// Cap on characterised Pareto points.
    pub fn max_char_points(self) -> usize {
        match self {
            Budget::Quick => 12,
            Budget::Full => 24,
        }
    }
}

/// Directory for cached experiment artifacts.
pub fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Loads the characterised VCO Pareto front for a budget, computing and
/// caching it on first use. Every table/figure binary shares this
/// artifact so the expensive stage-1/stage-2 work runs once.
pub fn load_or_build_front(budget: Budget) -> CharacterizedFront {
    let path = artifact_dir().join(format!("front_{}.json", budget.label()));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(front) = serde_json::from_str::<CharacterizedFront>(&text) {
            eprintln!("loaded cached front from {}", path.display());
            return front;
        }
    }
    eprintln!(
        "building characterised front ({} budget) — this runs transistor-level NSGA-II + MC...",
        budget.label()
    );
    let testbench = VcoTestbench::default();
    // Specification propagation: the PLL band becomes circuit-level
    // coverage constraints (paper Fig 3).
    let problem = VcoSizingProblem::with_band(testbench.clone(), 500e6, 1.2e9);
    let result = run_nsga2(&problem, &budget.circuit_ga());
    let mut front = result.pareto_front();
    eprintln!(
        "  stage 1 done: {} evaluations, {} pareto designs",
        result.evaluations,
        front.len()
    );
    thin(&mut front, budget.max_char_points());
    let engine = MonteCarlo::new(ProcessSpec::default());
    // Long experiment runs absorb solver hiccups (retry relaxed, then
    // drop the point) rather than discarding the stage-1 investment.
    let mut events = FlowEvents::new();
    let characterized = characterize_front_with(
        &front,
        &testbench,
        &engine,
        &budget.char_mc(),
        DegradePolicy::RetryRelaxed {
            max_retries: 2,
            min_surviving_points: 2,
        },
        None,
        &mut events,
    )
    .expect("characterisation succeeds");
    for event in events.iter() {
        eprintln!("  [event] {event}");
    }
    let json = serde_json::to_string(&characterized).expect("serialise front");
    std::fs::write(&path, json).expect("cache front");
    eprintln!("  stage 2 done: cached to {}", path.display());
    characterized
}

fn thin(front: &mut Vec<moea::problem::Individual>, max_points: usize) {
    if front.len() <= max_points || max_points < 2 {
        return;
    }
    // Every feasible point covers the band; order along current so the
    // power/jitter trade-off survives thinning.
    front.sort_by(|a, b| {
        a.objectives[1]
            .partial_cmp(&b.objectives[1])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let n = front.len();
    let picked: Vec<_> = (0..max_points)
        .map(|k| front[k * (n - 1) / (max_points - 1)].clone())
        .collect();
    *front = picked;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_labels_and_scaling() {
        assert_eq!(Budget::Quick.label(), "quick");
        assert_eq!(Budget::Full.label(), "full");
        assert_eq!(Budget::Full.circuit_ga().population, 100);
        assert_eq!(Budget::Full.circuit_ga().generations, 30);
        assert_eq!(Budget::Full.char_mc().samples, 100);
        assert_eq!(Budget::Full.verify_mc().samples, 500);
        assert!(Budget::Quick.char_mc().samples < 100);
    }

    #[test]
    fn artifact_dir_is_created() {
        let d = artifact_dir();
        assert!(d.exists());
    }
}
