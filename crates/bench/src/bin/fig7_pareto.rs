//! FIG7 — regenerates the paper's Figure 7: the 3-D Pareto-optimal
//! front of the VCO over (jitter, current, gain).
//!
//! ```text
//! cargo run --release -p bench --bin fig7_pareto [-- --full]
//! ```
//!
//! Prints the (jitter, current, gain) series; pipe into any plotter for
//! the 3-D view. The paper's axes: jitter 0.1–0.35 ps, current
//! 2.5–15 mA, gain up to ~3 GHz/V.

use bench::Budget;

fn main() {
    let budget = Budget::from_args();
    let front = budget.front();

    println!(
        "# FIG7: vco pareto front ({} budget), {} points",
        budget.label(),
        front.points.len()
    );
    println!("# jitter_ps  current_mA  gain_MHzV  fmin_GHz  fmax_GHz");
    let mut points: Vec<_> = front.points.iter().collect();
    points.sort_by(|a, b| {
        a.perf
            .jvco
            .partial_cmp(&b.perf.jvco)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for p in &points {
        println!(
            "{:>9.4} {:>11.3} {:>10.0} {:>9.3} {:>9.3}",
            p.perf.jvco * 1e12,
            p.perf.ivco * 1e3,
            p.perf.kvco / 1e6,
            p.perf.fmin / 1e9,
            p.perf.fmax / 1e9,
        );
    }

    // Shape summary: the paper's figure shows jitter improving with
    // current (spending power buys phase noise) across the front.
    let j: Vec<f64> = points.iter().map(|p| p.perf.jvco).collect();
    let i: Vec<f64> = points.iter().map(|p| p.perf.ivco).collect();
    if let Some(corr) = numkit::stats::pearson(&j, &i) {
        println!("# jitter-vs-current correlation: {corr:.3} (paper shape: negative)");
    }
    let g: Vec<f64> = points.iter().map(|p| p.perf.kvco).collect();
    if let Some(corr) = numkit::stats::pearson(&g, &i) {
        println!("# gain-vs-current correlation:   {corr:.3}");
    }
}
