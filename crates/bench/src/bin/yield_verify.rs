//! YIELD — regenerates the paper's §4.5 verification: the design the
//! flow selected with verification-in-the-loop (Fig 3), and the
//! Monte-Carlo verification of its final transistor-level sizing
//! (paper: 500 samples, 100 % yield).
//!
//! ```text
//! cargo run --release -p bench --bin yield_verify [-- --full]
//! ```

use bench::Budget;
use hierflow::FlowStage;

fn main() {
    let budget = Budget::from_args();
    let report = budget.report();
    let selected = &report.selected;
    let s = &report.final_sizing;
    // What the in-loop check judged: the snapped design's
    // characterised nominal.
    let actual = report
        .front
        .points
        .iter()
        .find(|p| p.sizing == *s)
        .expect("the final sizing is a characterised design")
        .perf;

    println!(
        "# YIELD: bottom-up verification ({} budget)",
        budget.label()
    );
    println!(
        "# selected (model): kvco={:.0} MHz/V ivco={:.2} mA — {} candidate(s) rejected in-loop",
        selected.kvco / 1e6,
        selected.ivco * 1e3,
        report.events.skipped_points(FlowStage::Verify).len()
    );
    println!(
        "# actual transistor-level: kvco={:.0} MHz/V ivco={:.2} mA jvco={:.3} ps fmin={:.3} GHz fmax={:.3} GHz",
        actual.kvco / 1e6,
        actual.ivco * 1e3,
        actual.jvco * 1e12,
        actual.fmin / 1e9,
        actual.fmax / 1e9
    );
    println!(
        "# propagated sizing: wn={:.1}u wp={:.1}u wsn={:.1}u wsp={:.1}u l_inv={:.0}n l_starve={:.0}n w_bias={:.1}u",
        s.wn * 1e6,
        s.wp * 1e6,
        s.wsn * 1e6,
        s.wsp * 1e6,
        s.l_inv * 1e9,
        s.l_starve * 1e9,
        s.w_bias * 1e6
    );

    let v = &report.verification;
    println!(
        "# verified yield: {:.1}% ({}/{}, 95% CI [{:.1}%, {:.1}%])",
        100.0 * v.yield_value,
        v.passed,
        v.total,
        100.0 * v.yield_ci.0,
        100.0 * v.yield_ci.1
    );
    println!(
        "# evaluation failures (stopped oscillating): {}",
        v.evaluation_failures
    );
    println!("# paper: 500-sample MC on the final design confirmed 100% yield");
}
