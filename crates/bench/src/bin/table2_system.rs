//! TAB2 — regenerates the paper's Table 2: PLL system-level solution
//! samples from NSGA-II over (Kvco, Ivco, C1, C2, R1) with the VCO
//! performance + variation model in the loop. Every performance carries
//! nominal/min/max values propagated through the variation model. The
//! shaded row is the design the flow selected and verified.
//!
//! ```text
//! cargo run --release -p bench --bin table2_system [-- --full]
//! ```

use bench::Budget;
use hierflow::report::format_table2;

fn main() {
    let budget = Budget::from_args();
    let report = budget.report();

    println!(
        "# TAB2: pll system-level solution samples ({} budget, {} model evaluations)\n",
        budget.label(),
        report.system_evaluations
    );
    println!("{}", format_table2(&report.system_front));
    println!("# selected design (paper's shaded row):\n");
    println!("{}", format_table2(&[report.selected]));
}
