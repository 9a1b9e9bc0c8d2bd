//! FIG8 — regenerates the paper's Figure 8: the PLL locking-time
//! transient (control voltage and output frequency vs time) for the
//! design the flow selected.
//!
//! ```text
//! cargo run --release -p bench --bin fig8_locktime [-- --full]
//! ```

use behavioral::timesim::{simulate_lock, LockSimConfig};
use bench::Budget;
use hierflow::model::PerfVariationModel;

fn main() {
    let budget = Budget::from_args();
    let report = budget.report();
    let model = PerfVariationModel::from_front(&report.front).expect("model builds");
    let arch = budget.config().arch;
    let x = &report.selected_x;

    let q = model.query(x[0], x[1]).expect("design inside model domain");
    let params = behavioral::params::PllParams {
        fref: arch.fref,
        divider: arch.divider,
        icp: arch.icp,
        c1: x[2],
        c2: x[3],
        r1: x[4],
        kvco: q.kvco,
        f0: 0.5 * (q.fmin + q.fmax),
        vctrl_ref: 0.5 * (arch.vctrl_lo + arch.vctrl_hi),
        fmin: q.fmin,
        fmax: q.fmax,
        ivco: q.ivco,
        jvco: q.jvco,
    };
    params.validate().expect("valid pll parameters");
    let cfg = LockSimConfig {
        max_ref_cycles: 400,
        ..Default::default()
    };
    let result = simulate_lock(&params, &cfg).expect("simulates");

    println!("# FIG8: pll locking transient ({} budget)", budget.label());
    println!(
        "# design: kvco={:.0} MHz/V ivco={:.2} mA c1={:.1} pF c2={:.2} pF r1={:.1} k",
        x[0] / 1e6,
        x[1] * 1e3,
        x[2] * 1e12,
        x[3] * 1e12,
        x[4] / 1e3
    );
    match result.lock_time {
        Some(t) => println!(
            "# lock time: {:.3} us (paper: ~0.9 us, spec < 1 us)",
            t * 1e6
        ),
        None => println!("# loop did not lock within the window"),
    }
    println!("# time_us  vctrl_V  freq_GHz");
    let stride = (result.times.len() / 400).max(1);
    for k in (0..result.times.len()).step_by(stride) {
        println!(
            "{:>9.4} {:>8.4} {:>9.4}",
            result.times[k] * 1e6,
            result.vctrl[k],
            result.freq[k] / 1e9
        );
    }

    println!(
        "# corner lock times: nominal {:.3} us, worst {:.3} us",
        report.selected.lock_time * 1e6,
        report.selected.lock_time_worst * 1e6
    );
}
