//! ABL-INTERP — ablation of the paper's interpolation choice: cubic
//! spline (`"3E"`) vs quadratic vs linear 1-D table models, and IDW vs
//! RBF scattered models, measured as leave-one-out error on the
//! characterised Pareto front.
//!
//! ```text
//! cargo run --release -p bench --bin abl_interp [-- --full]
//! ```

use bench::Budget;
use tablemodel::interp::Table1d;
use tablemodel::scattered::{ScatterMethod, ScatteredTable};

fn main() {
    let budget = Budget::from_args();
    let front = budget.front();
    let mut points: Vec<_> = front.points.clone();
    points.sort_by(|a, b| a.perf.kvco.partial_cmp(&b.perf.kvco).unwrap());
    let n = points.len();
    if n < 4 {
        eprintln!("need at least 4 characterised points, got {n}");
        return;
    }

    println!("# ABL-INTERP: leave-one-out error of the table models ({n} points)\n");

    // 1-D models: kvco -> jvco along the sorted front (interior points
    // only — no extrapolation, matching the paper's "3E").
    println!("## 1-D kvco->jvco table (relative LOO error, interior points)");
    for ctrl in ["1C", "2C", "3C"] {
        let mut errs = Vec::new();
        for hold in 1..n - 1 {
            let xs: Vec<f64> = points
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != hold)
                .map(|(_, p)| p.perf.kvco)
                .collect();
            let ys: Vec<f64> = points
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != hold)
                .map(|(_, p)| p.perf.jvco)
                .collect();
            let Ok(table) = Table1d::new(xs, ys, ctrl.parse().unwrap()) else {
                continue;
            };
            if let Ok(pred) = table.eval(points[hold].perf.kvco) {
                let truth = points[hold].perf.jvco;
                errs.push(((pred - truth) / truth).abs());
            }
        }
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        println!(
            "  degree {} : mean |rel err| = {:.4} ({} points)",
            &ctrl[..1],
            mean,
            errs.len()
        );
    }

    // Scattered models: (kvco, ivco) -> jvco.
    println!("\n## scattered (kvco, ivco)->jvco (relative LOO error)");
    for (name, method) in [
        ("IDW p=2", ScatterMethod::Idw { power: 2.0 }),
        ("IDW p=4", ScatterMethod::Idw { power: 4.0 }),
        ("RBF gaussian", ScatterMethod::Rbf { shape: 1.5 }),
    ] {
        let mut errs = Vec::new();
        for hold in 0..n {
            let pts: Vec<Vec<f64>> = points
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != hold)
                .map(|(_, p)| vec![p.perf.kvco, p.perf.ivco])
                .collect();
            let vals: Vec<f64> = points
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != hold)
                .map(|(_, p)| p.perf.jvco)
                .collect();
            let Ok(table) = ScatteredTable::new(pts, vals, method) else {
                continue;
            };
            let table = table.with_margin(0.2);
            if let Ok(pred) = table.eval(&[points[hold].perf.kvco, points[hold].perf.ivco]) {
                let truth = points[hold].perf.jvco;
                errs.push(((pred - truth) / truth).abs());
            }
        }
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        println!(
            "  {name:<12}: mean |rel err| = {:.4} ({} points)",
            mean,
            errs.len()
        );
    }

    println!("\n# paper choice: cubic splines (\"3E\"); the ablation shows whether");
    println!("# the extra smoothness helps at this front density.");
}
