//! The complete hierarchical flow of the paper, end to end: circuit-level
//! sizing → Monte-Carlo characterisation → combined table model →
//! system-level PLL optimisation → spec propagation → bottom-up yield
//! verification.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example pll_hierarchical                    # quick budgets
//! cargo run --release --example pll_hierarchical -- --full          # paper budgets
//! cargo run --release --example pll_hierarchical -- --run-dir DIR   # checkpoint to DIR
//! cargo run --release --example pll_hierarchical -- --run-dir DIR --resume
//! cargo run --release --example pll_hierarchical -- --run-dir DIR --budget-secs 600
//! cargo run --release --example pll_hierarchical -- --run-dir DIR --trace --report
//! ```
//!
//! With `--run-dir`, each stage's artifact is written to `DIR` as it
//! completes; re-running with the same directory (`--resume` is an
//! alias for documentation's sake — any run with `--run-dir` resumes)
//! skips completed stages. See README.md's failure-handling runbook.
//!
//! `--budget-secs N` caps the whole run's wall clock: a run that blows
//! the budget exits with a *resumable* deadline error, leaving every
//! completed stage checkpointed — re-run with a larger budget (the
//! config digest ignores the budget, so the artifacts still match).
//!
//! `--trace` enables telemetry (equivalent to `HIERSIZER_TELEMETRY=1`):
//! with `--run-dir`, the span trace lands in `DIR/trace.jsonl` and the
//! aggregated metrics in `DIR/metrics.json`. `--report` additionally
//! prints the per-run profile table (stage breakdown, slowest points,
//! solver-vs-overhead split); it implies `--trace`.

use hierflow::flow::{FlowConfig, HierarchicalFlow, TelemetryConfig};
use hierflow::report::{format_table1, format_table2};
use hierflow::{FlowStage, RunBudget};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let want_report = args.iter().any(|a| a == "--report");
    let trace = want_report || args.iter().any(|a| a == "--trace");
    let run_dir = args
        .iter()
        .position(|a| a == "--run-dir")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let budget_secs: Option<u64> = args
        .iter()
        .position(|a| a == "--budget-secs")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok());
    let mut config = if full {
        FlowConfig::paper_scale()
    } else {
        FlowConfig::quick()
    };
    if let Some(secs) = budget_secs {
        config.budget = RunBudget::unlimited().whole_run(Duration::from_secs(secs));
        println!("run budget: {secs} s wall clock\n");
    }
    if trace {
        config.telemetry = TelemetryConfig::enabled();
        match &run_dir {
            Some(dir) => println!("telemetry on: trace and metrics will land in {dir}\n"),
            None => println!("telemetry on (add --run-dir to persist trace.jsonl/metrics.json)\n"),
        }
    }
    println!(
        "hierarchical flow: circuit GA {}x{}, char MC {}, system GA {}x{}, verify MC {}, policy {:?}\n",
        config.circuit_ga.population,
        config.circuit_ga.generations,
        config.char_mc.samples,
        config.system_ga.population,
        config.system_ga.generations,
        config.verify_mc.samples,
        config.degrade,
    );

    let flow = HierarchicalFlow::new(config);
    let result = match &run_dir {
        Some(dir) => {
            println!("checkpointing to {dir} (re-run with the same directory to resume)\n");
            flow.run_with_checkpoints(dir)
        }
        None => flow.run(),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            if e.is_resumable_interruption() {
                eprintln!("flow interrupted: {e}");
                if let Some(dir) = &run_dir {
                    eprintln!(
                        "completed stages are checkpointed in {dir}; \
                         re-run with the same --run-dir (and a larger --budget-secs) to continue"
                    );
                }
            } else {
                eprintln!("flow failed: {e}");
                if let Some(dir) = &run_dir {
                    eprintln!(
                        "completed stages are checkpointed in {dir}; fix and re-run to resume"
                    );
                }
            }
            std::process::exit(1);
        }
    };

    println!("Table 1 — characterised VCO Pareto front:\n");
    println!("{}", format_table1(&report.front));

    println!("Table 2 — system-level solutions:\n");
    println!("{}", format_table2(&report.system_front));

    println!("selected design (the paper's shaded row):\n");
    println!("{}", format_table2(std::slice::from_ref(&report.selected)));

    let s = &report.final_sizing;
    println!(
        "propagated transistor sizing: wn={:.1}u wp={:.1}u wsn={:.1}u wsp={:.1}u l_inv={:.0}n l_starve={:.0}n w_bias={:.1}u\n",
        s.wn * 1e6,
        s.wp * 1e6,
        s.wsn * 1e6,
        s.wsp * 1e6,
        s.l_inv * 1e9,
        s.l_starve * 1e9,
        s.w_bias * 1e6,
    );

    let v = &report.verification;
    println!(
        "bottom-up verification: yield {:.1}% ({}/{} samples, 95% CI [{:.1}%, {:.1}%])",
        100.0 * v.yield_value,
        v.passed,
        v.total,
        100.0 * v.yield_ci.0,
        100.0 * v.yield_ci.1
    );
    println!(
        "evaluations: {} transistor-level (stage 1{}) + {} model-based (stage 4)",
        report.circuit_evaluations,
        if report.circuit_evaluations_this_run == 0 && report.circuit_evaluations > 0 {
            ", resumed from checkpoint"
        } else {
            ""
        },
        report.system_evaluations
    );

    println!("\nflow events ({}):", report.events.len());
    for event in report.events.iter() {
        println!("  {event}");
    }

    // One-screen run summary — printed on every run, no telemetry
    // needed: stage wall clock comes from the always-on report timings,
    // cache and sample figures from the event log.
    println!("\nrun summary:");
    for sp in &report.stage_wall {
        println!("  {:<12} {:>9.3} s", sp.stage, sp.wall_us as f64 / 1e6);
    }
    let total_us: u64 = report.stage_wall.iter().map(|s| s.wall_us).sum();
    println!("  {:<12} {:>9.3} s", "total", total_us as f64 / 1e6);
    for stage in [
        FlowStage::CircuitOpt,
        FlowStage::Characterize,
        FlowStage::Verify,
    ] {
        if let Some((hits, misses, disk_hits, _)) = report.events.cache_stats(stage) {
            let lookups = hits + misses;
            let rate = if lookups == 0 {
                0.0
            } else {
                100.0 * hits as f64 / lookups as f64
            };
            println!(
                "  eval cache [{stage}]: {rate:.1}% hit rate ({hits}/{lookups} lookups, {disk_hits} from disk)"
            );
        }
    }
    let failed_samples: usize = report
        .events
        .iter()
        .filter_map(|e| match e {
            hierflow::FlowEvent::SampleFailures { samples, .. } => Some(samples.len()),
            _ => None,
        })
        .sum();
    let skipped_points = report.events.skipped_points(FlowStage::Characterize).len();
    println!("  failed MC samples: {failed_samples}; skipped pareto points: {skipped_points}");

    if want_report {
        match &report.profile {
            Some(profile) => println!("\n{}", telemetry::report::render(profile)),
            None => println!("\n(no profile: telemetry was disabled at run time)"),
        }
    }
}
