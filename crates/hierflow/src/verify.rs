//! Bottom-up verification (paper §4.5): Monte Carlo on the final
//! transistor-level design, re-running the behavioural PLL per sample
//! and confirming the predicted yield.

use behavioral::jitter::pll_jitter_sum;
use behavioral::params::{PllParams, PLL_FIXED_CURRENT};
use behavioral::spec::{PllPerformance, PllSpec};
use behavioral::timesim::{lock_times, LockSimConfig};
use evalcache::EvalCache;
use exec::{ExecPolicy, TaskFailure};
use netlist::topology::VcoSizing;
use numkit::stats::wilson_interval;
use serde::{Deserialize, Serialize};
use variation::mc::{McConfig, MonteCarlo};

use crate::error::FlowError;
use crate::events::FlowStage;
use crate::system_opt::PllArchitecture;
use crate::vco_eval::{VcoPerf, VcoTestbench};

/// Verification outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// Samples meeting every PLL spec.
    pub passed: usize,
    /// Total Monte-Carlo samples.
    pub total: usize,
    /// Yield point estimate.
    pub yield_value: f64,
    /// 95 % Wilson confidence bounds on the yield.
    pub yield_ci: (f64, f64),
    /// Per-sample VCO performances (for post-mortem analysis).
    pub vco_samples: Vec<VcoPerf>,
    /// Samples whose transistor-level evaluation failed outright
    /// (counted as spec failures).
    pub evaluation_failures: usize,
}

/// Runs the bottom-up verification: `mc.samples` transistor-level
/// Monte-Carlo evaluations of the final sizing, each fed through the
/// behavioural PLL with the loop filter of the selected solution, then
/// checked against the spec.
///
/// The samples run under `exec`: a fired cancel token or an expired
/// batch deadline stops the Monte Carlo at the next sample claim and
/// returns the interruption without recording it; the caller owns that
/// record.
///
/// An optional evaluation memo cache memoises each `(sizing, sample)`
/// measurement, as characterisation does: a resumed run, or another
/// run of the same configuration sharing the cache's disk tier,
/// replays the samples' metric vectors instead of re-simulating. The
/// report is bit-identical with and without the cache as long as its
/// keys are exact; only successful samples are memoised.
///
/// # Errors
///
/// Returns [`FlowError::Stage`] when every sample fails to evaluate
/// (the design is broken, not merely low-yield), and
/// [`FlowError::Cancelled`] or [`FlowError::DeadlineExceeded`] (at
/// stage scope) when `exec` stops the run.
#[allow(clippy::too_many_arguments)]
pub fn verify_design(
    sizing: &VcoSizing,
    filter: (f64, f64, f64),
    testbench: &VcoTestbench,
    arch: &PllArchitecture,
    spec: &PllSpec,
    engine: &MonteCarlo,
    mc: &McConfig,
    sim_cfg: &LockSimConfig,
    exec: &ExecPolicy,
    cache: Option<&EvalCache<Vec<f64>>>,
) -> Result<VerificationReport, FlowError> {
    let ring = testbench.build(sizing);
    let design = sizing.to_array();
    let run = engine.run_cached(&ring.circuit, mc, exec, &design, cache, |_i, perturbed| {
        testbench
            .evaluate_circuit(perturbed, &ring)
            .map(|p| p.to_array().to_vec())
            .map_err(|_| TaskFailure::permanent("evaluation failed"))
    });
    if let Some(reason) = run.aborted {
        return Err(FlowError::aborted(FlowStage::Verify, reason));
    }
    if run.accepted == 0 {
        return Err(FlowError::stage(
            "verify",
            "every monte-carlo sample failed transistor-level evaluation",
        ));
    }

    let mut passed = 0usize;
    let mut vco_samples = Vec::with_capacity(run.accepted);
    for row in &run.metrics {
        let perf = VcoPerf::from_array(row);
        vco_samples.push(perf);
        if spec.passes(&pll_performance(&perf, filter, arch, sim_cfg)) {
            passed += 1;
        }
    }

    // Failed transistor-level evaluations count as spec failures.
    let total = run.accepted + run.failed;
    let (lo, hi) = wilson_interval(passed, total, 1.96)
        .expect("accepted >= 1 was checked above and passed <= total by construction");
    Ok(VerificationReport {
        passed,
        total,
        yield_value: passed as f64 / total as f64,
        yield_ci: (lo, hi),
        vco_samples,
        evaluation_failures: run.failed,
    })
}

/// The PLL performance of a measured VCO `perf` in `arch` with the loop
/// filter `(c1, c2, r1)`: one behavioural lock simulation, in which a
/// loop that never locks counts as an infinite lock time, plus the
/// divided jitter and the total current.
pub(crate) fn pll_performance(
    perf: &VcoPerf,
    (c1, c2, r1): (f64, f64, f64),
    arch: &PllArchitecture,
    sim_cfg: &LockSimConfig,
) -> PllPerformance {
    let params = PllParams {
        fref: arch.fref,
        divider: arch.divider,
        icp: arch.icp,
        c1,
        c2,
        r1,
        kvco: perf.kvco,
        f0: 0.5 * (perf.fmin + perf.fmax),
        vctrl_ref: 0.5 * (arch.vctrl_lo + arch.vctrl_hi),
        fmin: perf.fmin,
        fmax: perf.fmax,
        ivco: perf.ivco,
        jvco: perf.jvco,
    };
    let lock_time = match lock_times(&[params], sim_cfg) {
        Ok([t]) => t.unwrap_or(f64::INFINITY),
        Err(_) => f64::INFINITY,
    };
    PllPerformance {
        fmin: perf.fmin,
        fmax: perf.fmax,
        lock_time,
        jitter: pll_jitter_sum(perf.jvco, arch.divider),
        current: perf.ivco + PLL_FIXED_CURRENT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use variation::process::ProcessSpec;

    /// Transistor-level verification on the nominal sizing with a small
    /// MC budget; the full 500-sample run lives in the yield_verify
    /// experiment binary.
    #[test]
    fn small_verification_run_reports_yield() {
        let sizing = VcoSizing::nominal();
        let tb = VcoTestbench::default();
        let engine = MonteCarlo::new(ProcessSpec::default());
        let mc = McConfig {
            samples: 8,
            seed: 3,
            threads: 2,
            sampler: variation::sampler::SamplerKind::PlainMc,
        };
        // A very permissive spec the nominal VCO easily meets — the
        // point here is plumbing, not the paper numbers.
        let spec = PllSpec {
            f_out_min: 1.0e9,
            f_out_max: 1.1e9,
            lock_time_max: 5e-6,
            current_max: 60e-3,
        };
        let arch = PllArchitecture {
            divider: 21, // 1.05 GHz target, inside the nominal VCO range
            ..Default::default()
        };
        let report = verify_design(
            &sizing,
            (30e-12, 3e-12, 4e3),
            &tb,
            &arch,
            &spec,
            &engine,
            &mc,
            &LockSimConfig::default(),
            &ExecPolicy::default(),
            None,
        )
        .unwrap();
        assert_eq!(report.total, 8);
        assert!(report.yield_value > 0.5, "yield {}", report.yield_value);
        assert!(report.yield_ci.0 <= report.yield_value);
        assert!(report.yield_ci.1 >= report.yield_value);
        assert_eq!(
            report.vco_samples.len(),
            report.total - report.evaluation_failures
        );
    }

    #[test]
    fn cached_verification_is_bit_identical_and_replays_warm() {
        let sizing = VcoSizing::nominal();
        let tb = VcoTestbench::default();
        let engine = MonteCarlo::new(ProcessSpec::default());
        let mc = McConfig {
            samples: 4,
            seed: 3,
            threads: 2,
            sampler: variation::sampler::SamplerKind::PlainMc,
        };
        let verify = |cache: Option<&EvalCache<Vec<f64>>>| {
            verify_design(
                &sizing,
                (30e-12, 3e-12, 4e3),
                &tb,
                &PllArchitecture::default(),
                &PllSpec::default(),
                &engine,
                &mc,
                &LockSimConfig::default(),
                &ExecPolicy::default(),
                cache,
            )
            .unwrap()
        };
        let baseline = verify(None);

        let cache = EvalCache::<Vec<f64>>::new(1024, evalcache::KeyQuantiser::exact(), 0xabc);
        let cold = verify(Some(&cache));
        assert_eq!(cold, baseline, "cold cached pass must be bit-identical");
        assert_eq!(cache.stats().misses, 4, "4 samples simulated");

        let recorder = telemetry::Recorder::new();
        let warm = {
            let _installed = recorder.install();
            verify(Some(&cache))
        };
        assert_eq!(warm, baseline, "warm cached pass must be bit-identical");
        assert_eq!(
            cache.stats().misses,
            4,
            "the warm pass must re-simulate nothing"
        );
        assert_eq!(cache.stats().hits, 4);
        assert_eq!(
            recorder
                .metrics()
                .counter(telemetry::names::SIM_SPARSE_ANALYZE),
            None,
            "the warm pass invoked the simulator"
        );
    }

    #[test]
    fn impossible_spec_gives_zero_yield() {
        let sizing = VcoSizing::nominal();
        let tb = VcoTestbench::default();
        let engine = MonteCarlo::new(ProcessSpec::default());
        let mc = McConfig {
            samples: 4,
            seed: 9,
            threads: 2,
            sampler: variation::sampler::SamplerKind::PlainMc,
        };
        let spec = PllSpec {
            f_out_min: 1e6, // requires fmin below 1 MHz — impossible
            f_out_max: 50e9,
            lock_time_max: 1e-9,
            current_max: 1e-6,
        };
        let report = verify_design(
            &sizing,
            (30e-12, 3e-12, 4e3),
            &tb,
            &PllArchitecture::default(),
            &spec,
            &engine,
            &mc,
            &LockSimConfig::default(),
            &ExecPolicy::default(),
            None,
        )
        .unwrap();
        assert_eq!(report.passed, 0);
        assert_eq!(report.yield_value, 0.0);
    }

    #[test]
    fn cancelled_policy_stops_verification_and_reports_it() {
        let mc = McConfig {
            samples: 500,
            ..McConfig::default()
        };
        let token = exec::CancelToken::new();
        token.cancel();
        let started = std::time::Instant::now();
        let err = verify_design(
            &VcoSizing::nominal(),
            (30e-12, 3e-12, 4e3),
            &VcoTestbench::default(),
            &PllArchitecture::default(),
            &PllSpec::default(),
            &MonteCarlo::new(ProcessSpec::default()),
            &mc,
            &LockSimConfig::default(),
            &ExecPolicy::default().with_cancel(token),
            None,
        )
        .unwrap_err();
        let stage = FlowStage::Verify;
        assert_eq!(err, FlowError::Cancelled { stage });
        // No sample ran: 500 transistor-level evaluations take minutes
        // in a test build.
        assert!(started.elapsed() < std::time::Duration::from_secs(30));
    }
}
