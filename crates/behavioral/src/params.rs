//! The PLL parameter bundle the system-level optimiser manipulates.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

/// Additional supply current of the non-VCO PLL blocks (PFD, charge
/// pump, divider, buffers). The paper's Table 2 shows PLL current =
/// VCO current + a fixed 10 mA across every solution.
pub const PLL_FIXED_CURRENT: f64 = 10e-3;

/// Complete parameter set of the behavioural charge-pump PLL.
///
/// The system-level designables of the paper are `kvco`, `ivco`
/// (selecting a point on the VCO Pareto front) and the loop filter
/// `c1`, `c2`, `r1`; the rest describe the architecture and the selected
/// VCO design (interpolated from the performance/variation tables).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PllParams {
    /// Reference frequency (Hz).
    pub fref: f64,
    /// Feedback divider ratio N (output frequency = N·fref at lock).
    pub divider: u32,
    /// Charge-pump current (A).
    pub icp: f64,
    /// Loop-filter series capacitor (F).
    pub c1: f64,
    /// Loop-filter shunt capacitor (F).
    pub c2: f64,
    /// Loop-filter zero resistor (Ω).
    pub r1: f64,
    /// VCO gain (Hz/V).
    pub kvco: f64,
    /// VCO frequency at `vctrl_ref` (Hz).
    pub f0: f64,
    /// Control voltage at which the VCO runs at `f0` (V).
    pub vctrl_ref: f64,
    /// Minimum achievable VCO frequency (Hz).
    pub fmin: f64,
    /// Maximum achievable VCO frequency (Hz).
    pub fmax: f64,
    /// VCO supply current (A).
    pub ivco: f64,
    /// VCO period jitter (s).
    pub jvco: f64,
}

impl PllParams {
    /// A nominal 900 MHz design used by tests and the quickstart
    /// example: 50 MHz reference, ÷18, 50 µA charge pump, natural
    /// frequency ≈ 1.5 MHz with damping ζ ≈ 0.72, loop bandwidth
    /// comfortably below fref/10 (the discrete-time stability rule).
    pub fn nominal() -> Self {
        PllParams {
            fref: 50e6,
            divider: 18,
            icp: 50e-6,
            c1: 30e-12,
            c2: 3e-12,
            r1: 5e3,
            kvco: 1.0e9,
            f0: 0.9e9,
            vctrl_ref: 0.6,
            fmin: 0.3e9,
            fmax: 2.0e9,
            ivco: 4e-3,
            jvco: 0.2e-12,
        }
    }

    /// Target output frequency `N·fref`.
    pub fn f_target(&self) -> f64 {
        self.divider as f64 * self.fref
    }

    /// Total PLL supply current: VCO + fixed block overhead.
    pub fn total_current(&self) -> f64 {
        self.ivco + PLL_FIXED_CURRENT
    }

    /// Checks structural validity.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first non-physical parameter.
    pub fn validate(&self) -> Result<(), String> {
        // Every check is written so that NaN fails it: `partial_cmp`
        // and `contains` reject NaN, whereas an operator test like
        // `fref <= 0.0` would silently accept it.
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(Ordering::Greater);
        let non_negative = |v: f64| v.partial_cmp(&0.0).is_some_and(Ordering::is_ge);
        if !positive(self.fref) {
            return Err(format!("fref {} must be positive", self.fref));
        }
        if self.divider == 0 {
            return Err("divider must be at least 1".to_string());
        }
        if !(positive(self.icp) && positive(self.c1) && positive(self.c2) && positive(self.r1)) {
            return Err("charge pump and loop filter values must be positive".to_string());
        }
        if !positive(self.kvco) {
            return Err(format!("kvco {} must be positive", self.kvco));
        }
        if self.fmin.partial_cmp(&self.fmax) != Some(Ordering::Less)
            || !(self.fmin..=self.fmax).contains(&self.f0)
        {
            return Err(format!(
                "vco range invalid: fmin={} f0={} fmax={}",
                self.fmin, self.f0, self.fmax
            ));
        }
        if !(non_negative(self.ivco) && non_negative(self.jvco)) {
            return Err("ivco and jvco must be non-negative".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_valid_and_target_in_range() {
        let p = PllParams::nominal();
        p.validate().unwrap();
        let ft = p.f_target();
        assert!(ft >= p.fmin && ft <= p.fmax, "target {ft} within VCO range");
        assert_eq!(ft, 900e6);
        assert_eq!(p.divider, 18);
    }

    #[test]
    fn total_current_adds_fixed_overhead() {
        let p = PllParams::nominal();
        assert!((p.total_current() - (4e-3 + 10e-3)).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut p = PllParams::nominal();
        p.kvco = 0.0;
        assert!(p.validate().is_err());
        let mut p = PllParams::nominal();
        p.fmin = 2.5e9; // above fmax
        assert!(p.validate().is_err());
        let mut p = PllParams::nominal();
        p.divider = 0;
        assert!(p.validate().is_err());
        let mut p = PllParams::nominal();
        p.c2 = -1e-12;
        assert!(p.validate().is_err());
    }
}
