//! Analysis options shared by the DC and transient engines.

/// Time-integration method for transient analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// Backward Euler: L-stable, numerically damped; the robust default
    /// for strongly nonlinear switching circuits.
    #[default]
    BackwardEuler,
    /// Trapezoidal: second-order accurate, no numerical damping; can ring
    /// on discontinuities.
    Trapezoidal,
}

/// Numerical options for the Newton-based analyses.
///
/// The defaults mirror common SPICE settings scaled to this workspace's
/// small circuits.
///
/// # Examples
///
/// ```
/// let opts = spicesim::SimOptions {
///     max_newton_iterations: 200,
///     ..Default::default()
/// };
/// assert!(opts.gmin > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Absolute convergence tolerance on voltage unknowns (V).
    pub vntol: f64,
    /// Absolute convergence tolerance on branch-current unknowns (A).
    pub abstol: f64,
    /// Relative convergence tolerance.
    pub reltol: f64,
    /// Minimum conductance stamped drain–source on every MOSFET (S),
    /// keeping the Jacobian non-singular when devices are off.
    pub gmin: f64,
    /// Maximum Newton iterations per solve.
    pub max_newton_iterations: usize,
    /// Per-iteration clamp on voltage-unknown updates (V); damping that
    /// keeps Newton from overshooting exponential nonlinearities.
    pub max_voltage_step: f64,
    /// Maximum recursion depth of transient step-halving: a failing
    /// step is retried as two half-steps at most this many levels deep
    /// (so the smallest sub-step is `dt / 2^depth`) before the run
    /// reports [`crate::SimError::StepLimit`] instead of recursing
    /// further. `0` disables sub-stepping entirely.
    pub max_substep_depth: usize,
    /// Integration method for transient analysis.
    pub method: IntegrationMethod,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            vntol: 1e-6,
            abstol: 1e-9,
            reltol: 1e-4,
            gmin: 1e-12,
            max_newton_iterations: 100,
            max_voltage_step: 0.5,
            max_substep_depth: 8,
            method: IntegrationMethod::BackwardEuler,
        }
    }
}

impl SimOptions {
    /// Checks option sanity.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::BadConfig`] if any tolerance is
    /// non-positive or the iteration budget is zero.
    pub fn validate(&self) -> Result<(), crate::SimError> {
        if self.vntol <= 0.0
            || self.abstol <= 0.0
            || self.reltol <= 0.0
            || self.gmin <= 0.0
            || self.max_voltage_step <= 0.0
        {
            return Err(crate::SimError::BadConfig {
                message: "tolerances and gmin must be positive".to_string(),
            });
        }
        if self.max_newton_iterations == 0 {
            return Err(crate::SimError::BadConfig {
                message: "max_newton_iterations must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SimOptions::default().validate().unwrap();
    }

    #[test]
    fn bad_options_rejected() {
        let o = SimOptions {
            vntol: 0.0,
            ..Default::default()
        };
        assert!(o.validate().is_err());
        let o = SimOptions {
            max_newton_iterations: 0,
            ..Default::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn default_method_is_backward_euler() {
        assert_eq!(
            SimOptions::default().method,
            IntegrationMethod::BackwardEuler
        );
    }
}
