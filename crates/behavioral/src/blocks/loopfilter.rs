//! Second-order passive loop filter (series R1–C1 shunted by C2).

use numkit::Complex;

/// The classic charge-pump PLL loop filter: R1 in series with C1, that
/// branch in parallel with C2. The control voltage is the voltage across
/// C2 (the filter input node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopFilter {
    /// Series capacitor (F).
    pub c1: f64,
    /// Shunt capacitor (F).
    pub c2: f64,
    /// Zero resistor (Ω).
    pub r1: f64,
    /// State: voltage across C1 (V).
    pub v_c1: f64,
    /// State: voltage across C2 = control voltage (V).
    pub v_c2: f64,
}

impl LoopFilter {
    /// Creates a filter with both capacitors pre-charged to `v_init`
    /// (the VCO control starting point).
    ///
    /// # Panics
    ///
    /// Panics if any element value is non-positive.
    pub fn new(c1: f64, c2: f64, r1: f64, v_init: f64) -> Self {
        assert!(
            c1 > 0.0 && c2 > 0.0 && r1 > 0.0,
            "loop filter elements must be positive"
        );
        LoopFilter {
            c1,
            c2,
            r1,
            v_c1: v_init,
            v_c2: v_init,
        }
    }

    /// Control voltage (across C2).
    pub fn vctrl(&self) -> f64 {
        self.v_c2
    }

    /// Advances the filter by `dt` seconds with constant input current
    /// `i_in` (RK4 on the two-state ODE).
    ///
    /// State equations (input current `i` into the top node):
    /// `dv_c1/dt = (v_c2 − v_c1)/(R1·C1)`
    /// `dv_c2/dt = (i − (v_c2 − v_c1)/R1)/C2`
    pub fn step(&mut self, i_in: f64, dt: f64) {
        let mut lanes = FilterLanes::new([*self]);
        lanes.step([i_in], [dt]);
        self.v_c1 = lanes.v_c1[0];
        self.v_c2 = lanes.v_c2[0];
    }

    /// Trans-impedance `Z(s) = (1 + s·R1·C1) / (s·(C1+C2)·(1 + s·R1·Cs))`
    /// with `Cs = C1·C2/(C1+C2)`.
    pub fn impedance(&self, s: Complex) -> Complex {
        let c_total = self.c1 + self.c2;
        let c_series = self.c1 * self.c2 / c_total;
        let num = Complex::ONE + s.scale(self.r1 * self.c1);
        let den = s.scale(c_total) * (Complex::ONE + s.scale(self.r1 * c_series));
        num / den
    }

    /// Zero frequency `1/(2π·R1·C1)` in Hz.
    pub fn zero_freq(&self) -> f64 {
        1.0 / (2.0 * std::f64::consts::PI * self.r1 * self.c1)
    }

    /// Parasitic pole frequency `1/(2π·R1·Cs)` in Hz.
    pub fn pole_freq(&self) -> f64 {
        let c_series = self.c1 * self.c2 / (self.c1 + self.c2);
        1.0 / (2.0 * std::f64::consts::PI * self.r1 * c_series)
    }
}

/// `L` loop filters stored lane by lane and stepped side by side. Each
/// lane runs exactly the operations [`LoopFilter::step`] runs on one
/// filter, so its state is bit-identical to stepping it alone.
///
/// An RK4 step is twelve divisions. Side by side, the compiler packs the
/// lanes' divisions into vector instructions; as scalars they would all
/// queue on the core's one divider, which a busy sibling hardware thread
/// shares, and the step time would swing with whatever else runs there.
#[derive(Debug)]
pub(crate) struct FilterLanes<const L: usize> {
    c1: [f64; L],
    c2: [f64; L],
    r1: [f64; L],
    v_c1: [f64; L],
    /// Control voltages.
    pub(crate) v_c2: [f64; L],
}

impl<const L: usize> FilterLanes<L> {
    pub(crate) fn new(filters: [LoopFilter; L]) -> Self {
        FilterLanes {
            c1: filters.map(|f| f.c1),
            c2: filters.map(|f| f.c2),
            r1: filters.map(|f| f.r1),
            v_c1: filters.map(|f| f.v_c1),
            v_c2: filters.map(|f| f.v_c2),
        }
    }

    /// Advances lane `l` by `dt[l]` seconds with constant input current
    /// `i_in[l]`. Inlined so the lanes stay in registers across the
    /// caller's substep loop.
    #[inline(always)]
    pub(crate) fn step(&mut self, i_in: [f64; L], dt: [f64; L]) {
        let (c1, c2, r1) = (self.c1, self.c2, self.r1);
        let f = |v1: &[f64; L], v2: &[f64; L]| -> ([f64; L], [f64; L]) {
            let (mut d1, mut d2) = ([0.0; L], [0.0; L]);
            for l in 0..L {
                let i_r = (v2[l] - v1[l]) / r1[l];
                d1[l] = i_r / c1[l];
                d2[l] = (i_in[l] - i_r) / c2[l];
            }
            (d1, d2)
        };
        let (v1, v2) = (&mut self.v_c1, &mut self.v_c2);
        let (mut a, mut b) = ([0.0; L], [0.0; L]);
        let (k1a, k1b) = f(v1, v2);
        for l in 0..L {
            a[l] = v1[l] + 0.5 * dt[l] * k1a[l];
            b[l] = v2[l] + 0.5 * dt[l] * k1b[l];
        }
        let (k2a, k2b) = f(&a, &b);
        for l in 0..L {
            a[l] = v1[l] + 0.5 * dt[l] * k2a[l];
            b[l] = v2[l] + 0.5 * dt[l] * k2b[l];
        }
        let (k3a, k3b) = f(&a, &b);
        for l in 0..L {
            a[l] = v1[l] + dt[l] * k3a[l];
            b[l] = v2[l] + dt[l] * k3b[l];
        }
        let (k4a, k4b) = f(&a, &b);
        for l in 0..L {
            v1[l] += dt[l] / 6.0 * (k1a[l] + 2.0 * k2a[l] + 2.0 * k3a[l] + k4a[l]);
            v2[l] += dt[l] / 6.0 * (k1b[l] + 2.0 * k2b[l] + 2.0 * k3b[l] + k4b[l]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_current_charges_both_caps() {
        // With constant input current and t → ∞, all current flows into
        // C1 (C2 settles), so dv/dt → i/(C1) on v_c1? At steady ramp,
        // both nodes ramp together at i/(C1+C2).
        let mut f = LoopFilter::new(50e-12, 5e-12, 30e3, 0.0);
        let i = 1e-6;
        let dt = 1e-9;
        for _ in 0..10_000 {
            f.step(i, dt);
        }
        let t = 10_000.0 * dt;
        let expected_slope = i / (f.c1 + f.c2);
        // After initial transient the ramp rate matches i/(C1+C2).
        let v_before = f.v_c2;
        for _ in 0..1_000 {
            f.step(i, dt);
        }
        let slope = (f.v_c2 - v_before) / (1_000.0 * dt);
        assert!(
            (slope / expected_slope - 1.0).abs() < 0.01,
            "slope {slope} vs {expected_slope} (t = {t})"
        );
    }

    #[test]
    fn zero_input_holds_state() {
        let mut f = LoopFilter::new(50e-12, 5e-12, 30e3, 0.6);
        for _ in 0..1_000 {
            f.step(0.0, 1e-9);
        }
        assert!((f.vctrl() - 0.6).abs() < 1e-9);
        assert!((f.v_c1 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn internal_rc_relaxation() {
        // Start with C2 charged above C1: the difference relaxes with
        // τ = R1·(C1·C2/(C1+C2)).
        let mut f = LoopFilter::new(50e-12, 5e-12, 30e3, 0.0);
        f.v_c2 = 1.0;
        let c_series = f.c1 * f.c2 / (f.c1 + f.c2);
        let tau = f.r1 * c_series;
        let dt = tau / 200.0;
        let steps = 200; // one τ
        for _ in 0..steps {
            f.step(0.0, dt);
        }
        let diff = f.v_c2 - f.v_c1;
        // Initial difference 1.0 decays to ≈ 1/e.
        assert!(
            (diff - (-1.0f64).exp()).abs() < 0.02,
            "difference after one tau: {diff}"
        );
    }

    /// The scalar RK4 step as plain expressions: the reference the lanes
    /// must reproduce bit for bit.
    fn scalar_step(f: &mut LoopFilter, i_in: f64, dt: f64) {
        let d = |v1: f64, v2: f64| -> (f64, f64) {
            let i_r = (v2 - v1) / f.r1;
            (i_r / f.c1, (i_in - i_r) / f.c2)
        };
        let (k1a, k1b) = d(f.v_c1, f.v_c2);
        let (k2a, k2b) = d(f.v_c1 + 0.5 * dt * k1a, f.v_c2 + 0.5 * dt * k1b);
        let (k3a, k3b) = d(f.v_c1 + 0.5 * dt * k2a, f.v_c2 + 0.5 * dt * k2b);
        let (k4a, k4b) = d(f.v_c1 + dt * k3a, f.v_c2 + dt * k3b);
        f.v_c1 += dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a);
        f.v_c2 += dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b);
    }

    #[test]
    fn lanes_match_the_scalar_step_bit_for_bit() {
        let start = [
            LoopFilter::new(50e-12, 5e-12, 30e3, 0.6),
            LoopFilter::new(12e-12, 1.5e-12, 7e3, 0.6),
            LoopFilter::new(33e-12, 4e-12, 2e3, 0.1),
        ];
        let mut lanes = FilterLanes::new(start);
        let (mut alone, mut reference) = (start, start);
        for n in 0..2_000 {
            // Pump pulses of both signs and idle steps, different per lane.
            let i_in: [f64; 3] = std::array::from_fn(|l| match (n + l) % 5 {
                0 => 50e-6,
                1 => -37e-6 * (l + 1) as f64,
                _ => 0.0,
            });
            let dt = [1.25e-9, 2.5e-9, 0.8e-9];
            lanes.step(i_in, dt);
            for l in 0..3 {
                alone[l].step(i_in[l], dt[l]);
                scalar_step(&mut reference[l], i_in[l], dt[l]);
            }
        }
        for l in 0..3 {
            let want = [reference[l].v_c1, reference[l].v_c2].map(f64::to_bits);
            assert_eq!([lanes.v_c1[l], lanes.v_c2[l]].map(f64::to_bits), want);
            assert_eq!([alone[l].v_c1, alone[l].v_c2].map(f64::to_bits), want);
        }
    }

    #[test]
    fn impedance_magnitude_at_extremes() {
        let f = LoopFilter::new(50e-12, 5e-12, 30e3, 0.0);
        // Far below the zero: |Z| ≈ 1/(ω(C1+C2)) — integrator.
        let w_lo = 2.0 * std::f64::consts::PI * 1e3;
        let z_lo = f.impedance(Complex::new(0.0, w_lo)).abs();
        assert!((z_lo * w_lo * (f.c1 + f.c2) - 1.0).abs() < 0.01);
        // Between zero and parasitic pole: |Z| ≈ R1·C1/(C1+C2).
        let w_mid = 2.0 * std::f64::consts::PI * (f.zero_freq() * f.pole_freq()).sqrt();
        let z_mid = f.impedance(Complex::new(0.0, w_mid)).abs();
        let plateau = f.r1 * f.c1 / (f.c1 + f.c2);
        assert!(
            (z_mid / plateau - 1.0).abs() < 0.5,
            "plateau {z_mid} vs {plateau}"
        );
    }

    #[test]
    fn zero_below_pole() {
        let f = LoopFilter::new(50e-12, 5e-12, 30e3, 0.0);
        assert!(f.zero_freq() < f.pole_freq());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_elements() {
        let _ = LoopFilter::new(0.0, 5e-12, 30e3, 0.0);
    }
}
