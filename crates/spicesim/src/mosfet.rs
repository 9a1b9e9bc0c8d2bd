//! Level-1 (square-law) MOSFET evaluation with full Jacobian.
//!
//! The evaluation returns the drain current and its partial derivatives
//! with respect to the *terminal node voltages* `(v_d, v_g, v_s)`, which
//! makes the MNA stamp polarity- and orientation-agnostic: PMOS devices
//! are evaluated in a negated frame and reverse-biased channels (v_ds<0)
//! in a drain/source-swapped frame, with the chain rule applied here so
//! the stamping code never needs to care.

use netlist::Mosfet;

/// Result of evaluating a MOSFET at a bias point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Drain current flowing drain→source through the channel (A);
    /// negative for PMOS in normal operation.
    pub id: f64,
    /// ∂id/∂v_d (S).
    pub g_d: f64,
    /// ∂id/∂v_g (S).
    pub g_g: f64,
    /// ∂id/∂v_s (S).
    pub g_s: f64,
    /// Magnitude of the transconductance in the conducting frame (S);
    /// used by thermal-noise models.
    pub gm_mag: f64,
    /// Operating region, for diagnostics.
    pub region: MosRegion,
}

/// MOSFET operating region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosRegion {
    /// v_gs below threshold: channel off.
    Cutoff,
    /// v_ds below overdrive: resistive channel.
    Triode,
    /// v_ds above overdrive: current source behaviour.
    Saturation,
}

/// Canonical NMOS-frame square law for `vds >= 0`.
///
/// Returns `(i_d, ∂i/∂v_gs, ∂i/∂v_ds, region)`; the expressions are
/// continuous (value and first derivative in `v_ds`) across the
/// triode/saturation boundary.
fn square_law(vgs: f64, vds: f64, beta: f64, vto: f64, lambda: f64) -> (f64, f64, f64, MosRegion) {
    debug_assert!(vds >= 0.0, "canonical frame requires vds >= 0");
    let vov = vgs - vto;
    if vov <= 0.0 {
        return (0.0, 0.0, 0.0, MosRegion::Cutoff);
    }
    let clm = 1.0 + lambda * vds;
    if vds < vov {
        let quad = vov * vds - 0.5 * vds * vds;
        let i = beta * quad * clm;
        let gm = beta * vds * clm;
        let gds = beta * ((vov - vds) * clm + quad * lambda);
        (i, gm, gds, MosRegion::Triode)
    } else {
        let half = 0.5 * beta * vov * vov;
        let i = half * clm;
        let gm = beta * vov * clm;
        let gds = half * lambda;
        (i, gm, gds, MosRegion::Saturation)
    }
}

/// A MOSFET's constants in the NMOS frame, derived once from its model
/// and geometry: the polarity sign, the threshold sign·vto, β = kp·W/L
/// and λ = λ′/L.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MosConstants {
    sign: f64,
    vto: f64,
    beta: f64,
    lambda: f64,
}

impl MosConstants {
    /// Derives the constants of `m`.
    pub(crate) fn of(m: &Mosfet) -> Self {
        let sign = m.model.polarity.sign();
        MosConstants {
            sign,
            vto: sign * m.model.vto,
            beta: m.model.kp * m.w / m.l,
            lambda: m.lambda(),
        }
    }

    /// Evaluates the device at the given terminal voltages.
    pub(crate) fn eval(&self, vd: f64, vg: f64, vs: f64) -> MosEval {
        let MosConstants {
            sign,
            vto,
            beta,
            lambda,
        } = *self;
        // Map to the NMOS frame: id_p(v) = -id_n(-v), thresholds negate too.
        let (nvd, nvg, nvs) = (sign * vd, sign * vg, sign * vs);

        // In the NMOS frame, pick the conducting orientation.
        let (id_n, g_d_n, g_g_n, g_s_n, gm_mag, region) = if nvd >= nvs {
            let (i, gm, gds, region) = square_law(nvg - nvs, nvd - nvs, beta, vto, lambda);
            (i, gds, gm, -(gm + gds), gm, region)
        } else {
            // Swapped frame: i = -f(vg - vd, vs - vd).
            let (i, gm, gds, region) = square_law(nvg - nvd, nvs - nvd, beta, vto, lambda);
            (-i, gm + gds, -gm, -gds, gm, region)
        };

        // Chain rule back out of the polarity mapping: for the current,
        // id = sign·id_n; derivatives are unchanged (two sign flips cancel).
        MosEval {
            id: sign * id_n,
            g_d: g_d_n,
            g_g: g_g_n,
            g_s: g_s_n,
            gm_mag,
            region,
        }
    }
}

/// Evaluates a MOSFET at the given terminal voltages.
///
/// Handles both polarities and both channel orientations (the square law
/// is symmetric in drain/source).
///
/// # Examples
///
/// ```
/// use netlist::{Circuit, MosModel, Mosfet};
/// use spicesim::mosfet::{eval_mosfet, MosRegion};
///
/// let mut c = Circuit::new("t");
/// let m = Mosfet {
///     drain: c.node("d"), gate: c.node("g"), source: Circuit::GROUND,
///     w: 10e-6, l: 0.12e-6, model: MosModel::nmos_012(),
/// };
/// let e = eval_mosfet(&m, 1.2, 1.2, 0.0);
/// assert_eq!(e.region, MosRegion::Saturation);
/// assert!(e.id > 0.0);
/// ```
pub fn eval_mosfet(m: &Mosfet, vd: f64, vg: f64, vs: f64) -> MosEval {
    MosConstants::of(m).eval(vd, vg, vs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{Circuit, MosModel, MosPolarity};

    fn nmos() -> Mosfet {
        let mut c = Circuit::new("t");
        Mosfet {
            drain: c.node("d"),
            gate: c.node("g"),
            source: Circuit::GROUND,
            w: 10e-6,
            l: 0.12e-6,
            model: MosModel::nmos_012(),
        }
    }

    fn pmos() -> Mosfet {
        let mut m = nmos();
        m.model = MosModel::pmos_012();
        m
    }

    /// Finite-difference check of the Jacobian at a bias point.
    fn check_jacobian(m: &Mosfet, vd: f64, vg: f64, vs: f64) {
        let e = eval_mosfet(m, vd, vg, vs);
        let h = 1e-7;
        let fd_d =
            (eval_mosfet(m, vd + h, vg, vs).id - eval_mosfet(m, vd - h, vg, vs).id) / (2.0 * h);
        let fd_g =
            (eval_mosfet(m, vd, vg + h, vs).id - eval_mosfet(m, vd, vg - h, vs).id) / (2.0 * h);
        let fd_s =
            (eval_mosfet(m, vd, vg, vs + h).id - eval_mosfet(m, vd, vg, vs - h).id) / (2.0 * h);
        let scale = e.g_d.abs().max(e.g_g.abs()).max(e.g_s.abs()).max(1e-12);
        assert!(
            (e.g_d - fd_d).abs() < 1e-4 * scale,
            "g_d analytic {} vs fd {} at ({vd},{vg},{vs})",
            e.g_d,
            fd_d
        );
        assert!(
            (e.g_g - fd_g).abs() < 1e-4 * scale,
            "g_g analytic {} vs fd {}",
            e.g_g,
            fd_g
        );
        assert!(
            (e.g_s - fd_s).abs() < 1e-4 * scale,
            "g_s analytic {} vs fd {}",
            e.g_s,
            fd_s
        );
    }

    #[test]
    fn cutoff_has_zero_current() {
        let m = nmos();
        let e = eval_mosfet(&m, 1.2, 0.0, 0.0);
        assert_eq!(e.id, 0.0);
        assert_eq!(e.region, MosRegion::Cutoff);
    }

    #[test]
    fn saturation_current_magnitude() {
        let m = nmos();
        // vgs = 1.2, vov = 0.85, beta = 350e-6 * 10/0.12 = 29.2 mA/V²
        let e = eval_mosfet(&m, 1.2, 1.2, 0.0);
        let beta = m.model.kp * m.w / m.l;
        let vov: f64 = 1.2 - 0.35;
        let lambda = m.lambda();
        let expected = 0.5 * beta * vov * vov * (1.0 + lambda * 1.2);
        assert!((e.id - expected).abs() < 1e-9 * expected);
        assert_eq!(e.region, MosRegion::Saturation);
    }

    #[test]
    fn triode_region_detected() {
        let m = nmos();
        let e = eval_mosfet(&m, 0.1, 1.2, 0.0);
        assert_eq!(e.region, MosRegion::Triode);
        assert!(e.id > 0.0);
    }

    #[test]
    fn pmos_conducts_with_negative_vgs() {
        let m = pmos();
        // Source at 1.2 V, gate at 0 → vsg = 1.2 > |vto|: conducting,
        // current flows source→drain so id (drain→source) is negative.
        let e = eval_mosfet(&m, 0.0, 0.0, 1.2);
        assert!(
            e.id < 0.0,
            "pmos drain current should be negative, got {}",
            e.id
        );
        assert_eq!(e.region, MosRegion::Saturation);
        assert_eq!(m.model.polarity, MosPolarity::Pmos);
    }

    #[test]
    fn pmos_off_when_gate_high() {
        let m = pmos();
        let e = eval_mosfet(&m, 0.0, 1.2, 1.2);
        assert_eq!(e.id, 0.0);
        assert_eq!(e.region, MosRegion::Cutoff);
    }

    #[test]
    fn channel_symmetry_swaps_sign() {
        let m = nmos();
        let fwd = eval_mosfet(&m, 0.3, 1.2, 0.0);
        // Swap drain/source bias: same magnitude, opposite sign.
        let rev = eval_mosfet(&m, 0.0, 1.2, 0.3);
        assert!((fwd.id + rev.id).abs() < 1e-15 + 1e-9 * fwd.id.abs());
    }

    #[test]
    fn continuity_at_saturation_boundary() {
        let m = nmos();
        let vov = 1.2 - 0.35;
        let below = eval_mosfet(&m, vov - 1e-9, 1.2, 0.0);
        let above = eval_mosfet(&m, vov + 1e-9, 1.2, 0.0);
        assert!((below.id - above.id).abs() < 1e-6 * above.id);
        assert!((below.g_d - above.g_d).abs() < 1e-3 * above.g_d.abs().max(1e-9));
    }

    #[test]
    fn jacobian_matches_finite_difference_nmos() {
        let m = nmos();
        for (vd, vg, vs) in [
            (1.2, 1.2, 0.0), // saturation
            (0.1, 1.2, 0.0), // triode
            (1.2, 0.2, 0.0), // cutoff-ish
            (0.0, 1.2, 0.6), // reverse channel
            (0.4, 0.9, 0.1), // triode, lifted source
        ] {
            check_jacobian(&m, vd, vg, vs);
        }
    }

    #[test]
    fn jacobian_matches_finite_difference_pmos() {
        let m = pmos();
        for (vd, vg, vs) in [
            (0.0, 0.0, 1.2),
            (1.1, 0.0, 1.2),
            (0.6, 0.5, 1.2),
            (1.2, 0.3, 0.6), // reverse channel pmos
        ] {
            check_jacobian(&m, vd, vg, vs);
        }
    }

    #[test]
    fn current_scales_with_geometry() {
        let mut m = nmos();
        let base = eval_mosfet(&m, 1.2, 1.2, 0.0).id;
        m.w *= 3.0;
        let wide = eval_mosfet(&m, 1.2, 1.2, 0.0).id;
        assert!((wide / base - 3.0).abs() < 1e-9);
    }
}
