//! DC operating-point analysis: damped Newton–Raphson with gmin and
//! source-stepping continuation.

use netlist::{Circuit, DeviceId, NodeId};
use numkit::sparse::SparseSolver;

use crate::error::SimError;
use crate::mna::{AssembleContext, MnaSystem, SparsePlan};
use crate::options::SimOptions;
use telemetry::names;

/// A solved operating point (also used as the transient starting state).
#[derive(Debug, Clone, PartialEq)]
pub struct OpPoint {
    x: Vec<f64>,
    n_voltages: usize,
    branch: Vec<Option<usize>>,
}

impl OpPoint {
    /// Voltage of `node` (0 for ground).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the solved circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Branch current of a voltage source, or `None` for other devices.
    /// A supply delivering current reports a negative value (see the MNA
    /// sign conventions in [`crate::mna`]).
    pub fn branch_current(&self, device: DeviceId) -> Option<f64> {
        self.branch
            .get(device.index())
            .copied()
            .flatten()
            .map(|i| self.x[i])
    }

    /// The raw solution vector (voltages then branch currents).
    pub fn solution(&self) -> &[f64] {
        &self.x
    }
}

/// Reusable Newton scratch: the topology's sparse assembly plan, the
/// sparse LU whose value array the plan stamps into, and the RHS that
/// each solve overwrites with its solution.
///
/// Assembly clears and re-stamps these in place, so one workspace
/// allocated per analysis serves every Newton iteration, every
/// continuation step, and (in transient) every timestep, without an
/// allocation per iteration. This is where the KLU-style lifecycle
/// hangs: the device binding and the symbolic analysis happen once
/// here, the numeric factor once on the first solve, and every later
/// Newton iteration pays only a numeric refactor.
pub(crate) struct SolveWorkspace {
    plan: SparsePlan,
    /// The RHS going into a solve and the solution coming out.
    b: Vec<f64>,
    solver: SparseSolver,
}

impl SolveWorkspace {
    /// Binds and analyses `sys`'s topology.
    pub(crate) fn for_system(sys: &MnaSystem<'_>) -> Self {
        let (plan, solver) = sys.sparse_plan();
        if telemetry::enabled() {
            telemetry::counter_add(names::SIM_SPARSE_ANALYZE, 1);
        }
        SolveWorkspace {
            plan,
            b: vec![0.0; sys.size()],
            solver,
        }
    }

    /// Assembles about `x` and solves one Newton step into `self.b`.
    fn assemble_and_solve(
        &mut self,
        sys: &MnaSystem<'_>,
        x: &[f64],
        ctx: &AssembleContext<'_>,
    ) -> Result<(), numkit::matrix::SolveMatrixError> {
        sys.assemble(&self.plan, x, ctx, self.solver.values_mut(), &mut self.b);
        self.solver.solve_in_place(&mut self.b).map(|_| ())
    }
}

impl Drop for SolveWorkspace {
    /// Reports the solver's factor/refactor/fallback counts once per
    /// analysis: a counter bump per Newton iteration would cost a
    /// shared-registry lookup on the hottest path of a traced run.
    fn drop(&mut self) {
        if !telemetry::enabled() || std::thread::panicking() {
            return;
        }
        let stats = self.solver.stats();
        for (name, count) in [
            (names::SIM_SPARSE_FACTOR, stats.factors - stats.fallbacks),
            (names::SIM_SPARSE_REFACTOR, stats.refactors),
            (names::SIM_SPARSE_REFACTOR_FALLBACK, stats.fallbacks),
        ] {
            if count > 0 {
                telemetry::counter_add(name, count);
            }
        }
    }
}

/// Histogram name for an analysis's Newton iteration counts, without
/// allocating on the per-timestep path.
fn newton_metric(analysis: &'static str) -> &'static str {
    match analysis {
        "dc" => names::SIM_NEWTON_ITERATIONS_DC,
        "transient" => names::SIM_NEWTON_ITERATIONS_TRANSIENT,
        _ => names::SIM_NEWTON_ITERATIONS_OTHER,
    }
}

/// Damped Newton–Raphson on the assembled MNA system, in place: `x`
/// holds the starting iterate going in and the converged solution
/// coming out. On `Err` (carrying the iteration count) it holds the
/// last iterate. `ws` must be sized for `sys` (it is overwritten, never
/// read).
pub(crate) fn newton_solve(
    sys: &MnaSystem<'_>,
    x: &mut [f64],
    ctx: &AssembleContext<'_>,
    opts: &SimOptions,
    analysis: &'static str,
    ws: &mut SolveWorkspace,
) -> Result<(), SimError> {
    let nv = sys.num_voltage_unknowns();

    for iter in 0..opts.max_newton_iterations {
        ws.assemble_and_solve(sys, x, ctx)
            .map_err(|e| SimError::from_solve(e, analysis))?;

        let mut converged = true;
        for (i, (xi, &x_new)) in x.iter_mut().zip(&ws.b).enumerate() {
            let dx = x_new - *xi;
            let tol = if i < nv {
                opts.vntol + opts.reltol * x_new.abs()
            } else {
                opts.abstol + opts.reltol * x_new.abs()
            };
            if dx.abs() > tol {
                converged = false;
            }
            // Damp voltage updates only; branch currents follow freely.
            if i < nv {
                *xi += dx.clamp(-opts.max_voltage_step, opts.max_voltage_step);
            } else {
                *xi = x_new;
            }
        }
        if converged {
            if telemetry::enabled() {
                telemetry::observe(newton_metric(analysis), (iter + 1) as f64);
            }
            return Ok(());
        }
    }
    if telemetry::enabled() {
        telemetry::observe(newton_metric(analysis), opts.max_newton_iterations as f64);
        telemetry::counter_add(names::SIM_NEWTON_NONCONVERGENCE, 1);
    }
    Err(SimError::NoConvergence {
        analysis,
        time: ctx.time,
        iterations: opts.max_newton_iterations,
    })
}

/// Computes the DC operating point of `circuit`.
///
/// Strategy: plain Newton from a zero initial guess; if that fails, gmin
/// stepping (relaxing then tightening the minimum conductance); if that
/// also fails, source stepping (ramping all independent sources from zero)
/// followed by a final gmin tightening pass.
///
/// # Errors
///
/// Returns [`SimError::BadCircuit`] for invalid circuits,
/// [`SimError::NoConvergence`] when every continuation strategy fails, or
/// [`SimError::Singular`] for structurally singular systems.
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn dc_operating_point(circuit: &Circuit, opts: &SimOptions) -> Result<OpPoint, SimError> {
    let _solve_span = telemetry::span("solve").attr("analysis", "dc");
    opts.validate()?;
    let sys = MnaSystem::new(circuit)?;
    let mut ws = SolveWorkspace::for_system(&sys);
    let x = solve_dc(&sys, opts, &mut ws)?;
    Ok(make_op(&sys, x))
}

fn make_op(sys: &MnaSystem<'_>, x: Vec<f64>) -> OpPoint {
    let circuit = sys.circuit();
    let branch = circuit
        .devices()
        .map(|(id, _)| sys.branch_index(id))
        .collect();
    OpPoint {
        x,
        n_voltages: sys.num_voltage_unknowns(),
        branch,
    }
}

/// Solves the operating point of `sys` from a zero start, through the
/// continuation ladder of [`dc_operating_point`]. A failed attempt
/// leaves a partial iterate behind, so each fallback restarts from
/// zeros.
pub(crate) fn solve_dc(
    sys: &MnaSystem<'_>,
    opts: &SimOptions,
    ws: &mut SolveWorkspace,
) -> Result<Vec<f64>, SimError> {
    let base_ctx = AssembleContext {
        time: 0.0,
        dc_sources: true,
        gmin: opts.gmin,
        source_scale: 1.0,
        companions: None,
        noise: None,
        prev_solution: None,
        dt: 0.0,
    };
    let mut x = vec![0.0; sys.size()];

    // 1. Direct attempt.
    if newton_solve(sys, &mut x, &base_ctx, opts, "dc", ws).is_ok() {
        return Ok(x);
    }

    // 2. Gmin stepping: start very conductive, tighten towards opts.gmin.
    x.fill(0.0);
    if tighten_gmin(sys, &mut x, 1e-2, &base_ctx, opts, ws).is_ok() {
        return Ok(x);
    }

    // 3. Source stepping with a relaxed gmin, then tighten. The relaxed
    // value never undershoots the requested floor (a target looser than
    // 1e-9 would otherwise make the ramp *harder* than the final
    // system).
    let relaxed = opts.gmin.max(1e-9);
    x.fill(0.0);
    let steps = 20;
    for k in 1..=steps {
        let scale = k as f64 / steps as f64;
        let ctx = AssembleContext {
            gmin: relaxed,
            source_scale: scale,
            ..base_ctx
        };
        newton_solve(sys, &mut x, &ctx, opts, "dc", ws)?;
    }
    tighten_gmin(sys, &mut x, relaxed * 0.1, &base_ctx, opts, ws)?;
    Ok(x)
}

/// Tightens gmin decade by decade from `start` down to `opts.gmin`,
/// warm-starting each solve from the previous solution in `x`, and
/// always finishes with a pass at *exactly* `opts.gmin` (`base_ctx`).
/// The decade ladder overshoots any target that is not a power-of-ten
/// multiple of `start` — e.g. `start = 1e-2`, `opts.gmin = 3e-11` steps
/// 1e-2 … 1e-10 and then must still solve at 3e-11 — so the exact final
/// pass is structural here rather than an obligation on every caller
/// (the two historical copies of this ladder each appended it by hand).
fn tighten_gmin(
    sys: &MnaSystem<'_>,
    x: &mut [f64],
    start: f64,
    base_ctx: &AssembleContext<'_>,
    opts: &SimOptions,
    ws: &mut SolveWorkspace,
) -> Result<(), SimError> {
    let mut gmin = start;
    while gmin > opts.gmin {
        let ctx = AssembleContext { gmin, ..*base_ctx };
        newton_solve(sys, x, &ctx, opts, "dc", ws)?;
        gmin *= 0.1;
    }
    newton_solve(sys, x, base_ctx, opts, "dc", ws)
}

/// Sweeps the DC value of one independent source over `values`, solving
/// the operating point at each step with the previous solution as the
/// initial guess (source-stepping continuation for free).
///
/// Returns one [`OpPoint`] per swept value.
///
/// # Errors
///
/// Returns [`SimError::BadConfig`] if `device` is not an independent
/// source, plus any DC-convergence error.
pub fn dc_sweep(
    circuit: &Circuit,
    device: DeviceId,
    values: &[f64],
    opts: &SimOptions,
) -> Result<Vec<OpPoint>, SimError> {
    opts.validate()?;
    match circuit.device(device) {
        netlist::Device::VSource { .. } | netlist::Device::ISource { .. } => {}
        _ => {
            return Err(SimError::BadConfig {
                message: format!(
                    "dc sweep target `{}` must be an independent source",
                    circuit.device_name(device)
                ),
            })
        }
    }
    let mut work = circuit.clone();
    let mut results: Vec<OpPoint> = Vec::with_capacity(values.len());
    // One scratch for the whole sweep: only the source value changes
    // between points, and the plan reads source values from the circuit
    // it assembles.
    let mut ws: Option<SolveWorkspace> = None;
    for &value in values {
        match work.device_mut(device) {
            netlist::Device::VSource { waveform, .. }
            | netlist::Device::ISource { waveform, .. } => {
                *waveform = netlist::SourceWaveform::Dc(value);
            }
            _ => unreachable!("checked above"),
        }
        let sys = MnaSystem::new(&work)?;
        let base_ctx = AssembleContext {
            time: 0.0,
            dc_sources: true,
            gmin: opts.gmin,
            source_scale: 1.0,
            companions: None,
            noise: None,
            prev_solution: None,
            dt: 0.0,
        };
        let ws = ws.get_or_insert_with(|| SolveWorkspace::for_system(&sys));
        // Warm start from a copy of the previous point.
        let x = match results.last() {
            Some(previous) => {
                let mut x = previous.x.clone();
                match newton_solve(&sys, &mut x, &base_ctx, opts, "dc", ws) {
                    Ok(()) => x,
                    Err(_) => solve_dc(&sys, opts, ws)?,
                }
            }
            None => solve_dc(&sys, opts, ws)?,
        };
        results.push(make_op(&sys, x));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::topology::{build_ring_vco, build_two_stage_opamp, OpampSizing, VcoSizing};
    use netlist::{Circuit, MosModel, Mosfet, SourceWaveform};

    #[test]
    fn divider_op() {
        let mut c = Circuit::new("div");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::Dc(2.0));
        c.add_resistor("R1", a, b, 1e3);
        c.add_resistor("R2", b, Circuit::GROUND, 3e3);
        let op = dc_operating_point(&c, &SimOptions::default()).unwrap();
        assert!((op.voltage(b) - 1.5).abs() < 1e-9);
        assert!((op.voltage(a) - 2.0).abs() < 1e-12);
        let v1 = c.find_device("V1").unwrap();
        assert!((op.branch_current(v1).unwrap() + 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn nmos_inverter_transfer_points() {
        // NMOS with resistive pull-up: check low and high input.
        let build = |vin: f64| {
            let mut c = Circuit::new("inv");
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.add_vsource("Vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
            c.add_vsource("Vin", inp, Circuit::GROUND, SourceWaveform::Dc(vin));
            c.add_resistor("RL", vdd, out, 10e3);
            c.add_mosfet(
                "M1",
                Mosfet {
                    drain: out,
                    gate: inp,
                    source: Circuit::GROUND,
                    w: 1e-6,
                    l: 0.12e-6,
                    model: MosModel::nmos_012(),
                },
            );
            c
        };
        let opts = SimOptions::default();
        let c_off = build(0.0);
        let op_off = dc_operating_point(&c_off, &opts).unwrap();
        let out = c_off.find_node("out").unwrap();
        assert!(
            (op_off.voltage(out) - 1.2).abs() < 1e-3,
            "off transistor → output at vdd, got {}",
            op_off.voltage(out)
        );
        let c_on = build(1.2);
        let op_on = dc_operating_point(&c_on, &opts).unwrap();
        let out = c_on.find_node("out").unwrap();
        assert!(
            op_on.voltage(out) < 0.1,
            "on transistor → output pulled low, got {}",
            op_on.voltage(out)
        );
    }

    #[test]
    fn cmos_inverter_rails() {
        let build = |vin: f64| {
            let mut c = Circuit::new("cmos_inv");
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.add_vsource("Vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
            c.add_vsource("Vin", inp, Circuit::GROUND, SourceWaveform::Dc(vin));
            c.add_mosfet(
                "Mn",
                Mosfet {
                    drain: out,
                    gate: inp,
                    source: Circuit::GROUND,
                    w: 10e-6,
                    l: 0.12e-6,
                    model: MosModel::nmos_012(),
                },
            );
            c.add_mosfet(
                "Mp",
                Mosfet {
                    drain: out,
                    gate: inp,
                    source: vdd,
                    w: 20e-6,
                    l: 0.12e-6,
                    model: MosModel::pmos_012(),
                },
            );
            c
        };
        let opts = SimOptions::default();
        let low = dc_operating_point(&build(1.2), &opts).unwrap();
        let c = build(1.2);
        let out = c.find_node("out").unwrap();
        assert!(low.voltage(out) < 1e-3, "out = {}", low.voltage(out));
        let high = dc_operating_point(&build(0.0), &opts).unwrap();
        assert!(
            (high.voltage(out) - 1.2).abs() < 1e-3,
            "out = {}",
            high.voltage(out)
        );
    }

    #[test]
    fn mosfet_diode_drop() {
        // Diode-connected NMOS fed by a current source through the supply.
        let mut c = Circuit::new("diode");
        let n = c.node("n");
        let vdd = c.node("vdd");
        c.add_vsource("Vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        c.add_isource("I1", vdd, n, SourceWaveform::Dc(100e-6));
        c.add_mosfet(
            "M1",
            Mosfet {
                drain: n,
                gate: n,
                source: Circuit::GROUND,
                w: 10e-6,
                l: 0.12e-6,
                model: MosModel::nmos_012(),
            },
        );
        let op = dc_operating_point(&c, &SimOptions::default()).unwrap();
        let v = op.voltage(n);
        // v = vto + sqrt(2I/beta): beta = 350e-6*83.3 = 29.2m, sqrt(2e-4/29.2e-3)=0.083
        assert!(
            v > 0.38 && v < 0.48,
            "diode-connected gate voltage {v} out of range"
        );
    }

    #[test]
    fn ring_vco_dc_converges_to_metastable_point() {
        // The DC solution of a ring oscillator is its metastable point —
        // a demanding convergence test for the continuation strategies.
        let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 0.8);
        let op = dc_operating_point(&vco.circuit, &SimOptions::default()).unwrap();
        for &node in &vco.stage_outputs {
            let v = op.voltage(node);
            assert!(
                (0.0..=1.2).contains(&v),
                "stage output {v} outside supply range"
            );
        }
    }

    #[test]
    fn opamp_dc_converges() {
        let op = build_two_stage_opamp(&OpampSizing::nominal(), 1.2, 20e-6);
        let sol = dc_operating_point(&op.circuit, &SimOptions::default()).unwrap();
        let vout = sol.voltage(op.out);
        assert!(
            vout.is_finite() && (0.0..=1.2).contains(&vout),
            "opamp output {vout} should sit between the rails"
        );
    }

    #[test]
    fn dc_sweep_inverter_vtc_is_monotone() {
        let mut c = Circuit::new("inv");
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("Vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        let vin = c.add_vsource("Vin", inp, Circuit::GROUND, SourceWaveform::Dc(0.0));
        c.add_mosfet(
            "Mn",
            Mosfet {
                drain: out,
                gate: inp,
                source: Circuit::GROUND,
                w: 10e-6,
                l: 0.12e-6,
                model: MosModel::nmos_012(),
            },
        );
        c.add_mosfet(
            "Mp",
            Mosfet {
                drain: out,
                gate: inp,
                source: vdd,
                w: 20e-6,
                l: 0.12e-6,
                model: MosModel::pmos_012(),
            },
        );
        let values: Vec<f64> = (0..=24).map(|i| i as f64 * 0.05).collect();
        let sweep = dc_sweep(&c, vin, &values, &SimOptions::default()).unwrap();
        let out_node = c.find_node("out").unwrap();
        let vtc: Vec<f64> = sweep.iter().map(|op| op.voltage(out_node)).collect();
        assert!((vtc[0] - 1.2).abs() < 1e-3, "output high at vin=0");
        assert!(vtc[vtc.len() - 1] < 1e-3, "output low at vin=1.2");
        for w in vtc.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "vtc must fall monotonically");
        }
    }

    #[test]
    fn dc_sweep_rejects_non_source() {
        let mut c = Circuit::new("r");
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        let r = c.add_resistor("R1", a, Circuit::GROUND, 1e3);
        assert!(matches!(
            dc_sweep(&c, r, &[1.0], &SimOptions::default()),
            Err(SimError::BadConfig { .. })
        ));
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut c = Circuit::new("l");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_inductor("L1", a, b, 1e-6);
        c.add_resistor("R1", b, Circuit::GROUND, 1e3);
        let op = dc_operating_point(&c, &SimOptions::default()).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-9, "inductor shorts in dc");
        let l1 = c.find_device("L1").unwrap();
        assert!((op.branch_current(l1).unwrap() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn vcvs_amplifies_dc() {
        let mut c = Circuit::new("e");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, SourceWaveform::Dc(0.1));
        c.add_device(
            "E1",
            netlist::Device::Vcvs {
                out_p: out,
                out_n: Circuit::GROUND,
                in_p: inp,
                in_n: Circuit::GROUND,
                gain: 10.0,
            },
        );
        c.add_resistor("RL", out, Circuit::GROUND, 1e3);
        let op = dc_operating_point(&c, &SimOptions::default()).unwrap();
        assert!((op.voltage(out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cap_isolated_node_is_singular_in_dc() {
        // A node reachable only through capacitors floats at DC: the MNA
        // matrix is singular and the error says so rather than panicking.
        let mut c = Circuit::new("float");
        let a = c.node("a");
        let x = c.node("x");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1e3);
        c.add_capacitor("C1", a, x, 1e-12);
        c.add_capacitor("C2", x, Circuit::GROUND, 1e-12);
        let err = dc_operating_point(&c, &SimOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Singular { .. } | SimError::NoConvergence { .. }
            ),
            "expected singular/non-convergent, got {err:?}"
        );
    }

    #[test]
    fn transient_resolves_cap_isolated_node() {
        // The same circuit is fine in transient: the capacitor companions
        // make the node well-defined.
        use crate::transient::{run_transient, TransientSpec};
        let mut c = Circuit::new("float");
        let a = c.node("a");
        let x = c.node("x");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1e3);
        c.add_capacitor("C1", a, x, 1e-12);
        c.add_capacitor("C2", x, Circuit::GROUND, 1e-12);
        let spec = TransientSpec::new(1e-8, 1e-10).with_ic();
        let r = run_transient(&c, &spec, &SimOptions::default()).unwrap();
        // Capacitive divider: x settles to va/2.
        let vx = r.voltage(x).final_value();
        assert!((vx - 0.5).abs() < 0.05, "cap divider voltage {vx}");
    }

    #[test]
    fn non_decade_gmin_ladder_ends_at_exact_target() {
        // tighten_gmin with opts.gmin = 7e-5 (not a decade multiple of
        // the 1e-2 start): the ladder runs 1e-2, 1e-3, 1e-4, then the
        // structural final pass at exactly 7e-5 — four Newton solves,
        // counted through the telemetry histogram.
        let mut c = Circuit::new("div");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::Dc(2.0));
        c.add_resistor("R1", a, b, 1e3);
        c.add_resistor("R2", b, Circuit::GROUND, 1e3);
        let opts = SimOptions {
            gmin: 7e-5,
            ..Default::default()
        };
        let sys = MnaSystem::new(&c).unwrap();
        let mut ws = SolveWorkspace::for_system(&sys);
        let base_ctx = AssembleContext {
            dc_sources: true,
            gmin: opts.gmin,
            source_scale: 1.0,
            ..Default::default()
        };
        let rec = telemetry::Recorder::new();
        let mut x = vec![0.0; sys.size()];
        {
            let _install = rec.install();
            tighten_gmin(&sys, &mut x, 1e-2, &base_ctx, &opts, &mut ws).unwrap();
        }
        assert!((sys.voltage_of(&x, b) - 1.0).abs() < 1e-9);
        let m = rec.metrics();
        let h = m
            .histogram(names::SIM_NEWTON_ITERATIONS_DC)
            .expect("newton histogram recorded");
        assert_eq!(
            h.count, 4,
            "ladder must solve at 1e-2, 1e-3, 1e-4 and exactly 7e-5"
        );
    }

    #[test]
    fn non_decade_gmin_converges_on_ring_vco() {
        // End-to-end regression: a non-decade gmin floor must still
        // converge through the continuation ladders and land near the
        // default-gmin solution.
        let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 0.8);
        let opts = SimOptions {
            gmin: 3e-12,
            ..Default::default()
        };
        let op = dc_operating_point(&vco.circuit, &opts).unwrap();
        let op_ref = dc_operating_point(&vco.circuit, &SimOptions::default()).unwrap();
        for &node in &vco.stage_outputs {
            let (v, vr) = (op.voltage(node), op_ref.voltage(node));
            assert!(
                (v - vr).abs() < 1e-3,
                "non-decade gmin solution {v} drifted from reference {vr}"
            );
        }
    }

    #[test]
    fn oscillator_measurement_analyses_once_per_pass_and_factors_every_iteration() {
        // Work pin on the default options: each of measure_oscillator's
        // two transients analyses the ring once and factors it once, and
        // every other Newton iteration is a numeric refactor.
        use crate::measure::{measure_oscillator, OscConfig};
        let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 0.9);
        let rec = telemetry::Recorder::new();
        {
            let _install = rec.install();
            measure_oscillator(
                &vco.circuit,
                vco.out,
                vco.vdd_source,
                &OscConfig::default(),
                &SimOptions::default(),
                None,
            )
            .expect("vco oscillates");
        }
        let m = rec.metrics();
        let factors = m.counter(names::SIM_SPARSE_FACTOR).unwrap_or(0);
        let refactors = m.counter(names::SIM_SPARSE_REFACTOR).unwrap_or(0);
        assert_eq!(m.counter(names::SIM_SPARSE_ANALYZE), Some(2));
        assert_eq!(factors, 2);
        let iterations = m
            .histogram(names::SIM_NEWTON_ITERATIONS_TRANSIENT)
            .expect("newton histogram recorded")
            .sum;
        assert_eq!((factors + refactors) as f64, iterations);
    }

    #[test]
    fn op_point_solution_accessors() {
        let mut c = Circuit::new("r");
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1e3);
        let op = dc_operating_point(&c, &SimOptions::default()).unwrap();
        assert_eq!(op.solution().len(), 2);
        assert_eq!(op.voltage(Circuit::GROUND), 0.0);
        let r1 = c.find_device("R1").unwrap();
        assert_eq!(op.branch_current(r1), None);
    }
}
