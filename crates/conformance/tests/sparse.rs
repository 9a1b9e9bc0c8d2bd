//! Sparse-solver conformance: the one real-valued Newton backend
//! checked against references that never pass through it.
//!
//! Each case compares the simulated result with a reference, within a
//! band derived from what separates the two in exact arithmetic:
//!
//! * **Linear RC transient**: the closed-form backward-Euler recurrence,
//!   which the simulator reproduces up to round-off, and the analytic
//!   exponential, within BE's global truncation error.
//! * **Lossless LC transient**: the analytic cosine, within BE's
//!   amplitude and phase truncation error.
//! * **Nonlinear DC** (ring VCO, two-stage opamp): the operating point's
//!   own KCL residual, evaluated device by device from the netlist,
//!   within the second-order remainder that Newton's stopping rule
//!   leaves.
//!
//! The KLU-style lifecycle itself (symbolic analysis once per
//! topology, numeric factor once, refactor-only afterwards) is
//! asserted through telemetry counters, and a node-relabelled system
//! must solve bit-identically under the composed ordering.

use conformance::bits_identical;
use netlist::topology::{
    build_rc_lowpass, build_ring_vco, build_two_stage_opamp, OpampSizing, VcoSizing,
};
use netlist::{Circuit, Device, NodeId, SourceWaveform};
use spicesim::dc::{dc_operating_point, OpPoint};
use spicesim::mosfet::eval_mosfet;
use spicesim::transient::{run_transient, TranResult, TransientSpec};
use spicesim::SimOptions;
use telemetry::names;

/// Round-off band of a linear transient against its exact discrete
/// solution. Each step rounds to a few ulps of values of order 1 and
/// the RC recurrence contracts earlier errors by `1/(1 + h/τ)`, so the
/// accumulated error stays below `(few ulps)·τ/h` ≈ 1e-13 at
/// `h/τ = 0.005`; 1e-12 leaves a decade for the LU's pivoting.
const ABS_ROUNDOFF: f64 = 1e-12;

/// A step from 0 to 1 V at t = 0 with a 1 ps edge: sampled at any
/// step of the runs below it reads exactly 1.
fn unit_step() -> SourceWaveform {
    SourceWaveform::Pulse {
        v1: 0.0,
        v2: 1.0,
        delay: 0.0,
        rise: 1.0e-12,
        fall: 1.0e-12,
        width: 1.0,
        period: 0.0,
    }
}

/// RC step response (τ = 1 µs, h = 5 ns, backward Euler), every
/// recorded sample against two references:
///
/// * the closed-form BE recurrence `v_k = (v_{k−1} + a)/(1 + a)`,
///   `a = h/τ`, within [`ABS_ROUNDOFF`];
/// * the analytic `1 − e^{−t/τ}`. BE trails it by
///   `(1 + a)^{−k} − e^{−ka} = e^{−x}(e^{k(a − ln(1 + a))} − 1)` at
///   `x = ka = t/τ`, whose exponent is at most `x·a/2`; the error is
///   therefore at most `x·e^{−x}·(a/2)·e^{x·a/2}`, below
///   `a·(1 + a)/(2e)` over the 5τ window (peak at `x = 1`).
#[test]
fn rc_transient_pair_within_linear_band() {
    let (tau, h) = (1.0e-6, 5.0e-9);
    let c = build_rc_lowpass(1.0e3, 1.0e-9, unit_step());
    let out = c.find_node("out").expect("rc output node");
    let spec = TransientSpec::new(5.0 * tau, h).with_ic();
    let wave = run_transient(&c, &spec, &SimOptions::default())
        .expect("rc transient")
        .voltage(out);
    let a = h / tau;
    let truncation = a * (1.0 + a) / (2.0 * std::f64::consts::E);
    let mut recurrence = 0.0;
    for (k, (&t, &v)) in wave.times().iter().zip(wave.values()).enumerate() {
        if k > 0 {
            recurrence = (recurrence + a) / (1.0 + a);
        }
        assert!(
            (v - recurrence).abs() <= ABS_ROUNDOFF,
            "sample {k}: {v:e} vs BE recurrence {recurrence:e}"
        );
        let analytic = 1.0 - (-t / tau).exp();
        assert!(
            (v - analytic).abs() <= truncation,
            "sample {k}: {v:e} vs analytic {analytic:e} (band {truncation:e})"
        );
    }
}

/// Lossless LC tank (10 nH ‖ 10 pF) ringing from a 1 V capacitor charge,
/// 1,000 backward-Euler steps per period over two periods, every sample
/// against the analytic `cos(ω0·t)`.
///
/// With `φ = ω0·h`, BE maps `v + j·i·√(L/C)` through `1/(1 − jφ)` per
/// step: amplitude `r = (1 + φ²)^{−½}` and phase `atan φ`. After `k`
/// steps the sample trails the cosine by at most
/// `1 − r^k ≤ k·φ²/2` in amplitude plus `k·(φ − atan φ) ≤ k·φ³/3` in
/// phase. The `t = 0` consistency step (a BE step of `h·1e-6`) starts
/// the inductor at `i = h·1e-6/L`, a phase offset of `φ·1e-6`; the
/// `1e-8` floor covers it and the round-off.
#[test]
fn lc_transient_within_backward_euler_truncation_band() {
    let (l, cap): (f64, f64) = (10.0e-9, 10.0e-12);
    let w0 = 1.0 / (l * cap).sqrt();
    let period = 2.0 * std::f64::consts::PI / w0;
    let h = period / 1000.0;
    let mut c = Circuit::new("lc");
    let top = c.node("top");
    c.add_capacitor_with_ic("C1", top, Circuit::GROUND, cap, 1.0);
    c.add_inductor("L1", top, Circuit::GROUND, l);
    let spec = TransientSpec::new(2.0 * period, h).with_ic();
    let wave = run_transient(&c, &spec, &SimOptions::default())
        .expect("lc transient")
        .voltage(top);
    let phi = w0 * h;
    assert_eq!(wave.len(), 2001, "one sample per step plus t = 0");
    for (k, (&t, &v)) in wave.times().iter().zip(wave.values()).enumerate() {
        let steps = k as f64;
        let band = steps * phi * phi / 2.0 + steps * phi.powi(3) / 3.0 + 1e-8;
        let analytic = (w0 * t).cos();
        assert!(
            (v - analytic).abs() <= band,
            "sample {k}: {v:e} vs analytic {analytic:e} (band {band:e})"
        );
    }
}

/// Net current leaving each node (indexed by `NodeId::index()`; the
/// ground row is unused) at a DC operating point, evaluated device by
/// device from the netlist, and the largest voltage-source constraint
/// violation.
fn kcl_residual(circuit: &Circuit, op: &OpPoint, gmin: f64) -> (Vec<f64>, f64) {
    let mut leaving = vec![0.0; circuit.num_nodes()];
    let mut flow = |from: NodeId, to: NodeId, i: f64| {
        leaving[from.index()] += i;
        leaving[to.index()] -= i;
    };
    let mut source_violation = 0.0f64;
    for (id, device) in circuit.devices() {
        match device {
            Device::Resistor { a, b, value } => {
                flow(*a, *b, (op.voltage(*a) - op.voltage(*b)) / value);
            }
            // Open at DC.
            Device::Capacitor { .. } => {}
            Device::VSource { pos, neg, waveform } => {
                flow(*pos, *neg, op.branch_current(id).expect("source branch"));
                let v = op.voltage(*pos) - op.voltage(*neg);
                source_violation = source_violation.max((v - waveform.dc_value()).abs());
            }
            Device::ISource { pos, neg, waveform } => flow(*pos, *neg, waveform.dc_value()),
            Device::Mos(m) => {
                let (vd, vs) = (op.voltage(m.drain), op.voltage(m.source));
                let e = eval_mosfet(m, vd, op.voltage(m.gate), vs);
                flow(m.drain, m.source, e.id + gmin * (vd - vs));
            }
            other => panic!("no DC residual for {other:?}"),
        }
    }
    (leaving, source_violation)
}

/// Asserts the default-options operating point of `circuit` satisfies
/// KCL at every node within Newton's band.
///
/// Newton stops once its last update `dx` has `|dx_i| ≤ δ = vntol +
/// reltol·|x_i|`, and that update solved the linearisation exactly, so
/// the KCL residual left is the second-order remainder of the device
/// currents over `dx`. For a square-law MOSFET of `β = kp·W/L` every
/// second derivative in `(v_gs, v_ds)` is at most `β(1 + λ·vdd)`, and a
/// terminal update of at most `δ` moves each of those by at most `2δ`,
/// so the remainder is at most `½·4·β(1 + λ·vdd)·(2δ)² = 8β(1 + λ·vdd)δ²`
/// per device on the node. The rest of these circuits is linear, so
/// only round-off remains there: 1 fA is thousands of ulps of their
/// mA-scale currents.
fn assert_dc_point_satisfies_kcl(circuit: &Circuit, vdd: f64) {
    let opts = SimOptions::default();
    let op = dc_operating_point(circuit, &opts).expect("DC converges");
    let (residual, source_violation) = kcl_residual(circuit, &op, opts.gmin);
    assert!(
        source_violation <= ABS_ROUNDOFF,
        "voltage-source constraint violated by {source_violation:e} V"
    );
    let delta = opts.vntol + opts.reltol * vdd;
    let mut band = vec![1e-15; circuit.num_nodes()];
    for (_, device) in circuit.devices() {
        if let Device::Mos(m) = device {
            let beta = m.model.kp * m.w / m.l;
            let remainder = 8.0 * beta * (1.0 + m.lambda() * vdd) * delta * delta;
            for node in [m.drain, m.source] {
                band[node.index()] += remainder;
            }
        }
    }
    for (node, (r, b)) in residual.iter().zip(&band).enumerate().skip(1) {
        assert!(
            r.abs() <= *b,
            "node {node}: KCL residual {r:e} A outside the Newton band {b:e} A"
        );
    }
}

/// Ring-VCO DC operating point (its metastable point) satisfies KCL.
#[test]
fn ring_vco_dc_point_satisfies_kcl_within_newton_band() {
    let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 0.8);
    assert_dc_point_satisfies_kcl(&vco.circuit, 1.2);
}

/// Two-stage opamp DC — a different topology class (current mirrors,
/// compensation network, a current-source bias) through the same check.
#[test]
fn opamp_dc_point_satisfies_kcl_within_newton_band() {
    let amp = build_two_stage_opamp(&OpampSizing::nominal(), 1.2, 20e-6);
    assert_dc_point_satisfies_kcl(&amp.circuit, 1.2);
}

/// The analyze-once / factor-once / refactor-many lifecycle, observed
/// through the telemetry counters the workspace emits:
///
/// * one symbolic analysis per topology (`sim.sparse.analyze`),
/// * one full numeric factorisation (`sim.sparse.factor`),
/// * a numeric refactor for every later Newton solve — at least one
///   per timestep of the run,
/// * and no pivot-decay fallbacks on this well-conditioned circuit.
#[test]
fn sparse_lifecycle_is_analyze_once_refactor_many() {
    let step = SourceWaveform::Pulse {
        v1: 0.0,
        v2: 1.0,
        delay: 0.0,
        rise: 1.0e-9,
        fall: 1.0e-9,
        width: 1.0,
        period: 0.0,
    };
    let c = build_rc_lowpass(1.0e3, 1.0e-9, step);
    let steps = 200usize;
    let spec = TransientSpec::new(1.0e-6, 1.0e-6 / steps as f64).with_ic();

    let rec = telemetry::Recorder::new();
    {
        let _install = rec.install();
        run_transient(&c, &spec, &SimOptions::default()).expect("sparse transient");
    }
    let m = rec.metrics();
    assert_eq!(
        m.counter(names::SIM_SPARSE_ANALYZE),
        Some(1),
        "symbolic analysis must run exactly once per topology"
    );
    assert_eq!(
        m.counter(names::SIM_SPARSE_FACTOR),
        Some(1),
        "full numeric factorisation must run exactly once"
    );
    let refactors = m.counter(names::SIM_SPARSE_REFACTOR).unwrap_or(0);
    assert!(
        refactors >= steps as u64,
        "expected at least one refactor per timestep ({steps}), saw {refactors}"
    );
    assert_eq!(
        m.counter(names::SIM_SPARSE_REFACTOR_FALLBACK).unwrap_or(0),
        0,
        "well-conditioned RC run must never fall back to a full factor"
    );
}

/// Metamorphic relabelling at the solver layer: permuting the unknowns
/// of a system (new labels, same physics) and composing the inverse
/// relabelling into the fill-reducing ordering must reproduce the
/// original solution bit for bit — the sparse kernel may depend on the
/// permuted matrix it factors, never on the labels the caller used.
#[test]
fn relabelled_sparse_system_is_bit_identical_under_composed_ordering() {
    use numkit::{CscPattern, SparseSolver, Symbolic};

    // An MNA-shaped system: diagonal-dominant conductance block plus a
    // zero-diagonal source branch row/column, as stamped by a V-source.
    let n = 6;
    let entries: Vec<(usize, usize, f64)> = vec![
        (0, 0, 3.0),
        (0, 1, -1.0),
        (1, 0, -1.0),
        (1, 1, 2.5),
        (1, 2, -0.5),
        (2, 1, -0.5),
        (2, 2, 4.0),
        (2, 3, -2.0),
        (3, 2, -2.0),
        (3, 3, 3.0),
        (4, 4, 1.5),
        (0, 4, -0.25),
        (4, 0, -0.25),
        // V-source branch: row 5 / column 5 with zero diagonal.
        (5, 1, 1.0),
        (1, 5, 1.0),
    ];
    let b: Vec<f64> = vec![0.1, -0.2, 0.3, 0.05, -0.4, 1.0];

    let coords: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
    let pattern = CscPattern::from_entries(n, &coords);
    let sym = Symbolic::analyze(&pattern);
    let base_order = sym.ordering().to_vec();
    let mut solver = SparseSolver::with_symbolic(sym);
    let mut vals = vec![0.0; pattern.nnz()];
    for &(r, c, v) in &entries {
        vals[pattern.entry(r, c).expect("stamped entry")] += v;
    }
    let (x, _) = solver.solve(&vals, &b).expect("base system solves");

    // Relabel: unknown i becomes sigma[i].
    let sigma = [3usize, 0, 5, 1, 4, 2];
    let rl_coords: Vec<(usize, usize)> = entries
        .iter()
        .map(|&(r, c, _)| (sigma[r], sigma[c]))
        .collect();
    let rl_pattern = CscPattern::from_entries(n, &rl_coords);
    // Composed ordering: pivot k of the relabelled system is the new
    // name of pivot k of the base system.
    let order: Vec<usize> = base_order.iter().map(|&p| sigma[p]).collect();
    let rl_sym = Symbolic::with_ordering(&rl_pattern, order);
    let mut rl_solver = SparseSolver::with_symbolic(rl_sym);
    let mut rl_vals = vec![0.0; rl_pattern.nnz()];
    let mut rl_b = vec![0.0; n];
    for &(r, c, v) in &entries {
        rl_vals[rl_pattern.entry(sigma[r], sigma[c]).expect("stamped entry")] += v;
    }
    for (i, &bv) in b.iter().enumerate() {
        rl_b[sigma[i]] = bv;
    }
    let (rl_x, _) = rl_solver
        .solve(&rl_vals, &rl_b)
        .expect("relabelled system solves");

    for i in 0..n {
        assert!(
            bits_identical(x[i], rl_x[sigma[i]]),
            "unknown {i}: {:e} vs relabelled {:e}",
            x[i],
            rl_x[sigma[i]]
        );
    }
}

/// Bits of the ring-VCO results the flow consumes, hashed with 64-bit
/// FNV-1a over each value's IEEE-754 bits in a fixed order.
struct BitDigest(u64);

impl BitDigest {
    fn new() -> Self {
        BitDigest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, values: &[f64]) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Every node voltage and every recorded branch current of `run`.
    fn add_transient(&mut self, vco: &netlist::topology::RingVco, run: &TranResult) {
        self.add(run.times());
        for node in circuit_nodes(&vco.circuit) {
            self.add(run.voltage(node).values());
        }
        for source in [vco.vdd_source, vco.vctrl_source] {
            self.add(run.branch_current(source).expect("source branch").values());
        }
    }
}

/// Every non-ground node a device of `circuit` touches, by index.
fn circuit_nodes(circuit: &Circuit) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = circuit
        .devices()
        .flat_map(|(_, device)| device.nodes())
        .filter(|n| !n.is_ground())
        .collect();
    nodes.sort_by_key(|n| n.index());
    nodes.dedup();
    nodes
}

/// Digest of [`noiseless_ring_results_keep_their_bits`], recorded when
/// the test was added. Only a change that is meant to alter the
/// solver's numbers may re-record it, as a recorded decision.
const RING_RESULTS_DIGEST: u64 = 0xde16_1599_f3e3_7b9e;

/// The solver's output, pinned bit for bit: at two control voltages,
/// the noiseless ring VCO's DC operating point, a backward-Euler
/// transient at the oscillator measurement's coarse 12.5 ps step, a
/// trapezoidal transient, and one `measure_oscillator`. Noise-injected
/// runs stay out: their normal draws go through the platform's libm.
#[test]
fn noiseless_ring_results_keep_their_bits() {
    use spicesim::measure::{measure_oscillator, OscConfig};
    use spicesim::IntegrationMethod;

    let be = SimOptions::default();
    let trap = SimOptions {
        method: IntegrationMethod::Trapezoidal,
        ..SimOptions::default()
    };
    let mut digest = BitDigest::new();
    for vctrl in [0.8, 1.0] {
        let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, vctrl);
        let op = dc_operating_point(&vco.circuit, &be).expect("DC converges");
        digest.add(op.solution());
        let coarse = TransientSpec::new(3e-9, 12.5e-12).with_ic();
        let run = run_transient(&vco.circuit, &coarse, &be).expect("BE transient");
        digest.add_transient(&vco, &run);
        let fine = TransientSpec::new(2e-9, 5e-12).with_ic();
        let run = run_transient(&vco.circuit, &fine, &trap).expect("trapezoidal transient");
        digest.add_transient(&vco, &run);
        let osc = measure_oscillator(
            &vco.circuit,
            vco.out,
            vco.vdd_source,
            &OscConfig::default(),
            &be,
            None,
        )
        .expect("ring oscillates");
        digest.add(&[osc.freq, osc.avg_supply_current]);
        digest.add(&osc.periods);
    }
    assert_eq!(
        digest.0, RING_RESULTS_DIGEST,
        "ring-VCO solver results changed: digest {:#018x}",
        digest.0
    );
}
