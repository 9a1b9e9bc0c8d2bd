//! Transient (time-domain) analysis.
//!
//! Fixed-step integration with per-step Newton iteration. Backward Euler
//! (default) or trapezoidal companions replace each capacitor; on Newton
//! failure the step is retried as two half-steps, recursively, so sharp
//! switching edges do not kill the run. Optional thermal-noise injection
//! adds a white drain-current noise source to every MOSFET, which is how
//! period jitter is measured (see [`crate::noise`]).

use netlist::{Circuit, Device, DeviceId, NodeId};
use numkit::dist;
use rand::rngs::StdRng;

use crate::dc::{solve_dc, SolveWorkspace};
use crate::error::SimError;
use crate::mna::{AssembleContext, CapCompanion, MnaSystem};
use crate::mosfet::eval_mosfet;
use crate::options::{IntegrationMethod, SimOptions};
use crate::waveform::Waveform;
use telemetry::names;

/// Configuration of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSpec {
    /// End time (s).
    pub t_stop: f64,
    /// Base time step (s).
    pub dt: f64,
    /// Start from capacitor initial conditions instead of the DC
    /// operating point (SPICE "UIC"); required to kick oscillators.
    pub use_ic: bool,
    /// Record every n-th step (1 = record all).
    pub record_every: usize,
    /// Enable thermal-noise injection with this seed.
    pub noise_seed: Option<u64>,
}

impl TransientSpec {
    /// Creates a spec with the given horizon and step, recording every
    /// point, starting from the DC operating point, noise disabled.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        TransientSpec {
            t_stop,
            dt,
            use_ic: false,
            record_every: 1,
            noise_seed: None,
        }
    }

    /// Enables the use-initial-conditions start.
    pub fn with_ic(mut self) -> Self {
        self.use_ic = true;
        self
    }

    /// Enables thermal-noise injection.
    pub fn with_noise(mut self, seed: u64) -> Self {
        self.noise_seed = Some(seed);
        self
    }

    /// Sets recording decimation.
    pub fn recording_every(mut self, n: usize) -> Self {
        self.record_every = n.max(1);
        self
    }

    fn validate(&self) -> Result<(), SimError> {
        // `partial_cmp` keeps NaN invalid, matching the old `!(x > 0.0)`
        // semantics without the negated-operator form.
        use std::cmp::Ordering;
        if self.t_stop.partial_cmp(&0.0) != Some(Ordering::Greater)
            || self.dt.partial_cmp(&0.0) != Some(Ordering::Greater)
            || self.dt > self.t_stop
        {
            return Err(SimError::BadConfig {
                message: format!(
                    "transient needs 0 < dt <= t_stop, got dt={} t_stop={}",
                    self.dt, self.t_stop
                ),
            });
        }
        Ok(())
    }
}

/// Result of a transient run: sampled node voltages and voltage-source
/// branch currents.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    /// Indexed by `NodeId::index()`; row 0 (ground) is all zeros.
    node_v: Vec<Vec<f64>>,
    branch: Vec<(DeviceId, Vec<f64>)>,
}

impl TranResult {
    /// The sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether no samples were recorded (never true for a successful run).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Waveform of a node voltage.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated circuit.
    pub fn voltage(&self, node: NodeId) -> Waveform {
        Waveform::new(self.times.clone(), self.node_v[node.index()].clone())
    }

    /// Waveform of a voltage source's branch current (negative when the
    /// source delivers power), or `None` for devices without a branch.
    pub fn branch_current(&self, device: DeviceId) -> Option<Waveform> {
        self.branch
            .iter()
            .find(|(id, _)| *id == device)
            .map(|(_, v)| Waveform::new(self.times.clone(), v.clone()))
    }
}

/// Per-capacitor dynamic state carried between steps.
#[derive(Debug, Clone, Copy)]
struct CapState {
    device_index: usize,
    a: NodeId,
    b: NodeId,
    c: f64,
    /// Explicit initial condition, if declared on the device.
    ic: Option<f64>,
    /// Capacitor voltage at the end of the previous step.
    v_prev: f64,
    /// Capacitor current at the end of the previous step (trapezoidal).
    i_prev: f64,
}

/// Runs a transient analysis.
///
/// # Errors
///
/// Returns [`SimError::BadConfig`] for invalid specs,
/// [`SimError::BadCircuit`] for invalid circuits,
/// [`SimError::NoConvergence`]/[`SimError::Singular`] when the initial
/// operating point cannot be solved, and [`SimError::StepLimit`] when a
/// timestep still fails after step-halving has recursed down to
/// [`SimOptions::max_substep_depth`].
///
/// # Examples
///
/// RC step response against the analytic time constant:
///
/// ```
/// use netlist::topology::build_rc_lowpass;
/// use netlist::SourceWaveform;
/// use spicesim::transient::{run_transient, TransientSpec};
///
/// # fn main() -> Result<(), spicesim::SimError> {
/// let c = build_rc_lowpass(1.0e3, 1.0e-9, SourceWaveform::Pulse {
///     v1: 0.0, v2: 1.0, delay: 0.0, rise: 1e-12, fall: 1e-12,
///     width: 1.0, period: 0.0,
/// });
/// let spec = TransientSpec::new(5.0e-6, 5.0e-9).with_ic();
/// let result = run_transient(&c, &spec, &Default::default())?;
/// let out = result.voltage(c.find_node("out").expect("node"));
/// // After 5 time constants the output is within 1 % of the input.
/// assert!((out.final_value() - 1.0).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn run_transient(
    circuit: &Circuit,
    spec: &TransientSpec,
    opts: &SimOptions,
) -> Result<TranResult, SimError> {
    run_transient_until(circuit, spec, opts, None)
}

/// [`run_transient`] with an optional early stop. With
/// `stop = Some((node, level, n))` the run returns right after the
/// recorded sample that completes the `n`-th rising crossing of `level`
/// at `node` (the predicate of [`Waveform::rising_crossings`]), so the
/// result is a bitwise prefix of the unstopped run whose crossings are
/// that run's first `n`. A node that never gets there runs to `t_stop`.
pub(crate) fn run_transient_until(
    circuit: &Circuit,
    spec: &TransientSpec,
    opts: &SimOptions,
    stop: Option<(NodeId, f64, usize)>,
) -> Result<TranResult, SimError> {
    let _solve_span = telemetry::span("solve").attr("analysis", "transient");
    opts.validate()?;
    spec.validate()?;
    let sys = MnaSystem::new(circuit)?;
    let n = sys.size();
    // Newton scratch and the capacitor-companion buffer are allocated
    // once here and re-stamped in place by every Newton iteration of
    // every timestep (and sub-step) of the run.
    let mut ws = SolveWorkspace::for_system(&sys);
    let mut companions = vec![CapCompanion::default(); circuit.num_devices()];

    // Collect capacitor and MOSFET bookkeeping.
    let mut caps: Vec<CapState> = Vec::new();
    let mut mos_ids: Vec<DeviceId> = Vec::new();
    for (id, device) in circuit.devices() {
        match device {
            Device::Capacitor { a, b, value, ic } => caps.push(CapState {
                device_index: id.index(),
                a: *a,
                b: *b,
                c: *value,
                ic: *ic,
                v_prev: ic.unwrap_or(0.0),
                i_prev: 0.0,
            }),
            Device::Mos(_) => mos_ids.push(id),
            _ => {}
        }
    }

    // Initial state.
    let mut x: Vec<f64> = if spec.use_ic {
        let mut x0 = vec![0.0; n];
        // Inductor initial currents land directly on their branch unknowns.
        for (id, device) in circuit.devices() {
            if let Device::Inductor { ic: Some(ic), .. } = device {
                if let Some(br) = sys.branch_index(id) {
                    x0[br] = *ic;
                }
            }
        }
        for cap in &caps {
            if let Some(ic) = cap.ic {
                match (sys.voltage_index(cap.a), sys.voltage_index(cap.b)) {
                    (Some(i), None) => x0[i] = ic,
                    (None, Some(j)) => x0[j] = -ic,
                    (Some(i), Some(j)) => {
                        // Split the IC symmetrically across the two nodes.
                        x0[i] = ic / 2.0;
                        x0[j] = -ic / 2.0;
                    }
                    (None, None) => {}
                }
            }
        }
        x0
    } else {
        let x0 = solve_dc(&sys, opts, &mut ws)?;
        // Capacitors start at their DC voltage (explicit ICs ignored, as
        // in SPICE without UIC).
        for cap in &mut caps {
            cap.v_prev = sys.voltage_of(&x0, cap.a) - sys.voltage_of(&x0, cap.b);
        }
        x0
    };

    let mut rng: Option<StdRng> = spec.noise_seed.map(dist::seeded_rng);
    let mut noise = vec![0.0; circuit.num_devices()];

    // Recording buffers: sized for the whole window, unless a stop
    // usually ends the run far earlier — then they grow as they record.
    let est_samples = match stop {
        None => (spec.t_stop / spec.dt) as usize / spec.record_every + 2,
        Some(_) => 0,
    };
    let mut times = Vec::with_capacity(est_samples);
    let mut node_v: Vec<Vec<f64>> = (0..circuit.num_nodes())
        .map(|_| Vec::with_capacity(est_samples))
        .collect();
    let mut branch: Vec<(DeviceId, Vec<f64>)> = circuit
        .devices()
        .filter(|(_, d)| d.needs_branch_current())
        .map(|(id, _)| (id, Vec::with_capacity(est_samples)))
        .collect();

    let record = |t: f64,
                  x: &[f64],
                  node_v: &mut Vec<Vec<f64>>,
                  branch: &mut Vec<(DeviceId, Vec<f64>)>,
                  times: &mut Vec<f64>| {
        times.push(t);
        node_v[0].push(0.0);
        for node_idx in 1..circuit.num_nodes() {
            node_v[node_idx].push(x[node_idx - 1]);
        }
        for (id, samples) in branch.iter_mut() {
            let bi = sys.branch_index(*id).expect("vsource branch");
            samples.push(x[bi]);
        }
    };

    // Each step solves from `x` into `x_next`, and the two swap.
    let mut x_next = vec![0.0; n];
    if spec.use_ic {
        // Consistency solve at t=0: a vanishingly short backward-Euler
        // step whose huge companion conductance pins every capacitor at
        // its initial condition while the rest of the circuit relaxes to
        // a consistent state. Sources are evaluated at t=0.
        let dt_pin = spec.dt * 1e-6;
        step(
            &sys,
            &mut caps,
            &x,
            &mut x_next,
            -dt_pin,
            dt_pin,
            opts,
            &noise,
            0,
            IntegrationMethod::BackwardEuler,
            &mut ws,
            &mut companions,
        )?;
        std::mem::swap(&mut x, &mut x_next);
        update_cap_state(
            &sys,
            &mut caps,
            &x,
            dt_pin,
            IntegrationMethod::BackwardEuler,
        );
        // Discard the bogus pinning current so trapezoidal bootstrapping
        // starts from rest.
        for cap in caps.iter_mut() {
            cap.i_prev = 0.0;
        }
    }
    record(0.0, &x, &mut node_v, &mut branch, &mut times);

    let steps = (spec.t_stop / spec.dt).ceil() as usize;
    let mut first_step = true;
    let mut crossings = 0;
    for k in 1..=steps {
        let t = (k as f64) * spec.dt;
        // Thermal noise: white drain-current source per MOSFET, variance
        // 2kTγ·gm/dt (PSD 4kTγ·gm over the step's Nyquist bandwidth).
        if let Some(rng) = rng.as_mut() {
            for id in &mos_ids {
                if let Device::Mos(m) = circuit.device(*id) {
                    let vd = sys.voltage_of(&x, m.drain);
                    let vg = sys.voltage_of(&x, m.gate);
                    let vs = sys.voltage_of(&x, m.source);
                    let gm = eval_mosfet(m, vd, vg, vs).gm_mag;
                    let sigma = (2.0 * numkit::KT_ROOM * m.model.gamma_noise * gm / spec.dt).sqrt();
                    noise[id.index()] = dist::normal(rng, 0.0, sigma);
                }
            }
        }
        // Trapezoidal needs a bootstrap BE step (no i_prev history yet).
        let method = if first_step && opts.method == IntegrationMethod::Trapezoidal {
            IntegrationMethod::BackwardEuler
        } else {
            opts.method
        };
        step(
            &sys,
            &mut caps,
            &x,
            &mut x_next,
            t - spec.dt,
            spec.dt,
            opts,
            &noise,
            0,
            method,
            &mut ws,
            &mut companions,
        )?;
        std::mem::swap(&mut x, &mut x_next);
        update_cap_state(&sys, &mut caps, &x, spec.dt, method);
        first_step = false;

        if k % spec.record_every == 0 || k == steps {
            record(t, &x, &mut node_v, &mut branch, &mut times);
            if let Some((node, level, n)) = stop {
                let v = &node_v[node.index()];
                if v[v.len() - 2] < level && v[v.len() - 1] >= level {
                    crossings += 1;
                    if crossings == n {
                        break;
                    }
                }
            }
        }
    }

    Ok(TranResult {
        times,
        node_v,
        branch,
    })
}

/// One integration step from `x_prev` into `x`, with recursive halving
/// on Newton failure. Only the halving allocates: the midpoint state.
///
/// `ws` and `companions` are per-run scratch: companion entries for
/// every capacitor are rewritten at each (sub-)step, non-capacitor
/// entries stay at their zeroed default for the whole run.
#[allow(clippy::too_many_arguments)]
fn step(
    sys: &MnaSystem<'_>,
    caps: &mut [CapState],
    x_prev: &[f64],
    x: &mut [f64],
    t_prev: f64,
    dt: f64,
    opts: &SimOptions,
    noise: &[f64],
    depth: usize,
    method: IntegrationMethod,
    ws: &mut SolveWorkspace,
    companions: &mut Vec<CapCompanion>,
) -> Result<(), SimError> {
    for cap in caps.iter() {
        let comp = match method {
            IntegrationMethod::BackwardEuler => {
                let geq = cap.c / dt;
                CapCompanion {
                    geq,
                    ieq: geq * cap.v_prev,
                }
            }
            IntegrationMethod::Trapezoidal => {
                let geq = 2.0 * cap.c / dt;
                CapCompanion {
                    geq,
                    ieq: geq * cap.v_prev + cap.i_prev,
                }
            }
        };
        companions[cap.device_index] = comp;
    }
    // Newton starts from the previous point.
    x.copy_from_slice(x_prev);
    let newton = {
        let ctx = AssembleContext {
            time: t_prev + dt,
            dc_sources: false,
            gmin: opts.gmin,
            source_scale: 1.0,
            companions: Some(companions),
            noise: Some(noise),
            prev_solution: Some(x_prev),
            dt,
        };
        crate::dc::newton_solve(sys, x, &ctx, opts, "transient", ws)
    };
    match newton {
        Ok(()) => {
            if telemetry::enabled() {
                telemetry::observe(names::SIM_SUBSTEP_DEPTH, depth as f64);
            }
            Ok(())
        }
        Err(e) => {
            if depth >= opts.max_substep_depth {
                if telemetry::enabled() {
                    telemetry::counter_add(names::SIM_STEP_LIMIT, 1);
                }
                // Sub-stepping is exhausted: report the bounded-depth
                // failure (singular systems keep their own error — no
                // amount of halving fixes a floating node).
                if matches!(e, SimError::Singular { .. }) {
                    return Err(e);
                }
                return Err(SimError::StepLimit {
                    analysis: "transient",
                    time: t_prev + dt,
                    depth,
                });
            }
            // Sub-step: two halves, each starting from its own previous
            // point; capacitor state must advance through the midpoint,
            // so clone, advance, and write back.
            let mut mid_caps = caps.to_vec();
            let mut x_mid = vec![0.0; x.len()];
            step(
                sys,
                &mut mid_caps,
                x_prev,
                &mut x_mid,
                t_prev,
                dt / 2.0,
                opts,
                noise,
                depth + 1,
                method,
                ws,
                companions,
            )?;
            update_cap_state(sys, &mut mid_caps, &x_mid, dt / 2.0, method);
            step(
                sys,
                &mut mid_caps,
                &x_mid,
                x,
                t_prev + dt / 2.0,
                dt / 2.0,
                opts,
                noise,
                depth + 1,
                method,
                ws,
                companions,
            )?;
            update_cap_state(sys, &mut mid_caps, x, dt / 2.0, method);
            caps.copy_from_slice(&mid_caps);
            Ok(())
        }
    }
}

fn update_cap_state(
    sys: &MnaSystem<'_>,
    caps: &mut [CapState],
    x: &[f64],
    dt: f64,
    method: IntegrationMethod,
) {
    for cap in caps.iter_mut() {
        let v_now = sys.voltage_of(x, cap.a) - sys.voltage_of(x, cap.b);
        cap.i_prev = match method {
            IntegrationMethod::BackwardEuler => cap.c / dt * (v_now - cap.v_prev),
            IntegrationMethod::Trapezoidal => 2.0 * cap.c / dt * (v_now - cap.v_prev) - cap.i_prev,
        };
        cap.v_prev = v_now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::topology::{build_rc_lowpass, build_ring_vco, VcoSizing};
    use netlist::SourceWaveform;

    fn rc_step_circuit() -> Circuit {
        build_rc_lowpass(
            1e3,
            1e-9,
            SourceWaveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
                period: 0.0,
            },
        )
    }

    #[test]
    fn rc_step_matches_analytic_be() {
        let c = rc_step_circuit();
        let spec = TransientSpec::new(3e-6, 1e-9).with_ic();
        let r = run_transient(&c, &spec, &SimOptions::default()).unwrap();
        let out = r.voltage(c.find_node("out").unwrap());
        let tau: f64 = 1e-6;
        for &t in &[0.5e-6f64, 1e-6, 2e-6] {
            let expected = 1.0 - (-t / tau).exp();
            let got = out.value_at(t);
            assert!(
                (got - expected).abs() < 0.01,
                "BE at t={t}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn rc_step_matches_analytic_trap() {
        let c = rc_step_circuit();
        let spec = TransientSpec::new(3e-6, 2e-9).with_ic();
        let opts = SimOptions {
            method: IntegrationMethod::Trapezoidal,
            ..Default::default()
        };
        let r = run_transient(&c, &spec, &opts).unwrap();
        let out = r.voltage(c.find_node("out").unwrap());
        let tau: f64 = 1e-6;
        for &t in &[0.5e-6f64, 1e-6, 2e-6] {
            let expected = 1.0 - (-t / tau).exp();
            let got = out.value_at(t);
            assert!(
                (got - expected).abs() < 0.005,
                "TRAP at t={t}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn trap_is_more_accurate_than_be_at_same_step() {
        let c = rc_step_circuit();
        let tau = 1e-6;
        let expected = 1.0 - (-1e-6f64 / tau).exp();
        let spec = TransientSpec::new(2e-6, 20e-9).with_ic();
        let be = run_transient(&c, &spec, &SimOptions::default()).unwrap();
        let trap_opts = SimOptions {
            method: IntegrationMethod::Trapezoidal,
            ..Default::default()
        };
        let trap = run_transient(&c, &spec, &trap_opts).unwrap();
        let out_node = c.find_node("out").unwrap();
        let err_be = (be.voltage(out_node).value_at(1e-6) - expected).abs();
        let err_trap = (trap.voltage(out_node).value_at(1e-6) - expected).abs();
        assert!(
            err_trap < err_be,
            "trapezoidal ({err_trap}) should beat backward Euler ({err_be})"
        );
    }

    #[test]
    fn dc_start_has_no_transient() {
        // Starting from the DC operating point, nothing moves.
        let mut c = Circuit::new("static");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("R1", a, b, 1e3);
        c.add_resistor("R2", b, Circuit::GROUND, 1e3);
        c.add_capacitor("C1", b, Circuit::GROUND, 1e-9);
        let spec = TransientSpec::new(1e-6, 10e-9);
        let r = run_transient(&c, &spec, &SimOptions::default()).unwrap();
        let out = r.voltage(b);
        assert!((out.min() - 0.5).abs() < 1e-6);
        assert!((out.max() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ring_vco_oscillates() {
        let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 1.0);
        let spec = TransientSpec::new(30e-9, 2e-12)
            .with_ic()
            .recording_every(4);
        let r = run_transient(&vco.circuit, &spec, &SimOptions::default()).unwrap();
        let out = r.voltage(vco.out);
        let swing = out.max() - out.min();
        assert!(
            swing > 0.6,
            "ring oscillator swing {swing} too small — not oscillating"
        );
        let f = out
            .frequency(0.6, 4)
            .expect("enough crossings to measure frequency");
        assert!(
            (5e7..2e10).contains(&f),
            "oscillation frequency {f} outside plausible range"
        );
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts `part` holds exactly the first `part.len()` samples of
    /// `whole`, bit for bit.
    fn assert_prefix(part: &TranResult, whole: &TranResult) {
        let n = part.len();
        assert_eq!(bits(part.times()), bits(&whole.times()[..n]));
        for (p, w) in part.node_v.iter().zip(&whole.node_v) {
            assert_eq!(bits(p), bits(&w[..n]));
        }
        for ((pid, p), (wid, w)) in part.branch.iter().zip(&whole.branch) {
            assert_eq!(pid, wid);
            assert_eq!(bits(p), bits(&w[..n]));
        }
    }

    #[test]
    fn stopped_run_is_a_bitwise_prefix_of_the_full_run() {
        let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 0.9);
        let opts = SimOptions::default();
        for every in [1, 3] {
            let spec = TransientSpec::new(10e-9, 12.5e-12)
                .with_ic()
                .recording_every(every);
            let full = run_transient(&vco.circuit, &spec, &opts).unwrap();
            let full_crossings = full.voltage(vco.out).rising_crossings(0.6);
            assert!(full_crossings.len() > 4, "ring must keep oscillating");
            let stopped =
                run_transient_until(&vco.circuit, &spec, &opts, Some((vco.out, 0.6, 4))).unwrap();
            assert!(stopped.len() < full.len(), "run must end early");
            assert_prefix(&stopped, &full);
            let crossings = stopped.voltage(vco.out).rising_crossings(0.6);
            assert_eq!(bits(&crossings), bits(&full_crossings[..4]));
            // The stop lands on the sample completing the last crossing.
            assert!(*crossings.last().unwrap() > stopped.times()[stopped.len() - 2]);
        }
    }

    #[test]
    fn stop_that_never_triggers_runs_to_t_stop() {
        // Control at 0 V starves the ring: it never completes 4 rising
        // crossings, so the stopped run is the whole run.
        let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 0.0);
        let spec = TransientSpec::new(5e-9, 12.5e-12).with_ic();
        let opts = SimOptions::default();
        let full = run_transient(&vco.circuit, &spec, &opts).unwrap();
        assert!(full.voltage(vco.out).rising_crossings(0.6).len() < 4);
        let stopped =
            run_transient_until(&vco.circuit, &spec, &opts, Some((vco.out, 0.6, 4))).unwrap();
        assert_eq!(stopped.len(), full.len());
        assert_prefix(&stopped, &full);
    }

    #[test]
    fn supply_current_is_recorded() {
        let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 1.0);
        let spec = TransientSpec::new(10e-9, 2e-12)
            .with_ic()
            .recording_every(4);
        let r = run_transient(&vco.circuit, &spec, &SimOptions::default()).unwrap();
        let i = r.branch_current(vco.vdd_source).expect("vdd branch");
        // Supply delivers current → branch current negative on average.
        assert!(i.mean() < 0.0);
        // Magnitude in a plausible mA range for these device sizes.
        assert!(i.mean().abs() > 1e-5 && i.mean().abs() < 1.0);
    }

    #[test]
    fn lc_tank_rings_at_resonance() {
        // Parallel LC tank with an initial capacitor charge rings at
        // f = 1/(2π√(LC)); series loss resistor keeps decay gentle.
        let mut c = Circuit::new("lc");
        let top = c.node("top");
        let mid = c.node("mid");
        let l_val = 10e-9;
        let c_val = 10e-12; // f0 ≈ 503 MHz
        c.add_capacitor_with_ic("C1", top, Circuit::GROUND, c_val, 1.0);
        c.add_inductor("L1", top, mid, l_val);
        c.add_resistor("Rloss", mid, Circuit::GROUND, 0.5);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l_val * c_val).sqrt());
        // Backward-Euler damps; keep the step tiny relative to the period.
        let spec = TransientSpec::new(8.0 / f0, 1.0 / (f0 * 400.0)).with_ic();
        let r = run_transient(&c, &spec, &SimOptions::default()).unwrap();
        let v = r.voltage(top);
        let measured = v.frequency(0.0, 1).expect("rings");
        assert!(
            (measured / f0 - 1.0).abs() < 0.05,
            "LC resonance {measured:.3e} vs analytic {f0:.3e}"
        );
        // Energy decays through the loss resistor: envelope shrinks.
        let early_max = v
            .values()
            .iter()
            .take(v.len() / 4)
            .fold(0.0f64, |m, &x| m.max(x.abs()));
        let late_max = v
            .values()
            .iter()
            .skip(3 * v.len() / 4)
            .fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(late_max < early_max, "ringing must decay");
    }

    #[test]
    fn inductor_initial_current_drives_rl_decay() {
        // RL loop: initial inductor current decays with τ = L/R.
        let mut c = Circuit::new("rl");
        let a = c.node("a");
        let l_val = 1e-6;
        let r_val = 100.0;
        c.add_inductor_with_ic("L1", a, Circuit::GROUND, l_val, 1e-3);
        c.add_resistor("R1", a, Circuit::GROUND, r_val);
        let tau = l_val / r_val; // 10 ns
        let spec = TransientSpec::new(3.0 * tau, tau / 200.0).with_ic();
        let r = run_transient(&c, &spec, &SimOptions::default()).unwrap();
        let l1 = c.find_device("L1").unwrap();
        let i = r.branch_current(l1).expect("inductor branch current");
        let at_tau = i.value_at(tau);
        let expected = 1e-3 * (-1.0f64).exp();
        assert!(
            (at_tau - expected).abs() < 0.05e-3,
            "i(τ) = {at_tau:.4e}, expected {expected:.4e}"
        );
    }

    #[test]
    fn bad_spec_is_rejected() {
        let c = rc_step_circuit();
        let spec = TransientSpec::new(0.0, 1e-9);
        assert!(matches!(
            run_transient(&c, &spec, &SimOptions::default()),
            Err(SimError::BadConfig { .. })
        ));
    }

    #[test]
    fn exhausted_step_halving_reports_step_limit() {
        // A strongly nonlinear ring oscillator with a one-iteration
        // Newton budget cannot converge at any sub-step size, so the
        // halving recursion must bottom out in a StepLimit error
        // instead of recursing until the stack overflows.
        let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 1.0);
        let spec = TransientSpec::new(30e-9, 2e-12).with_ic();
        let opts = SimOptions {
            max_newton_iterations: 1,
            max_substep_depth: 3,
            ..Default::default()
        };
        let err = run_transient(&vco.circuit, &spec, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::StepLimit {
                    analysis: "transient",
                    depth: 3,
                    ..
                }
            ),
            "expected StepLimit at depth 3, got {err:?}"
        );
    }

    #[test]
    fn zero_substep_depth_disables_halving() {
        let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 1.0);
        let spec = TransientSpec::new(30e-9, 2e-12).with_ic();
        let opts = SimOptions {
            max_newton_iterations: 1,
            max_substep_depth: 0,
            ..Default::default()
        };
        let err = run_transient(&vco.circuit, &spec, &opts).unwrap_err();
        assert!(
            matches!(err, SimError::StepLimit { depth: 0, .. }),
            "expected StepLimit at depth 0, got {err:?}"
        );
    }

    #[test]
    fn recording_decimation_reduces_samples() {
        let c = rc_step_circuit();
        let full = run_transient(
            &c,
            &TransientSpec::new(1e-6, 1e-9).with_ic(),
            &SimOptions::default(),
        )
        .unwrap();
        let dec = run_transient(
            &c,
            &TransientSpec::new(1e-6, 1e-9).with_ic().recording_every(10),
            &SimOptions::default(),
        )
        .unwrap();
        assert!(dec.len() * 8 < full.len());
    }
}
