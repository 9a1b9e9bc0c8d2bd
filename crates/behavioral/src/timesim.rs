//! Phase-domain lock-transient simulation.
//!
//! The PLL is stepped one reference cycle at a time (the standard
//! discrete-time charge-pump PLL model): each cycle the PFD produces a
//! phase error, the charge pump converts it into a current pulse, the
//! loop filter integrates the pulse over the cycle (RK4 substeps) and
//! the VCO/divider phase advances with the instantaneous frequency.
//! This reproduces the paper's Fig 8 locking transient and yields the
//! lock time used as a system-level objective.
//!
//! One stepping core advances `L` independent loops in lockstep through
//! the same cycle and substep sequence. [`simulate_lock`] runs it on one
//! loop and records the waveforms over the whole window. [`lock_times`]
//! records nothing and stops once every loop has declared lock, which
//! the system optimiser uses to step its nominal, min and max variation
//! corners together. One RK4 substep is a chain of dependent divisions,
//! so its cost is latency: independent loops overlap in the CPU. Their
//! filters are stepped side by side, so the divisions of several loops
//! pack into vector instructions instead of queueing on the divider;
//! three loops then cost about as much as one, and the step time stays
//! steady when another hardware thread on the core is dividing too.
//! Each loop runs exactly the operations it would run alone, so lock
//! times are bit-identical however loops are grouped.

use std::fmt;

use telemetry::names;

use crate::blocks::loopfilter::FilterLanes;
use crate::blocks::{ChargePump, Divider, LoopFilter, Pfd, VcoBlock};
use crate::params::PllParams;

/// Error from the lock simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulatePllError {
    /// The parameter bundle failed validation.
    BadParams(String),
    /// The target output frequency is outside the VCO range.
    Unreachable {
        /// Target output frequency (Hz).
        f_target: f64,
        /// VCO minimum (Hz).
        fmin: f64,
        /// VCO maximum (Hz).
        fmax: f64,
    },
}

impl fmt::Display for SimulatePllError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulatePllError::BadParams(m) => write!(f, "bad pll parameters: {m}"),
            SimulatePllError::Unreachable {
                f_target,
                fmin,
                fmax,
            } => write!(
                f,
                "target {f_target:.3e} Hz outside vco range [{fmin:.3e}, {fmax:.3e}]"
            ),
        }
    }
}

impl std::error::Error for SimulatePllError {}

/// Lock-simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockSimConfig {
    /// Maximum reference cycles to simulate.
    pub max_ref_cycles: usize,
    /// Loop-filter integration substeps per reference cycle.
    pub substeps: usize,
    /// Relative frequency tolerance declaring lock.
    pub lock_tol_rel: f64,
    /// Consecutive in-tolerance cycles required to declare lock.
    pub lock_hold_cycles: usize,
    /// Initial control voltage (V).
    pub v_init: f64,
}

impl Default for LockSimConfig {
    fn default() -> Self {
        LockSimConfig {
            max_ref_cycles: 200,
            substeps: 16,
            lock_tol_rel: 0.002,
            lock_hold_cycles: 10,
            v_init: 0.0,
        }
    }
}

/// Result of a lock simulation: the control-voltage and frequency
/// transients plus the detected lock time.
#[derive(Debug, Clone)]
pub struct LockResult {
    /// Lock time (s), or `None` if the loop never settled.
    pub lock_time: Option<f64>,
    /// Sample times (s).
    pub times: Vec<f64>,
    /// Control-voltage transient (V).
    pub vctrl: Vec<f64>,
    /// VCO frequency transient (Hz).
    pub freq: Vec<f64>,
    /// Final VCO frequency (Hz).
    pub final_freq: f64,
    /// Final control voltage (V).
    pub final_vctrl: f64,
}

impl LockResult {
    /// Whether the loop locked within the simulated window.
    pub fn locked(&self) -> bool {
        self.lock_time.is_some()
    }

    fn push(&mut self, time: f64, vctrl: f64, freq: f64) {
        self.times.push(time);
        self.vctrl.push(vctrl);
        self.freq.push(freq);
    }
}

/// One loop being stepped, but for its filter: its blocks, its state
/// and its lock detector.
struct Lane {
    cp: ChargePump,
    divider: Divider,
    vco: VcoBlock,
    f_target: f64,
    t_ref: f64,
    dt: f64,
    theta_vco: f64,
    time: f64,
    /// The current cycle's pump current and pulse duty.
    pulse: (f64, f64),
    /// VCO phase at the start of the current cycle.
    theta_cycle_start: f64,
    lock_candidate: Option<f64>,
    hold: usize,
    lock_time: Option<f64>,
}

impl Lane {
    /// Validates `params` and builds the loop.
    fn new(params: &PllParams, cfg: &LockSimConfig) -> Result<Self, SimulatePllError> {
        params.validate().map_err(SimulatePllError::BadParams)?;
        let f_target = params.f_target();
        let vco = VcoBlock::new(
            params.kvco,
            params.f0,
            params.vctrl_ref,
            params.fmin,
            params.fmax,
        );
        if !vco.can_reach(f_target) {
            return Err(SimulatePllError::Unreachable {
                f_target,
                fmin: params.fmin,
                fmax: params.fmax,
            });
        }
        let t_ref = 1.0 / params.fref;
        Ok(Lane {
            cp: ChargePump::new(params.icp),
            divider: Divider::new(params.divider),
            vco,
            f_target,
            t_ref,
            dt: t_ref / cfg.substeps as f64,
            theta_vco: 0.0,
            time: 0.0,
            pulse: (0.0, 0.0),
            theta_cycle_start: 0.0,
            lock_candidate: None,
            hold: 0,
            lock_time: None,
        })
    }
}

/// `L` loops stepped together, their filters side by side.
struct Loops<const L: usize> {
    lanes: [Lane; L],
    filters: FilterLanes<L>,
}

impl<const L: usize> Loops<L> {
    /// Validates every loop, in `params` order, before building any
    /// filter; the filters start at `cfg.v_init`.
    fn new(params: &[PllParams; L], cfg: &LockSimConfig) -> Result<Self, SimulatePllError> {
        let mut built = [const { None }; L];
        for (slot, p) in built.iter_mut().zip(params) {
            *slot = Some(Lane::new(p, cfg)?);
        }
        Ok(Loops {
            lanes: built.map(|lane| lane.expect("every lane was built above")),
            filters: FilterLanes::new(
                params.map(|p| LoopFilter::new(p.c1, p.c2, p.r1, cfg.v_init)),
            ),
        })
    }

    /// Steps every loop through one shared sequence of reference cycles
    /// and substeps. With `record`, the single loop is sampled after
    /// every substep over the whole window; without it, stepping stops
    /// once every loop has declared lock, since a declared lock time
    /// never changes.
    fn step(&mut self, cfg: &LockSimConfig, mut record: Option<&mut LockResult>) {
        assert!(cfg.substeps >= 2, "need at least 2 substeps per cycle");
        assert!(cfg.max_ref_cycles > cfg.lock_hold_cycles);
        assert!(record.is_none() || L == 1, "a recording samples one loop");

        let pfd = Pfd::new();
        let two_pi = 2.0 * std::f64::consts::PI;
        let dt = self.lanes.each_ref().map(|lane| lane.dt);
        let mut theta_ref = 0.0f64;
        let mut cycles = 0;
        while cycles < cfg.max_ref_cycles {
            for lane in self.lanes.iter_mut() {
                let theta_div = lane.divider.divide_phase(lane.theta_vco);
                let phase_error = pfd.phase_error(theta_ref, theta_div);
                lane.pulse = lane.cp.pulse(phase_error);
                lane.theta_cycle_start = lane.theta_vco;
            }
            for j in 0..cfg.substeps {
                // Exact-charge discretisation: weight the pump current by
                // the overlap of this substep with the pulse window, so
                // the delivered charge matches the ideal pulse regardless
                // of substep count.
                let lo = j as f64 / cfg.substeps as f64;
                let hi = (j + 1) as f64 / cfg.substeps as f64;
                let i_now = self.lanes.each_ref().map(|lane| {
                    let (i_pump, duty) = lane.pulse;
                    let overlap = (duty.min(hi) - lo).max(0.0);
                    i_pump * overlap * cfg.substeps as f64
                });
                self.filters.step(i_now, dt);
                for (lane, &vctrl) in self.lanes.iter_mut().zip(&self.filters.v_c2) {
                    let f_now = lane.vco.freq(vctrl);
                    lane.theta_vco += two_pi * f_now * lane.dt;
                    lane.time += lane.dt;
                    if let Some(result) = record.as_deref_mut() {
                        result.push(lane.time, vctrl, f_now);
                    }
                }
            }
            theta_ref += two_pi;
            cycles += 1;

            // Lock detector: the cycle-averaged VCO frequency (phase
            // increment over the reference period) within tolerance for
            // `lock_hold_cycles` consecutive cycles. The instantaneous
            // frequency carries charge-pump ripple (Icp·R1 spikes across
            // C2) and would never settle to tolerance.
            for lane in self.lanes.iter_mut() {
                let f_avg = (lane.theta_vco - lane.theta_cycle_start) / (two_pi * lane.t_ref);
                let f_err = (f_avg - lane.f_target).abs() / lane.f_target;
                if f_err <= cfg.lock_tol_rel {
                    if lane.lock_candidate.is_none() {
                        lane.lock_candidate = Some(lane.time - lane.t_ref);
                    }
                    lane.hold += 1;
                    if lane.hold >= cfg.lock_hold_cycles && lane.lock_time.is_none() {
                        lane.lock_time = lane.lock_candidate;
                    }
                } else {
                    lane.lock_candidate = None;
                    lane.hold = 0;
                }
            }
            if record.is_none() && self.lanes.iter().all(|lane| lane.lock_time.is_some()) {
                break;
            }
        }
        if telemetry::enabled() {
            telemetry::counter_add(names::PLL_LOOPS, L as u64);
            telemetry::counter_add(names::PLL_REF_CYCLES, (cycles * L) as u64);
        }
    }
}

/// Simulates the PLL locking transient, recording the waveforms over
/// the whole `max_ref_cycles` window.
///
/// # Errors
///
/// Returns [`SimulatePllError::BadParams`] for invalid parameters and
/// [`SimulatePllError::Unreachable`] when `N·fref` lies outside the VCO
/// range (the loop would slam into a rail and never lock).
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn simulate_lock(
    params: &PllParams,
    cfg: &LockSimConfig,
) -> Result<LockResult, SimulatePllError> {
    let mut loops = Loops::new(std::array::from_ref(params), cfg)?;
    let samples = cfg.max_ref_cycles * cfg.substeps + 1;
    let mut result = LockResult {
        lock_time: None,
        times: Vec::with_capacity(samples),
        vctrl: Vec::with_capacity(samples),
        freq: Vec::with_capacity(samples),
        final_freq: 0.0,
        final_vctrl: 0.0,
    };
    let v0 = loops.filters.v_c2[0];
    result.push(0.0, v0, loops.lanes[0].vco.freq(v0));
    loops.step(cfg, Some(&mut result));
    result.lock_time = loops.lanes[0].lock_time;
    result.final_freq = *result.freq.last().expect("samples recorded");
    result.final_vctrl = *result.vctrl.last().expect("samples recorded");
    Ok(result)
}

/// Lock times of `L` loops stepped in lockstep, recording nothing:
/// entry `i` equals `simulate_lock(&params[i], cfg)?.lock_time` bit for
/// bit. Stepping stops once every loop has declared lock, and the
/// independent loops overlap in the CPU. Makes no heap allocation.
///
/// # Errors
///
/// Every loop is validated before any is stepped; the first failing
/// loop in `params` order returns the error [`simulate_lock`] would.
///
/// # Examples
///
/// ```
/// use behavioral::params::PllParams;
/// use behavioral::timesim::{lock_times, simulate_lock, LockSimConfig};
///
/// # fn main() -> Result<(), behavioral::timesim::SimulatePllError> {
/// let cfg = LockSimConfig::default();
/// let nominal = PllParams::nominal();
/// let steeper = PllParams { kvco: 1.4e9, ..nominal };
/// let [a, b] = lock_times(&[nominal, steeper], &cfg)?;
/// assert_eq!(a, simulate_lock(&nominal, &cfg)?.lock_time);
/// assert_eq!(b, simulate_lock(&steeper, &cfg)?.lock_time);
/// # Ok(())
/// # }
/// ```
pub fn lock_times<const L: usize>(
    params: &[PllParams; L],
    cfg: &LockSimConfig,
) -> Result<[Option<f64>; L], SimulatePllError> {
    let mut loops = Loops::new(params, cfg)?;
    loops.step(cfg, None);
    Ok(loops.lanes.map(|lane| lane.lock_time))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_pll_locks_to_target() {
        let p = PllParams::nominal();
        let r = simulate_lock(&p, &LockSimConfig::default()).unwrap();
        assert!(r.locked(), "nominal loop must lock");
        let f_err = (r.final_freq - p.f_target()).abs() / p.f_target();
        assert!(f_err < 0.005, "final frequency error {f_err}");
        // Lock in the paper's magnitude window (< ~2 µs).
        assert!(r.lock_time.unwrap() < 3e-6);
    }

    #[test]
    fn lock_time_positive_and_before_end() {
        let p = PllParams::nominal();
        let cfg = LockSimConfig::default();
        let r = simulate_lock(&p, &cfg).unwrap();
        let lt = r.lock_time.unwrap();
        assert!(lt > 0.0);
        assert!(lt < *r.times.last().unwrap());
    }

    #[test]
    fn unreachable_target_is_reported() {
        let mut p = PllParams::nominal();
        p.divider = 120; // 3 GHz target > fmax
        let err = simulate_lock(&p, &LockSimConfig::default()).unwrap_err();
        assert!(matches!(err, SimulatePllError::Unreachable { .. }));
    }

    #[test]
    fn stiffer_filter_locks_slower() {
        let p_fast = PllParams::nominal();
        let mut p_slow = p_fast;
        p_slow.c1 *= 8.0; // lower loop bandwidth
        p_slow.r1 *= 2.0;
        let cfg = LockSimConfig {
            max_ref_cycles: 1200,
            ..Default::default()
        };
        let fast = simulate_lock(&p_fast, &cfg).unwrap();
        let slow = simulate_lock(&p_slow, &cfg).unwrap();
        assert!(fast.locked() && slow.locked());
        assert!(
            slow.lock_time.unwrap() > fast.lock_time.unwrap(),
            "slow {:?} vs fast {:?}",
            slow.lock_time,
            fast.lock_time
        );
    }

    #[test]
    fn vctrl_settles_to_inverse_tuning_voltage() {
        let p = PllParams::nominal();
        let r = simulate_lock(&p, &LockSimConfig::default()).unwrap();
        let expected = p.vctrl_ref + (p.f_target() - p.f0) / p.kvco;
        assert!(
            (r.final_vctrl - expected).abs() < 0.02,
            "vctrl {} vs expected {expected}",
            r.final_vctrl
        );
    }

    #[test]
    fn waveforms_are_consistent() {
        let p = PllParams::nominal();
        let r = simulate_lock(&p, &LockSimConfig::default()).unwrap();
        assert_eq!(r.times.len(), r.vctrl.len());
        assert_eq!(r.times.len(), r.freq.len());
        assert!(r.times.windows(2).all(|w| w[1] > w[0]));
        // Frequencies stay within the VCO range.
        assert!(r.freq.iter().all(|&f| f >= p.fmin && f <= p.fmax));
    }

    #[test]
    fn never_locks_when_window_too_short() {
        let p = PllParams::nominal();
        let cfg = LockSimConfig {
            max_ref_cycles: 12,
            lock_hold_cycles: 10,
            ..Default::default()
        };
        let r = simulate_lock(&p, &cfg).unwrap();
        // 12 cycles at 25 MHz = 0.48 µs — too short for this loop.
        assert!(!r.locked());
    }

    #[test]
    fn bad_params_rejected() {
        let cfg = LockSimConfig::default();
        // A NaN in any field fails validation rather than reaching a
        // block constructor's assert.
        let cases: [fn(&mut PllParams); 12] = [
            |p| p.icp = -1.0,
            |p| p.fref = f64::NAN,
            |p| p.icp = f64::NAN,
            |p| p.c1 = f64::NAN,
            |p| p.c2 = f64::NAN,
            |p| p.r1 = f64::NAN,
            |p| p.kvco = f64::NAN,
            |p| p.f0 = f64::NAN,
            |p| p.fmin = f64::NAN,
            |p| p.fmax = f64::NAN,
            |p| p.ivco = f64::NAN,
            |p| p.jvco = f64::NAN,
        ];
        for set in cases {
            let mut p = PllParams::nominal();
            set(&mut p);
            assert!(
                matches!(simulate_lock(&p, &cfg), Err(SimulatePllError::BadParams(_))),
                "{p:?}"
            );
            assert!(
                matches!(lock_times(&[p], &cfg), Err(SimulatePllError::BadParams(_))),
                "{p:?}"
            );
        }
    }

    /// The `stiffer_filter_locks_slower` loop, which needs more than
    /// the default window to lock.
    fn stiff() -> PllParams {
        let p = PllParams::nominal();
        PllParams {
            c1: p.c1 * 8.0,
            r1: p.r1 * 2.0,
            ..p
        }
    }

    fn bits(t: Option<f64>) -> Option<u64> {
        t.map(f64::to_bits)
    }

    #[test]
    fn lock_times_match_simulate_lock_bit_for_bit() {
        let cfg = LockSimConfig::default();
        let nominal = PllParams::nominal();
        let reference = |p: &PllParams| bits(simulate_lock(p, &cfg).unwrap().lock_time);
        assert_eq!(reference(&stiff()), None, "stiff loop locks in the window");

        for p in [nominal, stiff()] {
            let [t] = lock_times(&[p], &cfg).unwrap();
            assert_eq!(bits(t), reference(&p), "{p:?}");
        }
        // Three corners sharing one filter, and a lane that never locks
        // beside two that do.
        let corners = [0.7e9, 1.0e9, 1.4e9].map(|kvco| PllParams { kvco, ..nominal });
        let mixed = [corners[2], stiff(), corners[0]];
        for lanes in [corners, mixed] {
            let got = lock_times(&lanes, &cfg).unwrap();
            for (t, p) in got.iter().zip(&lanes) {
                assert_eq!(bits(*t), reference(p), "{p:?}");
            }
        }
        let got = lock_times(&corners, &cfg).unwrap();
        assert!(got.iter().all(Option::is_some));
        assert!(
            got[0] != got[1] && got[1] != got[2],
            "corners differ: {got:?}"
        );
    }

    #[test]
    fn lock_times_reports_the_first_failing_lane() {
        let cfg = LockSimConfig::default();
        let nominal = PllParams::nominal();
        let unreachable = PllParams {
            divider: 120,
            ..nominal
        };
        let bad = PllParams {
            icp: -1.0,
            ..nominal
        };
        let err = |p: &PllParams| simulate_lock(p, &cfg).unwrap_err();
        assert!(matches!(
            err(&unreachable),
            SimulatePllError::Unreachable { .. }
        ));
        assert_eq!(
            lock_times(&[nominal, unreachable, nominal], &cfg).unwrap_err(),
            err(&unreachable)
        );
        assert_eq!(
            lock_times(&[nominal, bad, unreachable], &cfg).unwrap_err(),
            err(&bad)
        );
        assert_eq!(
            lock_times(&[unreachable, bad, nominal], &cfg).unwrap_err(),
            err(&unreachable)
        );
    }

    #[test]
    fn telemetry_counts_loops_and_cycles_stepped() {
        let cfg = LockSimConfig::default();
        let p = PllParams::nominal();
        let counted = |run: &dyn Fn()| {
            let rec = telemetry::Recorder::new();
            {
                let _install = rec.install();
                run();
            }
            let m = rec.metrics();
            (
                m.counter(names::PLL_LOOPS),
                m.counter(names::PLL_REF_CYCLES),
            )
        };
        let full = cfg.max_ref_cycles as u64;
        assert_eq!(
            counted(&|| {
                simulate_lock(&p, &cfg).unwrap();
            }),
            (Some(1), Some(full)),
            "a recording steps the whole window"
        );
        let (loops, cycles) = counted(&|| {
            lock_times(&[p; 3], &cfg).unwrap();
        });
        assert_eq!(loops, Some(3));
        let cycles = cycles.expect("cycles counted");
        assert!(
            cycles % 3 == 0 && cycles / 3 < full,
            "{cycles} cycles over three locking lanes"
        );
    }
}
