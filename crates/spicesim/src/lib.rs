//! MNA-based analogue circuit simulator.
//!
//! `spicesim` is the transistor-level evaluation engine of the hiersizer
//! workspace — the from-scratch substitute for the commercial simulator
//! used by the DATE 2009 paper. It provides:
//!
//! * [`dc`] — Newton–Raphson operating-point analysis with gmin and
//!   source stepping continuation;
//! * [`transient`] — backward-Euler / trapezoidal time-domain analysis
//!   with per-step Newton iteration and optional use-initial-conditions
//!   start (needed to kick oscillators);
//! * [`ac`] — complex small-signal analysis linearised about a DC
//!   operating point;
//! * [`mosfet`] — the level-1 square-law MOSFET evaluation with full
//!   Jacobian (both polarities, both channel orientations);
//! * [`waveform`] — waveform containers and measurements (crossings,
//!   periods, averages);
//! * [`measure`] — oscillator characterisation (frequency, supply
//!   current) built on the transient engine;
//! * [`noise`] — thermal-noise-injected jitter measurement and the fast
//!   analytic ring-oscillator jitter estimator used inside optimisation
//!   loops.
//!
//! # Examples
//!
//! DC solution of a resistive divider:
//!
//! ```
//! use netlist::{Circuit, SourceWaveform};
//! use spicesim::dc::dc_operating_point;
//!
//! # fn main() -> Result<(), spicesim::SimError> {
//! let mut c = Circuit::new("div");
//! let a = c.node("a");
//! let b = c.node("b");
//! c.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::Dc(2.0));
//! c.add_resistor("R1", a, b, 1.0e3);
//! c.add_resistor("R2", b, Circuit::GROUND, 1.0e3);
//! let op = dc_operating_point(&c, &Default::default())?;
//! assert!((op.voltage(b) - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod ac;
pub mod dc;
pub mod error;
pub mod measure;
pub mod mna;
pub mod mosfet;
pub mod noise;
pub mod opinfo;
pub mod options;
pub mod transient;
pub mod waveform;

pub use error::SimError;
pub use options::{IntegrationMethod, SimOptions};
pub use waveform::Waveform;
