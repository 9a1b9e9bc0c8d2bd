//! Behavioural charge-pump PLL modelling.
//!
//! The paper's system level (§4.4–4.5) simulates a PLL built from
//! behavioural Verilog-A blocks (PFD, charge pump, loop filter, VCO,
//! divider — after Kundert, the paper's ref. 13). This crate is that behavioural layer:
//!
//! * [`blocks`] — the individual blocks with their block-level
//!   equations;
//! * [`params`] — the [`params::PllParams`] bundle the system-level
//!   optimiser manipulates (Kvco, Ivco, C1, C2, R1, …);
//! * [`timesim`] — a phase-domain, reference-cycle-stepped time
//!   simulation producing the lock transient (Fig 8), lock time and
//!   control-voltage waveform, and the lock times alone of several
//!   loops stepped in lockstep;
//! * [`linear`] — s-domain loop analysis: natural frequency, damping,
//!   bandwidth, phase margin, analytic lock-time estimate;
//! * [`jitter`] — output jitter accumulation per Kundert's model (the
//!   `jvco·√(2·ratio)` expression in the paper's Listing 2);
//! * [`spec`] — the PLL specification window of §4 (500 MHz–1.2 GHz,
//!   lock < 1 µs, current < 15 mA).
//!
//! # Examples
//!
//! Locking a nominal PLL and reading its lock time:
//!
//! ```
//! use behavioral::params::PllParams;
//! use behavioral::timesim::{simulate_lock, LockSimConfig};
//!
//! # fn main() -> Result<(), behavioral::timesim::SimulatePllError> {
//! let params = PllParams::nominal();
//! let result = simulate_lock(&params, &LockSimConfig::default())?;
//! assert!(result.locked());
//! assert!(result.lock_time.expect("locked") < 2.0e-6);
//! # Ok(())
//! # }
//! ```

pub mod blocks;
pub mod jitter;
pub mod linear;
pub mod params;
pub mod spec;
pub mod timesim;

pub use params::PllParams;
pub use spec::PllSpec;
