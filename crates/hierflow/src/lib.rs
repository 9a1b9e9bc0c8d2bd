//! Hierarchical performance + variation optimisation of analogue ICs —
//! the DATE 2009 flow (Ali, Ke, Wilcock, Wilson).
//!
//! The flow (paper §3, Fig 4):
//!
//! 1. **Circuit-level multi-objective optimisation** — NSGA-II sizes the
//!    5-stage current-starved ring VCO against five objectives (jitter,
//!    current, gain, fmin, fmax) with transistor-level evaluation
//!    ([`vco_problem`], [`vco_eval`]).
//! 2. **Performance and variation modelling** — every Pareto-optimal
//!    sizing undergoes a Monte-Carlo analysis; performance spreads (the
//!    ∆ columns of Table 1) are extracted ([`charmodel`]).
//! 3. **Combined table model** — Pareto performances, spreads and the
//!    inverse map back to transistor dimensions are stored as
//!    `$table_model`-style lookup tables ([`model`], mirroring the
//!    paper's Listings 1–2).
//! 4. **System-level optimisation** — a behavioural charge-pump PLL is
//!    optimised over (Kvco, Ivco, C1, C2, R1); the variation model turns
//!    each nominal VCO point into min/max corners so every system
//!    performance carries its spread ([`system_opt`], Table 2).
//! 5. **Spec propagation & bottom-up verification** — the selected
//!    system solution is mapped back to transistor dimensions and
//!    confirmed with a transistor-level Monte Carlo ([`propagate`],
//!    [`verify`]; paper §4.5 reports 100 % yield over 500 samples).
//!
//! [`flow::HierarchicalFlow`] orchestrates all five stages;
//! `examples/pll_hierarchical.rs` runs it end to end.

pub mod charmodel;
pub mod checkpoint;
pub mod error;
pub mod events;
pub mod faults;
pub mod flow;
pub mod model;
pub mod policy;
pub mod propagate;
pub mod report;
pub mod system_opt;
pub mod vco_eval;
pub mod vco_problem;
pub mod verify;

pub use error::FlowError;
pub use events::{DeadlineScope, FlowEvent, FlowEvents, FlowStage};
pub use exec::{CancelToken, RetryPolicy, RunBudget};
pub use faults::{FaultInjector, FaultKind};
pub use flow::{CacheConfig, FlowConfig, FlowReport, HierarchicalFlow, TelemetryConfig};
pub use model::PerfVariationModel;
pub use policy::DegradePolicy;
pub use vco_eval::{VcoPerf, VcoTestbench};
