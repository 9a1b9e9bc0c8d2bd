//! Node-count scaling benchmark of the sparse MNA backend, the one
//! real-valued Newton solver.
//!
//! An RC ladder (the canonical banded MNA system) is integrated over a
//! fixed transient window across a node-count sweep; the record this
//! writes (`BENCH_sparse.json` at the workspace root) shows the cost
//! growing near-linearly with the unknown count, as the banded pattern
//! promises. Two ring-VCO records put the flow's own circuit (20
//! unknowns in transient) on the same scale: one DC operating point,
//! symbolic analysis included, and the mean cost of one transient
//! Newton iteration (assembly, refactor and solve).
//!
//! The KLU-style lifecycle contract is asserted on every ladder size:
//! exactly one symbolic analysis and one full numeric factor per
//! topology, a refactor per later Newton solve, no pivot fallbacks.
//!
//! Custom harness (no criterion): `--test` runs a seconds-scale smoke
//! version and skips the JSON write — CI uses it to keep the bench
//! compiling and running.

use std::hint::black_box;
use std::time::Instant;

use netlist::topology::{build_ring_vco, VcoSizing};
use netlist::{Circuit, SourceWaveform};
use spicesim::dc::dc_operating_point;
use spicesim::transient::{run_transient, TransientSpec};
use spicesim::SimOptions;
use telemetry::names;

/// An `n`-section RC ladder driven by a step: `n` internal nodes, one
/// voltage-source branch, tridiagonal-plus-border MNA pattern.
fn rc_ladder(n: usize) -> Circuit {
    let mut c = Circuit::new("ladder");
    let input = c.node("in");
    c.add_vsource(
        "Vin",
        input,
        Circuit::GROUND,
        SourceWaveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 1.0e-9,
            fall: 1.0e-9,
            width: 1.0,
            period: 0.0,
        },
    );
    let mut prev = input;
    for i in 0..n {
        let node = c.node(&format!("n{i}"));
        c.add_resistor(&format!("R{i}"), prev, node, 1.0e3);
        c.add_capacitor(&format!("C{i}"), node, Circuit::GROUND, 1.0e-12);
        prev = node;
    }
    c
}

/// Integrates `circuit` over `steps` timesteps and returns the elapsed
/// microseconds.
fn time_transient(circuit: &Circuit, steps: usize) -> f64 {
    let dt = 1.0e-9;
    let spec = TransientSpec::new(dt * steps as f64, dt).with_ic();
    let start = Instant::now();
    let r = run_transient(circuit, &spec, &SimOptions::default()).expect("transient converges");
    let micros = start.elapsed().as_secs_f64() * 1e6;
    black_box(r);
    micros
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (sizes, steps): (&[usize], usize) = if test_mode {
        (&[8, 64], 20)
    } else {
        (&[16, 32, 64, 128, 256], 100)
    };

    let mut records: Vec<String> = Vec::new();
    let mut record = |name: &str, micros: f64| {
        println!("{name:<44} {micros:>12.2} us");
        records.push(format!(
            "  {{ \"name\": \"{name}\", \"micros\": {micros:.2} }}"
        ));
    };

    // One untimed pass pages in the code and allocator arenas;
    // otherwise the first measured size absorbs the warm-up.
    time_transient(&rc_ladder(sizes[0]), 4);

    for &n in sizes {
        let circuit = rc_ladder(n);
        // Each size runs under a recorder so the analyze-once /
        // factor-once / refactor-many contract is checked on every
        // size the record reports; a counter bump costs nanoseconds,
        // noise here.
        let rec = telemetry::Recorder::new();
        let micros = {
            let _install = rec.install();
            time_transient(&circuit, steps)
        };
        let m = rec.metrics();
        assert_eq!(m.counter(names::SIM_SPARSE_ANALYZE), Some(1));
        assert_eq!(m.counter(names::SIM_SPARSE_FACTOR), Some(1));
        let refactors = m.counter(names::SIM_SPARSE_REFACTOR).unwrap_or(0);
        assert!(
            refactors >= steps as u64,
            "n={n}: expected >= {steps} refactors, saw {refactors}"
        );
        assert_eq!(
            m.counter(names::SIM_SPARSE_REFACTOR_FALLBACK).unwrap_or(0),
            0
        );
        record(&format!("rc_ladder_transient/n{n}"), micros);
    }

    // The paper's 5-stage ring VCO: one operating point, symbolic
    // analysis included.
    let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 0.8);
    let reps = if test_mode { 2 } else { 20 };
    let opts = SimOptions::default();
    let start = Instant::now();
    for _ in 0..reps {
        black_box(dc_operating_point(&vco.circuit, &opts).expect("DC converges"));
    }
    record(
        "ring_vco_dc",
        start.elapsed().as_secs_f64() * 1e6 / reps as f64,
    );

    // The same ring oscillating from its initial conditions at the
    // measurement's coarse step: the flow's inner loop. A recorded run
    // counts the Newton iterations; timed runs divide by that count.
    let spec = TransientSpec::new(if test_mode { 0.5e-9 } else { 5e-9 }, 12.5e-12).with_ic();
    let rec = telemetry::Recorder::new();
    {
        let _install = rec.install();
        black_box(run_transient(&vco.circuit, &spec, &opts).expect("ring transient"));
    }
    let iterations = rec
        .metrics()
        .histogram(names::SIM_NEWTON_ITERATIONS_TRANSIENT)
        .expect("newton histogram recorded")
        .sum;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(run_transient(&vco.circuit, &spec, &opts).expect("ring transient"));
    }
    record(
        "ring_vco_transient/per_newton_iteration",
        start.elapsed().as_secs_f64() * 1e6 / reps as f64 / iterations,
    );

    if !test_mode {
        let json = format!(
            "{{\n\"bench\": \"sparse\",\n\"unit\": \"microseconds\",\n\"results\": [\n{}\n]\n}}\n",
            records.join(",\n")
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sparse.json");
        std::fs::write(path, json).expect("write BENCH_sparse.json");
        println!("wrote {path}");
    }
}
