//! Property-based tests (proptest) on the workspace's core invariants.

use moea::hypervolume::hypervolume_2d;
use moea::problem::{pareto_dominates, Evaluation, Individual};
use moea::sorting::{crowding_distance, fast_non_dominated_sort};
use netlist::units::{format_value, parse_value};
use numkit::matrix::Matrix;
use numkit::stats::{quantile_sorted, wilson_interval, Summary};
use proptest::prelude::*;
use tablemodel::control::ControlSpec;
use tablemodel::interp::Table1d;
use tablemodel::spline::CubicSpline;

fn finite_f64(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |v| {
        let span = range.end - range.start;
        range.start + (v.abs() % 1.0) * span
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LU solve is a right inverse: A·solve(A, b) == b.
    #[test]
    fn lu_solve_right_inverse(
        vals in prop::collection::vec(-10.0f64..10.0, 9),
        b in prop::collection::vec(-5.0f64..5.0, 3),
    ) {
        let mut m = Matrix::zeros(3, 3);
        for r in 0..3 {
            for c in 0..3 {
                m[(r, c)] = vals[r * 3 + c];
            }
            // Diagonal dominance keeps the matrix non-singular.
            m[(r, r)] += 50.0;
        }
        let x = m.solve(&b).expect("diagonally dominant matrices solve");
        let back = m.mul_vec(&x);
        for (bi, bb) in b.iter().zip(&back) {
            prop_assert!((bi - bb).abs() < 1e-8);
        }
    }

    /// Pareto dominance is antisymmetric and irreflexive.
    #[test]
    fn dominance_antisymmetric(
        a in prop::collection::vec(0.0f64..10.0, 3),
        bvec in prop::collection::vec(0.0f64..10.0, 3),
    ) {
        prop_assert!(!pareto_dominates(&a, &a));
        prop_assert!(!(pareto_dominates(&a, &bvec) && pareto_dominates(&bvec, &a)));
    }

    /// Non-dominated sorting partitions the population: each index in
    /// exactly one front, and front 0 is mutually non-dominating.
    #[test]
    fn sorting_partitions(objs in prop::collection::vec(
        prop::collection::vec(0.0f64..10.0, 2), 2..30)) {
        let pop: Vec<Individual> = objs
            .iter()
            .map(|o| Individual::new(vec![0.0], Evaluation::feasible(o.clone())))
            .collect();
        let fronts = fast_non_dominated_sort(&pop);
        let mut seen = vec![0usize; pop.len()];
        for front in &fronts {
            for &i in front {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
        for &a in &fronts[0] {
            for &b in &fronts[0] {
                if a != b {
                    prop_assert!(!pop[a].constrained_dominates(&pop[b]));
                }
            }
        }
        // Crowding distances are non-negative.
        let d = crowding_distance(&pop, &fronts[0]);
        prop_assert!(d.iter().all(|&v| v >= 0.0));
    }

    /// Hypervolume is monotone: adding a point never shrinks it.
    #[test]
    fn hypervolume_monotone(
        pts in prop::collection::vec(prop::collection::vec(0.0f64..4.0, 2), 1..12),
        extra in prop::collection::vec(0.0f64..4.0, 2),
    ) {
        let reference = [5.0, 5.0];
        let before = hypervolume_2d(&pts, &reference);
        let mut with = pts.clone();
        with.push(extra);
        let after = hypervolume_2d(&with, &reference);
        prop_assert!(after + 1e-12 >= before);
    }

    /// Engineering-notation formatting round-trips through the parser.
    #[test]
    fn units_round_trip(mantissa in 1.0f64..999.0, exp in -13i32..10) {
        let v = mantissa * 10f64.powi(exp);
        let s = format_value(v);
        let back = parse_value(&s).expect("formatted values parse");
        prop_assert!((back - v).abs() <= 1e-5 * v.abs(), "{v} -> {s} -> {back}");
    }

    /// Natural cubic splines interpolate their knots exactly.
    #[test]
    fn spline_interpolates_knots(
        ys in prop::collection::vec(-5.0f64..5.0, 4..12),
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64 * 0.5).collect();
        let s = CubicSpline::natural(&xs, &ys).expect("valid data");
        for (x, y) in xs.iter().zip(&ys) {
            prop_assert!((s.eval(*x) - y).abs() < 1e-9);
        }
    }

    /// 1-D tables with clamp extrapolation stay within the sampled value
    /// range outside the domain, and linear interpolation stays within
    /// the local segment's value range inside it.
    #[test]
    fn table_clamp_bounds(
        ys in prop::collection::vec(-5.0f64..5.0, 3..10),
        probe in -10.0f64..20.0,
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let control: ControlSpec = "1C".parse().unwrap();
        let t = Table1d::new(xs, ys, control).expect("valid table");
        let v = t.eval(probe).expect("clamp never errors");
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    /// Summary statistics: min <= median <= max and delta is
    /// non-negative for positive-mean samples.
    #[test]
    fn summary_ordering(samples in prop::collection::vec(0.1f64..100.0, 1..50)) {
        let s = Summary::from_samples(&samples).expect("finite samples");
        prop_assert!(s.min <= s.median + 1e-12);
        prop_assert!(s.median <= s.max + 1e-12);
        prop_assert!(s.delta_percent(3.0).expect("positive mean") >= 0.0);
    }

    /// Quantiles are monotone in q.
    #[test]
    fn quantiles_monotone(
        mut samples in prop::collection::vec(-100.0f64..100.0, 2..40),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let va = quantile_sorted(&samples, qa).expect("non-empty, q in range");
        let vb = quantile_sorted(&samples, qb).expect("non-empty, q in range");
        prop_assert!(va <= vb + 1e-12);
    }

    /// Wilson intervals contain the point estimate and stay in [0, 1].
    #[test]
    fn wilson_contains_estimate(passed in 0usize..100, extra in 0usize..100) {
        let total = passed + extra + 1;
        let (lo, hi) = wilson_interval(passed.min(total), total, 1.96).expect("total >= 1");
        let p = passed.min(total) as f64 / total as f64;
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
        prop_assert!(lo <= p + 1e-12 && p <= hi + 1e-12);
    }

    /// The square-law MOSFET current is monotone in vgs at fixed vds
    /// (saturation side), a property Newton iteration relies on.
    #[test]
    fn mosfet_monotone_in_vgs(vg1 in 0.0f64..1.2, vg2 in 0.0f64..1.2) {
        let mut c = netlist::Circuit::new("t");
        let m = netlist::Mosfet {
            drain: c.node("d"),
            gate: c.node("g"),
            source: netlist::Circuit::GROUND,
            w: 10e-6,
            l: 0.12e-6,
            model: netlist::MosModel::nmos_012(),
        };
        let (lo, hi) = if vg1 <= vg2 { (vg1, vg2) } else { (vg2, vg1) };
        let i_lo = spicesim::mosfet::eval_mosfet(&m, 1.2, lo, 0.0).id;
        let i_hi = spicesim::mosfet::eval_mosfet(&m, 1.2, hi, 0.0).id;
        prop_assert!(i_hi + 1e-15 >= i_lo);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Subcircuit expansion conserves devices: an instance of a body
    /// with k elements contributes exactly k devices, names scoped.
    #[test]
    fn subckt_expansion_conserves_devices(n_inst in 1usize..6) {
        let mut text = String::from(".subckt cell a b\nR1 a m 1k\nR2 m b 1k\nC1 m 0 1p\n.ends\nV1 top 0 DC 1.0\n");
        let mut prev = "top".to_string();
        for i in 0..n_inst {
            let next = if i + 1 == n_inst { "0".to_string() } else { format!("n{i}") };
            text.push_str(&format!("Xi{i} {prev} {next} cell\n"));
            prev = next;
        }
        let c = netlist::parse(&text).expect("parses");
        prop_assert_eq!(c.num_devices(), 1 + 3 * n_inst);
        for i in 0..n_inst {
            let dev = format!("xi{i}.R1");
            let node = format!("xi{i}.m");
            let found_dev = c.find_device(&dev).is_some();
            let found_node = c.find_node(&node).is_some();
            prop_assert!(found_dev, "missing device {}", dev);
            prop_assert!(found_node, "missing node {}", node);
        }
    }

    /// Monte-Carlo delta estimates are non-negative and finite for any
    /// positive-mean metric.
    #[test]
    fn histogram_partitions_sample(samples in prop::collection::vec(-50.0f64..50.0, 1..100), bins in 1usize..20) {
        let (edges, counts) = numkit::stats::histogram(&samples, bins).expect("non-empty, bins >= 1");
        prop_assert_eq!(edges.len(), bins + 1);
        prop_assert_eq!(counts.iter().sum::<usize>(), samples.len());
        prop_assert!(edges.windows(2).all(|w| w[1] >= w[0]));
    }

    /// IGD of a front against itself is 0, and is symmetric-bounded by
    /// the max pairwise distance.
    #[test]
    fn igd_self_zero(pts in prop::collection::vec(prop::collection::vec(0.0f64..5.0, 2), 1..10)) {
        prop_assert!(moea::hypervolume::igd(&pts, &pts) < 1e-12);
    }

    /// Jittered-edge simulation produces exactly the requested cycle
    /// count with strictly positive first edge for small jitter.
    #[test]
    fn jittered_edges_count(cycles in 1usize..200) {
        let mut rng = numkit::dist::seeded_rng(1);
        let edges = behavioral::jitter::simulate_jittered_edges(&mut rng, 1e-9, 1e-13, cycles);
        prop_assert_eq!(edges.len(), cycles);
        prop_assert!(edges[0] > 0.0);
    }

    /// Loops stepped in lockstep keep the bits of lone simulations: the
    /// three gain corners of one loop filter, over the system
    /// optimiser's filter ranges and a gain spread around a reachable
    /// target.
    #[test]
    fn lockstep_lock_times_match_lone_simulations(
        c1 in 5e-12f64..50e-12,
        c2 in 0.5e-12f64..5e-12,
        r1 in 1e3f64..10e3,
        kvco in 0.8e9f64..2.4e9,
        spread in 0.0f64..0.4,
    ) {
        use behavioral::params::PllParams;
        use behavioral::timesim::{lock_times, simulate_lock, LockSimConfig};
        let cfg = LockSimConfig::default();
        let base = PllParams { c1, c2, r1, kvco, ..PllParams::nominal() };
        let corners = [kvco, kvco * (1.0 - spread), kvco * (1.0 + spread)]
            .map(|kvco| PllParams { kvco, ..base });
        let lanes = lock_times(&corners, &cfg).expect("every corner reaches the target");
        for (t, p) in lanes.iter().zip(&corners) {
            let lone = simulate_lock(p, &cfg).expect("reachable").lock_time;
            prop_assert_eq!(t.map(f64::to_bits), lone.map(f64::to_bits));
        }
    }
}

#[test]
fn finite_f64_helper_stays_in_range() {
    // Sanity-check the helper strategy itself (not a proptest).
    let _ = finite_f64(0.0..1.0);
}

// ---------------------------------------------------------------------
// Telemetry histogram invariants (the metrics registry's log-scale
// histogram must classify every f64 exactly once and merge losslessly).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every observation lands in exactly one of the three tallies:
    /// binned (positive finite), underflow (zero or negative finite),
    /// or invalid (NaN / infinities) — and the snapshot accounts for
    /// all of them.
    #[test]
    fn histogram_classifies_every_observation_once(
        values in prop::collection::vec(
            prop_oneof![
                -1.0e12f64..1.0e12,
                Just(0.0f64),
                Just(-0.0f64),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                1.0e-300f64..1.0e-250,
            ],
            1..200,
        ),
    ) {
        let h = telemetry::Histogram::new();
        let mut expect_binned = 0u64;
        let mut expect_under = 0u64;
        let mut expect_invalid = 0u64;
        for &v in &values {
            h.observe(v);
            if !v.is_finite() {
                expect_invalid += 1;
            } else if v > 0.0 {
                expect_binned += 1;
            } else {
                expect_under += 1;
            }
        }
        let snap = h.snapshot();
        let binned: u64 = snap.buckets.iter().map(|b| b.count).sum();
        prop_assert_eq!(binned, expect_binned);
        prop_assert_eq!(snap.underflow, expect_under);
        prop_assert_eq!(snap.invalid, expect_invalid);
        // `count` covers every finite observation, valid or underflow.
        prop_assert_eq!(snap.count, expect_binned + expect_under);
    }

    /// Positive finite values map into a bucket whose bounds bracket
    /// them; zero, negatives and non-finite values map to no bucket.
    #[test]
    fn histogram_bucket_bounds_bracket_the_value(v in prop::num::f64::ANY) {
        match telemetry::bucket_index(v) {
            Some(i) => {
                prop_assert!(v.is_finite() && v > 0.0);
                prop_assert!(i < telemetry::BUCKETS);
                let (lo, hi) = telemetry::bucket_bounds(i);
                // Clamped edge buckets absorb out-of-range magnitudes;
                // interior buckets must bracket exactly.
                if i > 0 && i < telemetry::BUCKETS - 1 {
                    prop_assert!(lo <= v && v < hi, "{} not in [{}, {})", v, lo, hi);
                } else if i == 0 {
                    prop_assert!(v < hi);
                } else {
                    prop_assert!(lo <= v);
                }
            }
            None => prop_assert!(!v.is_finite() || v <= 0.0),
        }
    }

    /// Exact powers of two land on their bucket's lower bound.
    #[test]
    fn histogram_power_of_two_lands_on_lower_bound(exp in -30i32..30) {
        let v = (2.0f64).powi(exp);
        let i = telemetry::bucket_index(v).expect("positive finite");
        let (lo, _) = telemetry::bucket_bounds(i);
        prop_assert_eq!(lo, v);
    }

    /// Merging histograms is equivalent to observing the union of
    /// their samples: bucket-exact, tally-exact, min/max-exact.
    #[test]
    fn histogram_merge_equals_union(
        a in prop::collection::vec(
            prop_oneof![-100.0f64..100.0, Just(f64::NAN), Just(0.0f64)], 0..60),
        b in prop::collection::vec(
            prop_oneof![-100.0f64..100.0, Just(f64::INFINITY), Just(-0.0f64)], 0..60),
    ) {
        let ha = telemetry::Histogram::new();
        let hb = telemetry::Histogram::new();
        let hu = telemetry::Histogram::new();
        for &v in &a {
            ha.observe(v);
            hu.observe(v);
        }
        for &v in &b {
            hb.observe(v);
            hu.observe(v);
        }
        ha.merge_from(&hb);
        let merged = ha.snapshot();
        let union = hu.snapshot();
        prop_assert_eq!(merged.count, union.count);
        prop_assert_eq!(merged.underflow, union.underflow);
        prop_assert_eq!(merged.invalid, union.invalid);
        prop_assert_eq!(&merged.buckets, &union.buckets);
        prop_assert_eq!(merged.min, union.min);
        prop_assert_eq!(merged.max, union.max);
        // Sums can differ only by float association order.
        let (ms, us) = (merged.sum, union.sum);
        prop_assert!((ms - us).abs() <= 1e-9 * us.abs().max(1.0));
    }
}

// ---------------------------------------------------------------------
// Order- and labelling-freedom properties (these exercise the shuffle,
// selection and inclusive-range strategies the conformance suite
// relies on).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pareto membership is order-free: shuffling the population
    /// permutes indices but must select exactly the same set of
    /// objective vectors.
    #[test]
    fn pareto_membership_is_order_free(
        objs in prop::collection::vec(prop::collection::vec(0.0f64..10.0, 2), 12),
        perm in Just((0usize..12).collect::<Vec<usize>>()).prop_shuffle(),
    ) {
        let pop: Vec<Individual> = objs
            .iter()
            .map(|o| Individual::new(vec![0.0], Evaluation::feasible(o.clone())))
            .collect();
        let shuffled: Vec<Individual> = perm.iter().map(|&i| pop[i].clone()).collect();
        let mut front_a: Vec<Vec<f64>> = moea::sorting::pareto_front_indices(&pop)
            .into_iter()
            .map(|i| pop[i].objectives.clone())
            .collect();
        let mut front_b: Vec<Vec<f64>> = moea::sorting::pareto_front_indices(&shuffled)
            .into_iter()
            .map(|i| shuffled[i].objectives.clone())
            .collect();
        let key = |v: &Vec<f64>| (v[0].to_bits(), v[1].to_bits());
        front_a.sort_by_key(key);
        front_b.sort_by_key(key);
        prop_assert_eq!(front_a, front_b);
    }

    /// Every control clause prints back to itself: Display and FromStr
    /// are inverse over the whole clause alphabet.
    #[test]
    fn control_spec_display_parse_round_trip(
        clause in prop::sample::select(vec![
            "1C", "1L", "1E", "2C", "2L", "2E", "3C", "3L", "3E",
        ]),
    ) {
        let spec: ControlSpec = clause.parse().expect("clause parses");
        prop_assert_eq!(spec.to_string(), clause);
        let back: ControlSpec = spec.to_string().parse().expect("display parses");
        prop_assert_eq!(back, spec);
    }

    /// Quantile endpoints are exact: q = 0 is the minimum, q = 1 the
    /// maximum (an inclusive integer range drives the endpoint pick).
    #[test]
    fn quantile_endpoints_are_min_and_max(
        mut samples in prop::collection::vec(-10.0f64..10.0, 2..30),
        pick in 0usize..=1,
    ) {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let v = quantile_sorted(&samples, pick as f64).expect("q in range");
        let expected = if pick == 0 { samples[0] } else { *samples.last().unwrap() };
        prop_assert_eq!(v.to_bits(), expected.to_bits());
    }
}
