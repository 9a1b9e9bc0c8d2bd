//! Modified nodal analysis (MNA) system assembly.
//!
//! Unknown ordering: node voltages for every non-ground node (node `k`
//! maps to unknown `k − 1`), followed by one branch current per voltage
//! source. Sign conventions:
//!
//! * node equations are KCL "sum of currents leaving the node = 0";
//! * a voltage source's branch current flows from its `pos` terminal
//!   through the source to `neg` — a supply *delivering* current
//!   therefore shows a **negative** branch current;
//! * an independent current source drives current from `pos` through
//!   itself into `neg`.

use netlist::{Circuit, Device, DeviceId, NodeId};
use numkit::sparse::CscPattern;

use crate::error::SimError;
use crate::mosfet::eval_mosfet;

/// Destination of one assembly pass's matrix stamps: the bound value
/// array of a [`SparsePlan`], or, once per topology, the coordinate
/// recorder that discovers the plan's pattern.
trait Stamp {
    /// Adds `value` at `(r, c)`.
    fn add(&mut self, r: usize, c: usize, value: f64);
}

/// Records stamp coordinates to discover a topology's sparsity pattern.
struct PatternRecorder {
    entries: Vec<(usize, usize)>,
}

impl Stamp for PatternRecorder {
    fn add(&mut self, r: usize, c: usize, _value: f64) {
        self.entries.push((r, c));
    }
}

/// Marks a position of [`SparsePlan`]'s slot table that the device walk
/// never stamps.
const NO_SLOT: u32 = u32::MAX;

/// CSC stamp target: an indexed add through the plan's bound slots.
struct CscStamp<'p> {
    n: usize,
    slots: &'p [u32],
    values: &'p mut [f64],
}

impl Stamp for CscStamp<'_> {
    #[inline]
    fn add(&mut self, r: usize, c: usize, value: f64) {
        let e = self.slots[r * self.n + c];
        assert!(e != NO_SLOT, "stamp outside the recorded sparsity pattern");
        self.values[e as usize] += value;
    }
}

/// The per-topology sparse assembly plan: the superset sparsity pattern
/// every analysis context stamps within, plus each position's value
/// slot bound once. Built by [`MnaSystem::sparse_plan`]; the pattern
/// (not the values) is what the sparse solver's symbolic analysis
/// consumes, and the slots turn every stamp into an indexed add.
#[derive(Debug, Clone)]
pub struct SparsePlan {
    pattern: CscPattern,
    /// `slots[r * n + c]` = value-array index of entry `(r, c)`, or
    /// [`NO_SLOT`] where the walk never stamps: an `n × n` table,
    /// 1.6 KB for the 20-unknown ring VCO.
    slots: Vec<u32>,
}

impl SparsePlan {
    fn bind(pattern: CscPattern) -> Self {
        let n = pattern.dim();
        assert!(
            pattern.nnz() < NO_SLOT as usize,
            "pattern too large for u32 slots"
        );
        let mut slots = vec![NO_SLOT; n * n];
        let mut e: u32 = 0;
        for c in 0..n {
            for &r in pattern.col_rows(c) {
                slots[r * n + c] = e;
                e += 1;
            }
        }
        SparsePlan { pattern, slots }
    }

    /// The recorded sparsity pattern.
    pub fn pattern(&self) -> &CscPattern {
        &self.pattern
    }
}

/// Per-capacitor companion model for one transient step: the capacitor is
/// replaced by conductance `geq` in parallel with a current `ieq`
/// injected into terminal `a` (and drawn from `b`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CapCompanion {
    /// Companion conductance (S).
    pub geq: f64,
    /// Companion current injection into terminal `a` (A).
    pub ieq: f64,
}

/// Extra inputs threaded into an assembly pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct AssembleContext<'a> {
    /// Source evaluation time (seconds); DC uses 0 with DC values.
    pub time: f64,
    /// Whether sources report their DC value (operating point) instead of
    /// `value_at(time)`.
    pub dc_sources: bool,
    /// Minimum drain–source conductance stamped on every MOSFET.
    pub gmin: f64,
    /// Scale factor on all independent sources (source-stepping
    /// continuation uses values < 1).
    pub source_scale: f64,
    /// Transient capacitor companions, indexed by device index; `None`
    /// during DC (capacitors open).
    pub companions: Option<&'a [CapCompanion]>,
    /// Per-device extra drain→source noise current for MOSFETs, indexed
    /// by device index.
    pub noise: Option<&'a [f64]>,
    /// Previous-step solution vector, needed by inductor companions
    /// (their state is their branch current); `None` during DC.
    pub prev_solution: Option<&'a [f64]>,
    /// Time step used for the inductor companions (seconds); ignored
    /// during DC.
    pub dt: f64,
}

/// The MNA system for one circuit: index maps plus the assembly routine.
#[derive(Debug)]
pub struct MnaSystem<'c> {
    circuit: &'c Circuit,
    /// Branch-current unknown index per device (voltage sources only).
    branch_index: Vec<Option<usize>>,
    /// Total unknown count.
    size: usize,
    /// Number of voltage unknowns (= nodes − 1).
    n_voltages: usize,
}

impl<'c> MnaSystem<'c> {
    /// Builds the index maps for `circuit`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadCircuit`] if the circuit fails
    /// [`Circuit::validate`].
    pub fn new(circuit: &'c Circuit) -> Result<Self, SimError> {
        circuit.validate()?;
        let n_voltages = circuit.num_nodes() - 1;
        let mut branch_index = vec![None; circuit.num_devices()];
        let mut next = n_voltages;
        for (id, device) in circuit.devices() {
            if device.needs_branch_current() {
                branch_index[id.index()] = Some(next);
                next += 1;
            }
        }
        Ok(MnaSystem {
            circuit,
            branch_index,
            size: next,
            n_voltages,
        })
    }

    /// Total number of unknowns.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of voltage unknowns.
    pub fn num_voltage_unknowns(&self) -> usize {
        self.n_voltages
    }

    /// The circuit this system was built for.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// Unknown index of a node voltage (`None` for ground).
    pub fn voltage_index(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Unknown index of a voltage source's branch current.
    pub fn branch_index(&self, device: DeviceId) -> Option<usize> {
        self.branch_index.get(device.index()).copied().flatten()
    }

    /// Reads a node voltage out of a solution vector (0 for ground).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.size()`.
    pub fn voltage_of(&self, x: &[f64], node: NodeId) -> f64 {
        assert_eq!(x.len(), self.size, "solution vector size mismatch");
        match self.voltage_index(node) {
            Some(i) => x[i],
            None => 0.0,
        }
    }

    /// Records the superset sparsity pattern of this topology: one
    /// assembly pass under a context that enables every conditional
    /// stamp (capacitor companions, inductor companions), so DC,
    /// continuation and transient assemblies all stay inside it.
    /// Positions a given analysis leaves unstamped are explicit zeros.
    pub fn sparse_plan(&self) -> SparsePlan {
        let companions = vec![CapCompanion { geq: 1.0, ieq: 0.0 }; self.circuit.num_devices()];
        let prev = vec![0.0; self.size];
        let ctx = AssembleContext {
            time: 0.0,
            dc_sources: true,
            gmin: 1.0,
            source_scale: 1.0,
            companions: Some(&companions),
            noise: None,
            prev_solution: Some(&prev),
            dt: 1.0,
        };
        let x0 = vec![0.0; self.size];
        let mut rec = PatternRecorder {
            entries: Vec::new(),
        };
        let mut b = vec![0.0; self.size];
        self.assemble_into(&x0, &ctx, &mut rec, &mut b);
        SparsePlan::bind(CscPattern::from_entries(self.size, &rec.entries))
    }

    /// Assembles the linearised system `G·x_next = b` about the current
    /// iterate `x`: stamps into `plan`'s CSC value array and the RHS
    /// (both cleared first).
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for another size, `values`/`b` have the
    /// wrong lengths or the context stamps a position outside the
    /// recorded pattern (all internal misuse — the plan is a superset of
    /// every analysis context).
    pub fn assemble(
        &self,
        x: &[f64],
        ctx: &AssembleContext<'_>,
        plan: &SparsePlan,
        values: &mut [f64],
        b: &mut [f64],
    ) {
        assert_eq!(plan.pattern.dim(), self.size, "plan size mismatch");
        assert_eq!(values.len(), plan.pattern.nnz(), "value array mismatch");
        assert_eq!(b.len(), self.size, "rhs size mismatch");
        values.fill(0.0);
        b.fill(0.0);
        let mut stamp = CscStamp {
            n: self.size,
            slots: &plan.slots,
            values,
        };
        self.assemble_into(x, ctx, &mut stamp, b);
    }

    /// The device walk shared by the pattern recorder and the value
    /// stamps. Devices are visited in circuit order and stamps issued in
    /// a fixed sequence, so every assembly accumulates identically.
    fn assemble_into<S: Stamp>(
        &self,
        x: &[f64],
        ctx: &AssembleContext<'_>,
        g: &mut S,
        b: &mut [f64],
    ) {
        for (id, device) in self.circuit.devices() {
            match device {
                Device::Resistor { a, b: nb, value } => {
                    self.stamp_conductance(g, *a, *nb, 1.0 / value);
                }
                Device::Capacitor { a, b: nb, .. } => {
                    if let Some(companions) = ctx.companions {
                        let comp = companions[id.index()];
                        self.stamp_conductance(g, *a, *nb, comp.geq);
                        self.inject_current(b, *a, comp.ieq);
                        self.inject_current(b, *nb, -comp.ieq);
                    }
                    // DC: capacitor is an open circuit — no stamp.
                }
                Device::Inductor {
                    a, b: nb, value, ..
                } => {
                    let br = self.branch_index[id.index()].expect("inductor has branch");
                    if let Some(ia) = self.voltage_index(*a) {
                        g.add(ia, br, 1.0);
                        g.add(br, ia, 1.0);
                    }
                    if let Some(ib) = self.voltage_index(*nb) {
                        g.add(ib, br, -1.0);
                        g.add(br, ib, -1.0);
                    }
                    match ctx.prev_solution {
                        Some(prev) => {
                            // Backward-Euler companion (L-stable, used for
                            // inductors regardless of the capacitor method):
                            // v = L·di/dt → va − vb − (L/h)·i = −(L/h)·i_prev.
                            let leq = value / ctx.dt;
                            g.add(br, br, -leq);
                            b[br] += -leq * prev[br];
                        }
                        None => {
                            // DC: ideal short (va − vb = 0), no extra term.
                        }
                    }
                }
                Device::VSource { pos, neg, waveform } => {
                    let br = self.branch_index[id.index()].expect("vsource has branch");
                    let value = if ctx.dc_sources {
                        waveform.dc_value()
                    } else {
                        waveform.value_at(ctx.time)
                    } * ctx.source_scale;
                    if let Some(p) = self.voltage_index(*pos) {
                        g.add(p, br, 1.0);
                        g.add(br, p, 1.0);
                    }
                    if let Some(n) = self.voltage_index(*neg) {
                        g.add(n, br, -1.0);
                        g.add(br, n, -1.0);
                    }
                    b[br] += value;
                }
                Device::ISource { pos, neg, waveform } => {
                    let value = if ctx.dc_sources {
                        waveform.dc_value()
                    } else {
                        waveform.value_at(ctx.time)
                    } * ctx.source_scale;
                    self.inject_current(b, *pos, -value);
                    self.inject_current(b, *neg, value);
                }
                Device::Mos(m) => {
                    let vd = self.voltage_of_unchecked(x, m.drain);
                    let vg = self.voltage_of_unchecked(x, m.gate);
                    let vs = self.voltage_of_unchecked(x, m.source);
                    let e = eval_mosfet(m, vd, vg, vs);
                    // Constant part of the linearisation.
                    let ieq = e.id - e.g_d * vd - e.g_g * vg - e.g_s * vs;
                    self.stamp_triple(g, m.drain, m.drain, e.g_d);
                    self.stamp_triple(g, m.drain, m.gate, e.g_g);
                    self.stamp_triple(g, m.drain, m.source, e.g_s);
                    self.stamp_triple_neg(g, m.source, m.drain, e.g_d);
                    self.stamp_triple_neg(g, m.source, m.gate, e.g_g);
                    self.stamp_triple_neg(g, m.source, m.source, e.g_s);
                    self.inject_current(b, m.drain, -ieq);
                    self.inject_current(b, m.source, ieq);
                    // Keep the Jacobian non-singular when the channel is off.
                    self.stamp_conductance(g, m.drain, m.source, ctx.gmin);
                    // Thermal-noise injection (drain→source).
                    if let Some(noise) = ctx.noise {
                        let i_n = noise[id.index()];
                        if i_n != 0.0 {
                            self.inject_current(b, m.drain, -i_n);
                            self.inject_current(b, m.source, i_n);
                        }
                    }
                }
                Device::Vcvs {
                    out_p,
                    out_n,
                    in_p,
                    in_n,
                    gain,
                } => {
                    let br = self.branch_index[id.index()].expect("vcvs has branch");
                    if let Some(ip) = self.voltage_index(*out_p) {
                        g.add(ip, br, 1.0);
                        g.add(br, ip, 1.0);
                    }
                    if let Some(inn) = self.voltage_index(*out_n) {
                        g.add(inn, br, -1.0);
                        g.add(br, inn, -1.0);
                    }
                    if let Some(cp) = self.voltage_index(*in_p) {
                        g.add(br, cp, -gain);
                    }
                    if let Some(cn) = self.voltage_index(*in_n) {
                        g.add(br, cn, *gain);
                    }
                }
                Device::Vccs {
                    out_p,
                    out_n,
                    in_p,
                    in_n,
                    gm,
                } => {
                    self.stamp_triple(g, *out_p, *in_p, *gm);
                    self.stamp_triple(g, *out_p, *in_n, -*gm);
                    self.stamp_triple_neg(g, *out_n, *in_p, *gm);
                    self.stamp_triple_neg(g, *out_n, *in_n, -*gm);
                }
            }
        }
    }

    fn voltage_of_unchecked(&self, x: &[f64], node: NodeId) -> f64 {
        match self.voltage_index(node) {
            Some(i) => x[i],
            None => 0.0,
        }
    }

    /// Stamps a two-terminal conductance between `a` and `b`.
    fn stamp_conductance<S: Stamp>(&self, g: &mut S, a: NodeId, b: NodeId, value: f64) {
        if let Some(i) = self.voltage_index(a) {
            g.add(i, i, value);
            if let Some(j) = self.voltage_index(b) {
                g.add(i, j, -value);
                g.add(j, i, -value);
                g.add(j, j, value);
            }
        } else if let Some(j) = self.voltage_index(b) {
            g.add(j, j, value);
        }
    }

    /// Adds `value` at `(row(node_r), col(node_c))` if both are non-ground.
    fn stamp_triple<S: Stamp>(&self, g: &mut S, node_r: NodeId, node_c: NodeId, value: f64) {
        if let (Some(r), Some(c)) = (self.voltage_index(node_r), self.voltage_index(node_c)) {
            g.add(r, c, value);
        }
    }

    /// Adds `-value` at `(row(node_r), col(node_c))` if both are non-ground.
    fn stamp_triple_neg<S: Stamp>(&self, g: &mut S, node_r: NodeId, node_c: NodeId, value: f64) {
        self.stamp_triple(g, node_r, node_c, -value);
    }

    /// Injects `value` amps into `node`'s KCL equation.
    fn inject_current(&self, b: &mut [f64], node: NodeId, value: f64) {
        if let Some(i) = self.voltage_index(node) {
            b[i] += value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::SourceWaveform;
    use numkit::sparse::SparseSolver;

    fn divider() -> Circuit {
        let mut c = Circuit::new("div");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::Dc(2.0));
        c.add_resistor("R1", a, b, 1e3);
        c.add_resistor("R2", b, Circuit::GROUND, 1e3);
        c
    }

    /// DC context with every independent source scaled by `source_scale`.
    fn dc_ctx(source_scale: f64) -> AssembleContext<'static> {
        AssembleContext {
            dc_sources: true,
            gmin: 1e-12,
            source_scale,
            ..Default::default()
        }
    }

    /// Assembles `sys` about zero under `ctx` and solves once.
    fn solve_once(sys: &MnaSystem<'_>, ctx: &AssembleContext<'_>) -> Vec<f64> {
        let plan = sys.sparse_plan();
        let mut values = vec![0.0; plan.pattern().nnz()];
        let mut b = vec![0.0; sys.size()];
        sys.assemble(&vec![0.0; sys.size()], ctx, &plan, &mut values, &mut b);
        SparseSolver::new(plan.pattern())
            .solve(&values, &b)
            .unwrap()
            .0
    }

    #[test]
    fn size_counts_nodes_and_branches() {
        let c = divider();
        let sys = MnaSystem::new(&c).unwrap();
        assert_eq!(sys.size(), 3); // 2 node voltages + 1 branch current
        assert_eq!(sys.num_voltage_unknowns(), 2);
    }

    #[test]
    fn assemble_and_solve_divider() {
        let c = divider();
        let sys = MnaSystem::new(&c).unwrap();
        let x = solve_once(&sys, &dc_ctx(1.0));
        let node_b = c.find_node("b").unwrap();
        assert!((sys.voltage_of(&x, node_b) - 1.0).abs() < 1e-9);
        // Supply delivers 1 mA → branch current is −1 mA by convention.
        let v1 = c.find_device("V1").unwrap();
        let br = sys.branch_index(v1).unwrap();
        assert!((x[br] + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn bound_slots_match_the_pattern_lookup() {
        let c = divider();
        let sys = MnaSystem::new(&c).unwrap();
        let plan = sys.sparse_plan();
        let n = sys.size();
        for r in 0..n {
            for col in 0..n {
                let slot = plan.slots[r * n + col];
                let entry = plan.pattern().entry(r, col);
                assert_eq!(
                    (slot != NO_SLOT).then_some(slot as usize),
                    entry,
                    "slot of ({r}, {col})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "stamp outside the recorded sparsity pattern")]
    fn stamp_outside_the_pattern_panics() {
        let c = divider();
        let sys = MnaSystem::new(&c).unwrap();
        let plan = sys.sparse_plan();
        let mut values = vec![0.0; plan.pattern().nnz()];
        let mut stamp = CscStamp {
            n: sys.size(),
            slots: &plan.slots,
            values: &mut values,
        };
        // V1's branch row (unknown 2) only meets node `a`'s column, so
        // the divider never stamps (2, 1).
        stamp.add(2, 1, 1.0);
    }

    #[test]
    fn isource_direction() {
        // I1 pushes 1 mA from node a through itself into ground;
        // R pulls the node to -1 V? No: current leaves a through the
        // source, so the resistor must carry 1 mA INTO a → v_a = -1 V.
        let mut c = Circuit::new("i");
        let a = c.node("a");
        c.add_isource("I1", a, Circuit::GROUND, SourceWaveform::Dc(1e-3));
        c.add_resistor("R1", a, Circuit::GROUND, 1e3);
        let sys = MnaSystem::new(&c).unwrap();
        let x = solve_once(&sys, &dc_ctx(1.0));
        assert!((sys.voltage_of(&x, a) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn vccs_stamp() {
        // VCCS driven by a fixed 1 V node, pushing gm·1V into a load.
        let mut c = Circuit::new("g");
        let ctrl = c.node("ctrl");
        let out = c.node("out");
        c.add_vsource("V1", ctrl, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_device(
            "G1",
            Device::Vccs {
                out_p: out,
                out_n: Circuit::GROUND,
                in_p: ctrl,
                in_n: Circuit::GROUND,
                gm: 2e-3,
            },
        );
        c.add_resistor("RL", out, Circuit::GROUND, 1e3);
        let sys = MnaSystem::new(&c).unwrap();
        let x = solve_once(&sys, &dc_ctx(1.0));
        // Current 2 mA leaves out_p → v_out = -2 V.
        assert!((sys.voltage_of(&x, out) + 2.0).abs() < 1e-9);
    }

    #[test]
    fn capacitor_open_in_dc() {
        let mut c = Circuit::new("c");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("R1", a, b, 1e3);
        c.add_capacitor("C1", b, Circuit::GROUND, 1e-9);
        // Need a DC path at b: add big resistor.
        c.add_resistor("R2", b, Circuit::GROUND, 1e9);
        let sys = MnaSystem::new(&c).unwrap();
        let x = solve_once(&sys, &dc_ctx(1.0));
        // No DC current → vb ≈ va.
        assert!((sys.voltage_of(&x, b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn source_scale_scales_sources() {
        let c = divider();
        let sys = MnaSystem::new(&c).unwrap();
        let x = solve_once(&sys, &dc_ctx(0.5));
        let node_b = c.find_node("b").unwrap();
        assert!((sys.voltage_of(&x, node_b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn invalid_circuit_is_rejected() {
        let c = Circuit::new("empty");
        assert!(matches!(MnaSystem::new(&c), Err(SimError::BadCircuit(_))));
    }
}
