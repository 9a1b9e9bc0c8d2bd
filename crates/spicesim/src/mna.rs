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
//!
//! Assembly runs over devices bound once per topology
//! ([`MnaSystem::sparse_plan`]): each device's unknowns, the positions
//! of its stamps in the sparse solver's permuted value array and its
//! derived constants. A Newton iteration then stamps straight into the
//! array the solver factors.

use netlist::{Circuit, Device, DeviceId, NodeId};
use numkit::sparse::{CscPattern, SparseSolver, Symbolic};

use crate::error::SimError;
use crate::mosfet::MosConstants;

/// Unknown index of a ground terminal in a [`BoundDevice`].
const GROUND: u32 = u32::MAX;

/// Position of a stamp skipped because one of its terminals is ground.
const SKIP: u32 = u32::MAX;

/// Most matrix stamps one device issues: a MOSFET's six
/// transconductance stamps and the four of its gmin conductance.
const MAX_STAMPS: usize = 10;

/// The stamps of a two-terminal conductance between unknown slots 0
/// and 1, in issue order: `(a, a) +g`, `(a, b) −g`, `(b, a) −g`,
/// `(b, b) +g`.
const CONDUCTANCE: [(u8, u8); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];

/// What assembly needs of one device besides its unknowns and stamp
/// positions: its kind and the constants derived from its parameters.
#[derive(Debug, Clone, Copy)]
enum BoundKind {
    /// Conductance `g = 1/R`. Unknowns `[a, b]`.
    Resistor { g: f64 },
    /// Companion conductance and current of the capacitor at `device`
    /// (transient only). Unknowns `[a, b]`.
    Capacitor { device: usize },
    /// Inductance `l`. Unknowns `[a, b, branch]`.
    Inductor { l: f64 },
    /// Voltage source; its waveform is read from the circuit being
    /// assembled. Unknowns `[pos, neg, branch]`.
    VSource { device: DeviceId },
    /// Current source, read like a voltage source. Unknowns
    /// `[pos, neg]`.
    ISource { device: DeviceId },
    /// MOSFET at `device` (its noise slot). Unknowns
    /// `[drain, gate, source]`.
    Mos { device: usize, k: MosConstants },
    /// Unknowns `[out_p, out_n, in_p, in_n, branch]`.
    Vcvs { gain: f64 },
    /// Unknowns `[out_p, out_n, in_p, in_n]`.
    Vccs { gm: f64 },
}

impl BoundKind {
    /// The device's matrix stamps as pairs of its unknown slots, in the
    /// order assembly issues them. With [`Self::bind`]'s unknowns this
    /// is the one source of both the sparsity pattern and the value
    /// positions.
    fn stamps(&self) -> &'static [(u8, u8)] {
        match self {
            BoundKind::Resistor { .. } | BoundKind::Capacitor { .. } => &CONDUCTANCE,
            BoundKind::Inductor { .. } => &[(0, 2), (2, 0), (1, 2), (2, 1), (2, 2)],
            BoundKind::VSource { .. } => &[(0, 2), (2, 0), (1, 2), (2, 1)],
            BoundKind::ISource { .. } => &[],
            BoundKind::Mos { .. } => &[
                (0, 0),
                (0, 1),
                (0, 2),
                (2, 0),
                (2, 1),
                (2, 2),
                // gmin between drain and source.
                (0, 0),
                (0, 2),
                (2, 0),
                (2, 2),
            ],
            BoundKind::Vcvs { .. } => &[(0, 4), (4, 0), (1, 4), (4, 1), (4, 2), (4, 3)],
            BoundKind::Vccs { .. } => &[(0, 2), (0, 3), (1, 2), (1, 3)],
        }
    }

    /// Binds `device` of `sys`: its kind with derived constants, and
    /// the unknown index of each terminal ([`GROUND`] for ground) in
    /// [`Device::nodes`] order, then of its branch current: the slot
    /// order [`Self::stamps`] addresses.
    fn bind(sys: &MnaSystem<'_>, id: DeviceId, device: &Device) -> (Self, [u32; 5]) {
        let mut unknowns = [GROUND; 5];
        let nodes = device.nodes();
        for (slot, node) in unknowns.iter_mut().zip(&nodes) {
            *slot = sys.voltage_index(*node).map_or(GROUND, |i| i as u32);
        }
        if let Some(br) = sys.branch_index(id) {
            unknowns[nodes.len()] = br as u32;
        }
        let kind = match device {
            Device::Resistor { value, .. } => BoundKind::Resistor { g: 1.0 / value },
            Device::Capacitor { .. } => BoundKind::Capacitor { device: id.index() },
            Device::Inductor { value, .. } => BoundKind::Inductor { l: *value },
            Device::VSource { .. } => BoundKind::VSource { device: id },
            Device::ISource { .. } => BoundKind::ISource { device: id },
            Device::Mos(m) => BoundKind::Mos {
                device: id.index(),
                k: MosConstants::of(m),
            },
            Device::Vcvs { gain, .. } => BoundKind::Vcvs { gain: *gain },
            Device::Vccs { gm, .. } => BoundKind::Vccs { gm: *gm },
        };
        (kind, unknowns)
    }
}

/// One device bound to a topology.
#[derive(Debug, Clone)]
struct BoundDevice {
    kind: BoundKind,
    /// Unknown index of each terminal, then of the branch current, in
    /// the order of [`BoundKind`]'s variant docs; [`GROUND`] for a
    /// ground terminal and for unused slots.
    unknowns: [u32; 5],
    /// Position of each of [`BoundKind::stamps`] in the solver's
    /// permuted value array; [`SKIP`] where a terminal is ground.
    pos: [u32; MAX_STAMPS],
}

impl BoundDevice {
    /// Matrix coordinates of the device's stamps, `None` where a
    /// terminal is ground.
    fn coordinates(&self) -> impl Iterator<Item = Option<(usize, usize)>> + '_ {
        self.kind.stamps().iter().map(|&(i, j)| {
            let (r, c) = (self.unknowns[i as usize], self.unknowns[j as usize]);
            (r != GROUND && c != GROUND).then_some((r as usize, c as usize))
        })
    }

    /// Binds each stamp to its position in the permuted value array of
    /// a solver analysed with `symbolic` over `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if a stamp's coordinate is not in `pattern`.
    fn resolve(&mut self, pattern: &CscPattern, symbolic: &Symbolic) {
        let mut pos = [SKIP; MAX_STAMPS];
        for (slot, coordinate) in pos.iter_mut().zip(self.coordinates()) {
            if let Some((r, c)) = coordinate {
                let entry = pattern
                    .entry(r, c)
                    .expect("stamp outside the recorded sparsity pattern");
                *slot = symbolic.position(entry) as u32;
            }
        }
        self.pos = pos;
    }
}

/// The per-topology sparse assembly plan: every device of the circuit,
/// in circuit order, with its stamps bound to the value array of the
/// [`SparseSolver`] built with it. The sparsity pattern is the union of
/// the devices' stamp coordinates under every analysis context
/// (capacitor and inductor companions included), so DC, continuation
/// and transient assemblies all stay inside it; a position a given
/// analysis leaves unstamped is an explicit zero.
///
/// Source waveforms are not bound: assembly reads them from the circuit
/// it is given, so one plan serves a DC sweep that rewrites a source
/// between points. Every other device parameter is bound.
#[derive(Debug, Clone)]
pub(crate) struct SparsePlan {
    pattern: CscPattern,
    devices: Vec<BoundDevice>,
}

/// Per-capacitor companion model for one transient step: the capacitor is
/// replaced by conductance `geq` in parallel with a current `ieq`
/// injected into terminal `a` (and drawn from `b`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct CapCompanion {
    /// Companion conductance (S).
    pub(crate) geq: f64,
    /// Companion current injection into terminal `a` (A).
    pub(crate) ieq: f64,
}

/// Extra inputs threaded into an assembly pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AssembleContext<'a> {
    /// Source evaluation time (seconds); DC uses 0 with DC values.
    pub(crate) time: f64,
    /// Whether sources report their DC value (operating point) instead of
    /// `value_at(time)`.
    pub(crate) dc_sources: bool,
    /// Minimum drain–source conductance stamped on every MOSFET.
    pub(crate) gmin: f64,
    /// Scale factor on all independent sources (source-stepping
    /// continuation uses values < 1).
    pub(crate) source_scale: f64,
    /// Transient capacitor companions, indexed by device index; `None`
    /// during DC (capacitors open).
    pub(crate) companions: Option<&'a [CapCompanion]>,
    /// Per-device extra drain→source noise current for MOSFETs, indexed
    /// by device index.
    pub(crate) noise: Option<&'a [f64]>,
    /// Previous-step solution vector, needed by inductor companions
    /// (their state is their branch current); `None` during DC.
    pub(crate) prev_solution: Option<&'a [f64]>,
    /// Time step used for the inductor companions (seconds); ignored
    /// during DC.
    pub(crate) dt: f64,
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

    /// Binds every device's stamps for this topology: walks the
    /// circuit once, builds the sparsity pattern from the devices' stamp
    /// coordinates, analyses it, and resolves each stamp to its position
    /// in the returned solver's permuted value array.
    pub(crate) fn sparse_plan(&self) -> (SparsePlan, SparseSolver) {
        let mut devices: Vec<BoundDevice> = self
            .circuit
            .devices()
            .map(|(id, device)| {
                let (kind, unknowns) = BoundKind::bind(self, id, device);
                BoundDevice {
                    kind,
                    unknowns,
                    pos: [SKIP; MAX_STAMPS],
                }
            })
            .collect();
        let coordinates: Vec<(usize, usize)> = devices
            .iter()
            .flat_map(|d| d.coordinates().flatten())
            .collect();
        let pattern = CscPattern::from_entries(self.size, &coordinates);
        assert!(
            pattern.nnz() < SKIP as usize,
            "pattern too large for u32 positions"
        );
        let solver = SparseSolver::new(&pattern);
        for device in &mut devices {
            device.resolve(&pattern, solver.symbolic());
        }
        (SparsePlan { pattern, devices }, solver)
    }

    /// Assembles the linearised system `G·x_next = b` about the current
    /// iterate `x`: clears `values` (the value array of the solver
    /// `plan` was built with) and `b`, then issues every bound device's
    /// stamps in circuit order. Each position therefore sums the same
    /// terms in the same order on every call.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for another size, or `values`/`b`
    /// have the wrong lengths (internal misuse).
    pub(crate) fn assemble(
        &self,
        plan: &SparsePlan,
        x: &[f64],
        ctx: &AssembleContext<'_>,
        values: &mut [f64],
        b: &mut [f64],
    ) {
        assert_eq!(plan.pattern.dim(), self.size, "plan size mismatch");
        assert_eq!(values.len(), plan.pattern.nnz(), "value array mismatch");
        assert_eq!(b.len(), self.size, "rhs size mismatch");
        values.fill(0.0);
        b.fill(0.0);
        for device in &plan.devices {
            let u = &device.unknowns;
            let p = &device.pos;
            match device.kind {
                BoundKind::Resistor { g } => conductance(values, &p[..4], g),
                BoundKind::Capacitor { device } => {
                    // DC: capacitor is an open circuit — no stamp.
                    if let Some(companions) = ctx.companions {
                        let comp = companions[device];
                        conductance(values, &p[..4], comp.geq);
                        inject(b, u[0], comp.ieq);
                        inject(b, u[1], -comp.ieq);
                    }
                }
                BoundKind::Inductor { l } => {
                    add(values, p[0], 1.0);
                    add(values, p[1], 1.0);
                    add(values, p[2], -1.0);
                    add(values, p[3], -1.0);
                    // DC: ideal short (va − vb = 0), no extra term.
                    if let Some(prev) = ctx.prev_solution {
                        // Backward-Euler companion (L-stable, used for
                        // inductors regardless of the capacitor method):
                        // v = L·di/dt → va − vb − (L/h)·i = −(L/h)·i_prev.
                        let br = u[2] as usize;
                        let leq = l / ctx.dt;
                        add(values, p[4], -leq);
                        b[br] += -leq * prev[br];
                    }
                }
                BoundKind::VSource { device } => {
                    let value = self.source_value(device, ctx);
                    add(values, p[0], 1.0);
                    add(values, p[1], 1.0);
                    add(values, p[2], -1.0);
                    add(values, p[3], -1.0);
                    b[u[2] as usize] += value;
                }
                BoundKind::ISource { device } => {
                    let value = self.source_value(device, ctx);
                    inject(b, u[0], -value);
                    inject(b, u[1], value);
                }
                BoundKind::Mos { device, k } => {
                    let (vd, vg, vs) = (voltage(x, u[0]), voltage(x, u[1]), voltage(x, u[2]));
                    let e = k.eval(vd, vg, vs);
                    // Constant part of the linearisation.
                    let ieq = e.id - e.g_d * vd - e.g_g * vg - e.g_s * vs;
                    add(values, p[0], e.g_d);
                    add(values, p[1], e.g_g);
                    add(values, p[2], e.g_s);
                    add(values, p[3], -e.g_d);
                    add(values, p[4], -e.g_g);
                    add(values, p[5], -e.g_s);
                    inject(b, u[0], -ieq);
                    inject(b, u[2], ieq);
                    // Keep the Jacobian non-singular when the channel is off.
                    conductance(values, &p[6..10], ctx.gmin);
                    // Thermal-noise injection (drain→source).
                    if let Some(noise) = ctx.noise {
                        let i_n = noise[device];
                        if i_n != 0.0 {
                            inject(b, u[0], -i_n);
                            inject(b, u[2], i_n);
                        }
                    }
                }
                BoundKind::Vcvs { gain } => {
                    add(values, p[0], 1.0);
                    add(values, p[1], 1.0);
                    add(values, p[2], -1.0);
                    add(values, p[3], -1.0);
                    add(values, p[4], -gain);
                    add(values, p[5], gain);
                }
                BoundKind::Vccs { gm } => {
                    add(values, p[0], gm);
                    add(values, p[1], -gm);
                    add(values, p[2], -gm);
                    add(values, p[3], gm);
                }
            }
        }
    }

    /// The value of the independent source `device` in `ctx`.
    fn source_value(&self, device: DeviceId, ctx: &AssembleContext<'_>) -> f64 {
        let (Device::VSource { waveform, .. } | Device::ISource { waveform, .. }) =
            self.circuit.device(device)
        else {
            unreachable!("bound as an independent source")
        };
        let value = if ctx.dc_sources {
            waveform.dc_value()
        } else {
            waveform.value_at(ctx.time)
        };
        value * ctx.source_scale
    }
}

/// The voltage of unknown `i` in `x` (0 for ground).
#[inline]
fn voltage(x: &[f64], i: u32) -> f64 {
    if i == GROUND {
        0.0
    } else {
        x[i as usize]
    }
}

/// Adds `value` at value position `pos`, unless the stamp is skipped.
#[inline]
fn add(values: &mut [f64], pos: u32, value: f64) {
    if pos != SKIP {
        values[pos as usize] += value;
    }
}

/// Issues the four stamps of a conductance `g` (see [`CONDUCTANCE`]).
#[inline]
fn conductance(values: &mut [f64], pos: &[u32], g: f64) {
    add(values, pos[0], g);
    add(values, pos[1], -g);
    add(values, pos[2], -g);
    add(values, pos[3], g);
}

/// Injects `value` amps into unknown `i`'s KCL equation.
#[inline]
fn inject(b: &mut [f64], i: u32, value: f64) {
    if i != GROUND {
        b[i as usize] += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::eval_mosfet;
    use netlist::{MosModel, Mosfet, SourceWaveform};

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
        let (plan, mut solver) = sys.sparse_plan();
        let mut b = vec![0.0; sys.size()];
        let x = vec![0.0; sys.size()];
        sys.assemble(&plan, &x, ctx, solver.values_mut(), &mut b);
        solver.solve_in_place(&mut b).unwrap();
        b
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
        // Every bound stamp sits at its coordinate's pattern entry
        // composed with the solver's scatter map; ground stamps skip.
        let c = divider();
        let sys = MnaSystem::new(&c).unwrap();
        let (plan, solver) = sys.sparse_plan();
        for device in &plan.devices {
            for (k, coordinate) in device.coordinates().enumerate() {
                let expected = coordinate.map(|(r, col)| {
                    let entry = plan.pattern.entry(r, col).expect("stamp in pattern");
                    solver.symbolic().position(entry) as u32
                });
                assert_eq!(device.pos[k], expected.unwrap_or(SKIP), "{device:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "stamp outside the recorded sparsity pattern")]
    fn stamp_outside_the_pattern_panics() {
        let c = divider();
        let sys = MnaSystem::new(&c).unwrap();
        let (plan, solver) = sys.sparse_plan();
        // V1's branch row (unknown 2) only meets node `a`'s column, so
        // the divider's pattern has no (1, 2): a conductance between
        // node `b` and the branch cannot bind to it.
        let mut stray = BoundDevice {
            kind: BoundKind::Resistor { g: 1.0 },
            unknowns: [1, 2, GROUND, GROUND, GROUND],
            pos: [SKIP; MAX_STAMPS],
        };
        stray.resolve(&plan.pattern, solver.symbolic());
    }

    /// A circuit with every device kind, each with terminals both on
    /// and off ground, both MOSFET polarities and a diode-connected
    /// MOSFET (two of its stamps land on one position).
    fn every_kind() -> Circuit {
        let mut c = Circuit::new("kinds");
        let n: Vec<NodeId> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|name| c.node(name))
            .collect();
        let (a, b, cc, d, e, f) = (n[0], n[1], n[2], n[3], n[4], n[5]);
        let gnd = Circuit::GROUND;
        let pulse = SourceWaveform::Pulse {
            v1: 0.1,
            v2: 1.1,
            delay: 1e-10,
            rise: 3e-10,
            fall: 3e-10,
            width: 1e-9,
            period: 0.0,
        };
        c.add_vsource("V1", a, gnd, pulse.clone());
        c.add_vsource("V2", b, cc, SourceWaveform::Dc(0.3));
        c.add_resistor("R1", a, b, 1e3 / 3.0);
        c.add_resistor("R2", cc, gnd, 7e3);
        c.add_resistor("R3", gnd, d, 2.2e3);
        c.add_capacitor("C1", b, cc, 1e-12 / 3.0);
        c.add_capacitor("C2", d, gnd, 2e-12);
        c.add_capacitor("C3", gnd, e, 5e-13);
        c.add_inductor("L1", cc, d, 1e-9 / 7.0);
        c.add_inductor("L2", e, gnd, 3e-9);
        c.add_isource("I1", d, e, SourceWaveform::Dc(1e-4 / 3.0));
        c.add_isource("I2", gnd, f, pulse);
        let mos = |drain, gate, source, model| Mosfet {
            drain,
            gate,
            source,
            w: 3e-6,
            l: 0.13e-6,
            model,
        };
        c.add_mosfet("M1", mos(e, a, gnd, MosModel::nmos_012()));
        c.add_mosfet("M2", mos(f, b, a, MosModel::pmos_012()));
        c.add_mosfet("M3", mos(a, a, gnd, MosModel::nmos_012()));
        c.add_device(
            "E1",
            Device::Vcvs {
                out_p: f,
                out_n: gnd,
                in_p: a,
                in_n: cc,
                gain: 2.0 / 3.0,
            },
        );
        c.add_device(
            "G1",
            Device::Vccs {
                out_p: gnd,
                out_n: d,
                in_p: e,
                in_n: f,
                gm: 1e-3 / 3.0,
            },
        );
        c.add_device(
            "G2",
            Device::Vccs {
                out_p: b,
                out_n: cc,
                in_p: gnd,
                in_n: a,
                gm: 7e-4,
            },
        );
        c
    }

    /// Adds `v` at `(r, c)` of a dense matrix unless either is ground.
    fn put(g: &mut [Vec<f64>], r: Option<usize>, c: Option<usize>, v: f64) {
        if let (Some(r), Some(c)) = (r, c) {
            g[r][c] += v;
        }
    }

    /// A conductance `v` between unknowns `p` and `q`.
    fn put_conductance(g: &mut [Vec<f64>], p: Option<usize>, q: Option<usize>, v: f64) {
        put(g, p, p, v);
        put(g, p, q, -v);
        put(g, q, p, -v);
        put(g, q, q, v);
    }

    /// Adds `v` to row `i` of the RHS unless it is ground.
    fn put_rhs(rhs: &mut [f64], i: Option<usize>, v: f64) {
        if let Some(i) = i {
            rhs[i] += v;
        }
    }

    /// Stamps `sys` into a dense matrix and RHS device by device: a
    /// reference walk that shares nothing with the bound plan but the
    /// MOSFET model and the stamp order.
    fn dense_reference(
        sys: &MnaSystem<'_>,
        x: &[f64],
        ctx: &AssembleContext<'_>,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let n = sys.size();
        let mut g = vec![vec![0.0; n]; n];
        let mut rhs = vec![0.0; n];
        let idx = |node: &NodeId| sys.voltage_index(*node);
        let source = |w: &SourceWaveform| {
            let v = if ctx.dc_sources {
                w.dc_value()
            } else {
                w.value_at(ctx.time)
            };
            v * ctx.source_scale
        };
        for (id, device) in sys.circuit().devices() {
            let br = sys.branch_index(id);
            match device {
                Device::Resistor { a, b, value } => {
                    put_conductance(&mut g, idx(a), idx(b), 1.0 / value);
                }
                Device::Capacitor { a, b, .. } => {
                    if let Some(companions) = ctx.companions {
                        let comp = companions[id.index()];
                        put_conductance(&mut g, idx(a), idx(b), comp.geq);
                        put_rhs(&mut rhs, idx(a), comp.ieq);
                        put_rhs(&mut rhs, idx(b), -comp.ieq);
                    }
                }
                Device::Inductor { a, b, value, .. } => {
                    put(&mut g, idx(a), br, 1.0);
                    put(&mut g, br, idx(a), 1.0);
                    put(&mut g, idx(b), br, -1.0);
                    put(&mut g, br, idx(b), -1.0);
                    if let Some(prev) = ctx.prev_solution {
                        let leq = value / ctx.dt;
                        put(&mut g, br, br, -leq);
                        put_rhs(&mut rhs, br, -leq * prev[br.unwrap()]);
                    }
                }
                Device::VSource { pos, neg, waveform } => {
                    put(&mut g, idx(pos), br, 1.0);
                    put(&mut g, br, idx(pos), 1.0);
                    put(&mut g, idx(neg), br, -1.0);
                    put(&mut g, br, idx(neg), -1.0);
                    put_rhs(&mut rhs, br, source(waveform));
                }
                Device::ISource { pos, neg, waveform } => {
                    let value = source(waveform);
                    put_rhs(&mut rhs, idx(pos), -value);
                    put_rhs(&mut rhs, idx(neg), value);
                }
                Device::Mos(m) => {
                    let (dr, gt, sr) = (idx(&m.drain), idx(&m.gate), idx(&m.source));
                    let v = |i: Option<usize>| i.map_or(0.0, |i| x[i]);
                    let (vd, vg, vs) = (v(dr), v(gt), v(sr));
                    let e = eval_mosfet(m, vd, vg, vs);
                    let ieq = e.id - e.g_d * vd - e.g_g * vg - e.g_s * vs;
                    put(&mut g, dr, dr, e.g_d);
                    put(&mut g, dr, gt, e.g_g);
                    put(&mut g, dr, sr, e.g_s);
                    put(&mut g, sr, dr, -e.g_d);
                    put(&mut g, sr, gt, -e.g_g);
                    put(&mut g, sr, sr, -e.g_s);
                    put_rhs(&mut rhs, dr, -ieq);
                    put_rhs(&mut rhs, sr, ieq);
                    put_conductance(&mut g, dr, sr, ctx.gmin);
                    if let Some(noise) = ctx.noise {
                        put_rhs(&mut rhs, dr, -noise[id.index()]);
                        put_rhs(&mut rhs, sr, noise[id.index()]);
                    }
                }
                Device::Vcvs {
                    out_p,
                    out_n,
                    in_p,
                    in_n,
                    gain,
                } => {
                    put(&mut g, idx(out_p), br, 1.0);
                    put(&mut g, br, idx(out_p), 1.0);
                    put(&mut g, idx(out_n), br, -1.0);
                    put(&mut g, br, idx(out_n), -1.0);
                    put(&mut g, br, idx(in_p), -gain);
                    put(&mut g, br, idx(in_n), *gain);
                }
                Device::Vccs {
                    out_p,
                    out_n,
                    in_p,
                    in_n,
                    gm,
                } => {
                    put(&mut g, idx(out_p), idx(in_p), *gm);
                    put(&mut g, idx(out_p), idx(in_n), -gm);
                    put(&mut g, idx(out_n), idx(in_p), -gm);
                    put(&mut g, idx(out_n), idx(in_n), *gm);
                }
            }
        }
        (g, rhs)
    }

    #[test]
    fn every_device_kind_assembles_like_a_dense_reference() {
        let c = every_kind();
        let sys = MnaSystem::new(&c).unwrap();
        let n = sys.size();
        let (plan, mut solver) = sys.sparse_plan();
        // Iterates that bias the MOSFETs into different regions and
        // orientations; several of them, so that a change in the order of
        // two adds to one position shows in the rounding of at least one.
        let iterates: Vec<Vec<f64>> = (0..16)
            .map(|k| {
                (0..n)
                    .map(|i| 0.9 - 0.23 * i as f64 + 0.037 * k as f64)
                    .collect()
            })
            .collect();
        let prev: Vec<f64> = (0..n).map(|i| 0.05 * i as f64 - 0.1).collect();
        let companions: Vec<CapCompanion> = (0..c.num_devices())
            .map(|i| CapCompanion {
                geq: 1e-3 / (i as f64 + 3.0),
                ieq: 1e-4 * (i as f64 - 7.5),
            })
            .collect();
        let noise: Vec<f64> = (0..c.num_devices())
            .map(|i| 1e-6 / (i as f64 + 1.0))
            .collect();
        let contexts = [
            dc_ctx(0.7),
            AssembleContext {
                time: 2.5e-10,
                dc_sources: false,
                gmin: 1e-12,
                source_scale: 1.0,
                companions: Some(&companions),
                noise: Some(&noise),
                prev_solution: Some(&prev),
                dt: 1e-11 / 3.0,
            },
        ];
        for (x, ctx) in iterates
            .iter()
            .flat_map(|x| contexts.iter().map(move |c| (x, c)))
        {
            let mut b = vec![f64::NAN; n];
            solver.values_mut().fill(f64::NAN);
            sys.assemble(&plan, x, ctx, solver.values_mut(), &mut b);
            let values = solver.values_mut().to_vec();
            let (dense, rhs) = dense_reference(&sys, x, ctx);
            for (r, row) in dense.iter().enumerate() {
                for (col, &want) in row.iter().enumerate() {
                    let got = match plan.pattern.entry(r, col) {
                        Some(e) => values[solver.symbolic().position(e)],
                        None => 0.0,
                    };
                    assert_eq!(got.to_bits(), want.to_bits(), "G[{r}][{col}]");
                }
            }
            for (i, (got, want)) in b.iter().zip(&rhs).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "b[{i}]");
            }
        }
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
