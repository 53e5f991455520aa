//! Lumped RC thermal networks.
//!
//! A network is a graph of nodes — *capacitive* nodes with heat capacity
//! `C` (J/K) and state temperature, and *boundary* nodes pinned to a fixed
//! temperature (ambient air, the chamber interior) — connected by edges with
//! thermal resistance `R` (K/W). Each step solves
//!
//! ```text
//! C_i · dT_i/dt = P_i(t) + Σ_j (T_j − T_i) / R_ij
//! ```
//!
//! with one of three integrators. The sub-stepped explicit Euler default
//! subdivides the step so no substep exceeds a fifth of the fastest node
//! time constant, which keeps the integration stable for the stiff
//! die→package couplings found in phone models; RK4 trades four derivative
//! evaluations per substep for fourth-order accuracy. Because the network
//! is linear and time-invariant with heat held constant within a step,
//! [`Integrator::Exponential`] instead applies the exact discrete-time
//! propagator `T' = Φ·T + B·q` (a precomputed matrix exponential, cached
//! per step size) — no substeps, no derivative evaluations, and exact up
//! to floating-point roundoff.

use crate::ThermalError;
use core::fmt;
use pv_units::{Celsius, Seconds, ThermalCapacitance, ThermalResistance, Watts};
use std::sync::{Arc, Mutex, OnceLock};

/// Entries kept in the per-step-size propagator cache. Sessions alternate
/// between a busy and an idle step size (plus occasional tail steps), so a
/// handful of slots covers every realistic protocol without ever growing.
const PROPAGATOR_CACHE_CAP: usize = 8;

/// Entries kept in the process-wide archetype-keyed propagator cache. A
/// fleet sweep uses one topology and two step sizes; the headroom covers
/// mixed-model fleets and test suites without unbounded growth.
const SHARED_PROPAGATOR_CACHE_CAP: usize = 32;

/// Handle to a node of a [`ThermalNetwork`].
///
/// Obtained from [`ThermalNetworkBuilder::add_node`] /
/// [`ThermalNetworkBuilder::add_boundary`]; only valid for the network built
/// from that builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Raw index of the node (useful for labelling traces).
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, PartialEq)]
enum NodeKind {
    Capacitive(ThermalCapacitance),
    Boundary,
}

#[derive(Debug, Clone, PartialEq)]
struct Node {
    name: String,
    kind: NodeKind,
    temp: Celsius,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Edge {
    a: usize,
    b: usize,
    conductance: f64, // W/K
}

/// Numerical integration scheme for [`ThermalNetwork::step`].
///
/// Euler and RK4 sub-step automatically to respect the fastest node time
/// constant. Euler is the default (cheap, robust); RK4 gives fourth-order
/// accuracy per substep for workloads where larger steps matter.
/// Exponential is the fast path: it solves the linear network exactly for
/// the whole step with a cached matrix-exponential propagator, so its cost
/// is one dense mat-vec regardless of step size or network stiffness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Integrator {
    /// Sub-stepped explicit (forward) Euler.
    #[default]
    Euler,
    /// Sub-stepped classic fourth-order Runge–Kutta.
    Rk4,
    /// Exact discrete-time propagator `T' = Φ·T + B·q` with
    /// `Φ = exp(M·dt)` computed by scaling-and-squaring and cached per
    /// step size. Exact for the piecewise-constant heat profile `step`
    /// already assumes, up to floating-point roundoff.
    Exponential,
}

impl Integrator {
    /// Canonical lower-case name (stable; used in config digests, CLI
    /// flags, and bench output).
    pub fn as_str(self) -> &'static str {
        match self {
            Integrator::Euler => "euler",
            Integrator::Rk4 => "rk4",
            Integrator::Exponential => "exponential",
        }
    }

    /// Parses the output of [`Integrator::as_str`] (case-insensitive;
    /// `exp` is accepted as shorthand for `exponential`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "euler" => Some(Integrator::Euler),
            "rk4" => Some(Integrator::Rk4),
            "exp" | "exponential" => Some(Integrator::Exponential),
            _ => None,
        }
    }
}

impl fmt::Display for Integrator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Incrementally builds a validated [`ThermalNetwork`].
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Default)]
pub struct ThermalNetworkBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    integrator: Integrator,
}

impl ThermalNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the integration scheme (default: [`Integrator::Euler`]).
    pub fn integrator(&mut self, integrator: Integrator) -> &mut Self {
        self.integrator = integrator;
        self
    }

    /// Adds a capacitive node with heat capacity `capacitance` starting at
    /// `initial_temp`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-positive or
    /// non-finite capacitance, or non-finite temperature.
    pub fn add_node(
        &mut self,
        name: &str,
        capacitance: ThermalCapacitance,
        initial_temp: Celsius,
    ) -> Result<NodeId, ThermalError> {
        if !(capacitance.value() > 0.0 && capacitance.is_finite()) {
            return Err(ThermalError::InvalidParameter("capacitance must be > 0"));
        }
        if !initial_temp.is_finite() {
            return Err(ThermalError::InvalidParameter("initial temp non-finite"));
        }
        self.nodes.push(Node {
            name: name.to_owned(),
            kind: NodeKind::Capacitive(capacitance),
            temp: initial_temp,
        });
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Adds a boundary node pinned at `temp` (adjustable later with
    /// [`ThermalNetwork::set_boundary_temp`]).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a non-finite
    /// temperature.
    pub fn add_boundary(&mut self, name: &str, temp: Celsius) -> Result<NodeId, ThermalError> {
        if !temp.is_finite() {
            return Err(ThermalError::InvalidParameter("boundary temp non-finite"));
        }
        self.nodes.push(Node {
            name: name.to_owned(),
            kind: NodeKind::Boundary,
            temp,
        });
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Connects two nodes with thermal resistance `resistance`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for stale ids,
    /// [`ThermalError::SelfLoop`] when `a == b`, and
    /// [`ThermalError::InvalidParameter`] for a non-positive resistance.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        resistance: ThermalResistance,
    ) -> Result<(), ThermalError> {
        if a.0 >= self.nodes.len() {
            return Err(ThermalError::UnknownNode(a.0));
        }
        if b.0 >= self.nodes.len() {
            return Err(ThermalError::UnknownNode(b.0));
        }
        if a == b {
            return Err(ThermalError::SelfLoop);
        }
        if !(resistance.value() > 0.0 && resistance.is_finite()) {
            return Err(ThermalError::InvalidParameter("resistance must be > 0"));
        }
        self.edges.push(Edge {
            a: a.0,
            b: b.0,
            conductance: 1.0 / resistance.value(),
        });
        Ok(())
    }

    /// Finalises the network.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NoCapacitiveNodes`] if nothing can be
    /// integrated.
    pub fn build(self) -> Result<ThermalNetwork, ThermalError> {
        if !self
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::Capacitive(_)))
        {
            return Err(ThermalError::NoCapacitiveNodes);
        }
        // Precompute per-node total conductance for the stability bound.
        let mut total_conductance = vec![0.0f64; self.nodes.len()];
        for e in &self.edges {
            total_conductance[e.a] += e.conductance;
            total_conductance[e.b] += e.conductance;
        }
        // Fastest time constant among capacitive nodes with any coupling.
        let mut tau_min = f64::INFINITY;
        for (i, n) in self.nodes.iter().enumerate() {
            if let NodeKind::Capacitive(c) = n.kind {
                if total_conductance[i] > 0.0 {
                    tau_min = tau_min.min(c.value() / total_conductance[i]);
                }
            }
        }
        let n = self.nodes.len();
        let signature = structural_signature(&self.nodes, &self.edges);
        Ok(ThermalNetwork {
            nodes: self.nodes,
            edges: self.edges,
            max_substep: if tau_min.is_finite() {
                0.2 * tau_min
            } else {
                f64::INFINITY
            },
            integrator: self.integrator,
            heat_scratch: vec![0.0; n],
            scratch: StepScratch::sized(n),
            propagators: Vec::new(),
            signature,
        })
    }
}

/// Canonical encoding of everything [`ThermalNetwork::build_propagator`]
/// reads: node kinds and capacitance bit patterns plus the ordered edge
/// list (edge order matters — conductances accumulate into the system
/// matrix in list order, and float addition is not associative). Two
/// networks with equal signatures build bit-identical propagators for any
/// step size, which is the invariant the shared cache rests on.
fn structural_signature(nodes: &[Node], edges: &[Edge]) -> Vec<u64> {
    let mut sig = Vec::with_capacity(2 + 2 * nodes.len() + 3 * edges.len());
    sig.push(nodes.len() as u64);
    sig.push(edges.len() as u64);
    for node in nodes {
        match node.kind {
            NodeKind::Capacitive(c) => {
                sig.push(1);
                sig.push(c.value().to_bits());
            }
            NodeKind::Boundary => {
                sig.push(0);
                sig.push(0);
            }
        }
    }
    for e in edges {
        sig.push(e.a as u64);
        sig.push(e.b as u64);
        sig.push(e.conductance.to_bits());
    }
    sig
}

/// Struct-owned per-step work buffers, sized once at build so the step
/// loop never touches the heap. `y` holds the state snapshot, `stage` the
/// RK4 trial states, and `k1..k4` the derivative evaluations (Euler uses
/// only `k1`, as its edge-flow accumulator; Exponential uses `y`/`k1` as
/// mat-vec input/output).
#[derive(Debug, Clone, Default)]
struct StepScratch {
    y: Vec<f64>,
    stage: Vec<f64>,
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
}

impl StepScratch {
    fn sized(n: usize) -> Self {
        Self {
            y: vec![0.0; n],
            stage: vec![0.0; n],
            k1: vec![0.0; n],
            k2: vec![0.0; n],
            k3: vec![0.0; n],
            k4: vec![0.0; n],
        }
    }
}

/// A cached discrete-time propagator for one step size: `T' = Φ·T + B·q`
/// with `Φ = exp(M·dt)` and `B = (∫₀^dt exp(M·τ) dτ)·diag(1/Cᵢ)`, both
/// dense `n×n` row-major. Exact for heat held constant over the step.
///
/// Opaque outside the crate: obtained from
/// [`ThermalNetwork::exponential_propagator`] and consumed by
/// [`crate::batch::ThermalBatch`]. Propagators are pure functions of the
/// network's [structural signature](ThermalNetwork::structural_signature)
/// and the step size, so one `Arc` can be shared across every device of an
/// archetype (and across threads) without affecting a single bit of the
/// trajectory.
#[derive(Debug, Clone)]
pub struct Propagator {
    dt_bits: u64,
    n: usize,
    phi: Vec<f64>,
    b: Vec<f64>,
}

impl Propagator {
    /// Number of network nodes this propagator was built for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Step size the propagator was built for.
    pub fn dt(&self) -> Seconds {
        Seconds(f64::from_bits(self.dt_bits))
    }

    /// Row-major `n×n` state-transition matrix Φ.
    pub(crate) fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// Row-major `n×n` heat-input matrix B.
    pub(crate) fn b(&self) -> &[f64] {
        &self.b
    }
}

/// One entry of the process-wide archetype-keyed propagator cache.
struct SharedPropagator {
    signature: Vec<u64>,
    dt_bits: u64,
    propagator: Arc<Propagator>,
}

/// Process-wide propagator cache keyed by (structural signature, dt bits).
/// Guards cold-start sweeps: the first device of an archetype to see a step
/// size builds the matrix exponential, every other device clones the `Arc`.
fn shared_propagators() -> &'static Mutex<Vec<SharedPropagator>> {
    static CACHE: OnceLock<Mutex<Vec<SharedPropagator>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// A built thermal network. Step it with [`ThermalNetwork::step`], read
/// temperatures with [`ThermalNetwork::temperature`].
///
/// Topology (nodes, edges, capacitances, boundary placement) is sealed by
/// [`ThermalNetworkBuilder::build`]; only temperatures and the integrator
/// choice mutate afterwards. The propagator cache relies on this: entries
/// are keyed on step size alone and never need structural invalidation.
#[derive(Debug, Clone)]
pub struct ThermalNetwork {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    max_substep: f64,
    integrator: Integrator,
    heat_scratch: Vec<f64>,
    scratch: StepScratch,
    propagators: Vec<Arc<Propagator>>,
    signature: Vec<u64>,
}

/// Equality is semantic: two networks are equal when they would produce
/// identical trajectories — same topology, state, and integrator. Work
/// buffers and the propagator cache are excluded (they are derived data).
impl PartialEq for ThermalNetwork {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.edges == other.edges
            && self.max_substep == other.max_substep
            && self.integrator == other.integrator
    }
}

impl ThermalNetwork {
    /// Current temperature of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this network (a `NodeId` can only
    /// be obtained from the builder, so this indicates builder/network
    /// mix-up).
    pub fn temperature(&self, node: NodeId) -> Celsius {
        self.nodes[node.0].temp
    }

    /// Name given to `node` at construction.
    ///
    /// # Panics
    ///
    /// Panics on a foreign `NodeId`, as [`ThermalNetwork::temperature`].
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// Number of nodes (capacitive + boundary).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Overrides a capacitive node's temperature (e.g. to reset state
    /// between experiment iterations).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for stale ids and
    /// [`ThermalError::InvalidParameter`] for non-finite temperatures.
    pub fn set_temperature(&mut self, node: NodeId, temp: Celsius) -> Result<(), ThermalError> {
        if node.0 >= self.nodes.len() {
            return Err(ThermalError::UnknownNode(node.0));
        }
        if !temp.is_finite() {
            return Err(ThermalError::InvalidParameter("temp non-finite"));
        }
        self.nodes[node.0].temp = temp;
        Ok(())
    }

    /// Re-pins a boundary node to a new temperature.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for stale ids,
    /// [`ThermalError::InvalidParameter`] if the node is not a boundary or
    /// the temperature is non-finite.
    pub fn set_boundary_temp(&mut self, node: NodeId, temp: Celsius) -> Result<(), ThermalError> {
        if node.0 >= self.nodes.len() {
            return Err(ThermalError::UnknownNode(node.0));
        }
        if !matches!(self.nodes[node.0].kind, NodeKind::Boundary) {
            return Err(ThermalError::InvalidParameter("node is not a boundary"));
        }
        if !temp.is_finite() {
            return Err(ThermalError::InvalidParameter("temp non-finite"));
        }
        self.nodes[node.0].temp = temp;
        Ok(())
    }

    /// Currently selected integration scheme.
    pub fn integrator(&self) -> Integrator {
        self.integrator
    }

    /// Switches the integration scheme mid-life (e.g. to put an already
    /// built device on the fast path). State and topology are untouched;
    /// cached propagators stay valid because they are keyed on step size
    /// against the sealed topology.
    pub fn set_integrator(&mut self, integrator: Integrator) {
        self.integrator = integrator;
    }

    /// Advances the network by `dt`, injecting `heat` (node, power) pairs
    /// into capacitive nodes. Euler/RK4 internally subdivide the step for
    /// stability; Exponential applies the exact propagator in one go. Any
    /// positive `dt` is safe, and steady-state stepping is allocation-free
    /// (all work buffers live on the struct).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-positive `dt` or
    /// non-finite powers, [`ThermalError::UnknownNode`] for stale ids, and
    /// [`ThermalError::HeatIntoBoundary`] when heat targets a boundary node.
    pub fn step(&mut self, dt: Seconds, heat: &[(NodeId, Watts)]) -> Result<(), ThermalError> {
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(ThermalError::InvalidParameter("dt must be > 0"));
        }
        // Build the dense heat vector, validating targets. The buffer is
        // sized at build time; `fill` keeps the capacity without the
        // clear()+resize() round-trip of earlier revisions.
        debug_assert_eq!(self.heat_scratch.len(), self.nodes.len());
        self.heat_scratch.fill(0.0);
        for &(node, power) in heat {
            if node.0 >= self.nodes.len() {
                return Err(ThermalError::UnknownNode(node.0));
            }
            if !power.is_finite() {
                return Err(ThermalError::InvalidParameter("power non-finite"));
            }
            if matches!(self.nodes[node.0].kind, NodeKind::Boundary) {
                return Err(ThermalError::HeatIntoBoundary(node.0));
            }
            self.heat_scratch[node.0] += power.value();
        }

        if self.integrator == Integrator::Exponential {
            self.step_exponential(dt.value());
            #[cfg(debug_assertions)]
            step_stats::record(1);
            return Ok(());
        }

        let substeps = if self.max_substep.is_finite() {
            (dt.value() / self.max_substep).ceil().max(1.0) as usize
        } else {
            1
        };
        let h = dt.value() / substeps as f64;
        #[cfg(debug_assertions)]
        step_stats::record(substeps as u64);

        match self.integrator {
            Integrator::Euler => self.substep_euler(substeps, h),
            Integrator::Rk4 => self.substep_rk4(substeps, h),
            Integrator::Exponential => unreachable!("handled above"),
        }
        Ok(())
    }

    /// Derivative of every node temperature at state `temps` (°C), writing
    /// into `out` (°C/s). Boundary nodes have zero derivative.
    fn derivatives(&self, temps: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for e in &self.edges {
            let flow = (temps[e.b] - temps[e.a]) * e.conductance;
            out[e.a] += flow;
            out[e.b] -= flow;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            match node.kind {
                NodeKind::Capacitive(c) => {
                    out[i] = (out[i] + self.heat_scratch[i]) / c.value();
                }
                NodeKind::Boundary => out[i] = 0.0,
            }
        }
    }

    /// Forward Euler straight from the node temperatures: the net edge
    /// flow accumulates into `k1`, then each capacitive node takes
    /// `T + (Σflow + q)/C · h`. This is [`Self::derivatives`]' arithmetic
    /// in the same order, so it is bit-identical to evaluating the
    /// derivative on a state snapshot — the snapshot is unnecessary because
    /// every flow is read before any temperature is written, and boundary
    /// nodes, whose derivative is zero, are never touched.
    fn substep_euler(&mut self, substeps: usize, h: f64) {
        let Self {
            nodes,
            edges,
            heat_scratch,
            scratch,
            ..
        } = self;
        let flow_sum = &mut scratch.k1;
        for _ in 0..substeps {
            flow_sum.fill(0.0);
            for e in edges.iter() {
                let flow = (nodes[e.b].temp.value() - nodes[e.a].temp.value()) * e.conductance;
                flow_sum[e.a] += flow;
                flow_sum[e.b] -= flow;
            }
            for ((node, &sum), &q) in nodes
                .iter_mut()
                .zip(flow_sum.iter())
                .zip(heat_scratch.iter())
            {
                if let NodeKind::Capacitive(c) = node.kind {
                    let d = (sum + q) / c.value();
                    node.temp = Celsius(node.temp.value() + d * h);
                }
            }
        }
    }

    fn substep_rk4(&mut self, substeps: usize, h: f64) {
        let n = self.nodes.len();
        let mut s = std::mem::take(&mut self.scratch);
        for _ in 0..substeps {
            for (t, node) in s.y.iter_mut().zip(&self.nodes) {
                *t = node.temp.value();
            }
            self.derivatives(&s.y, &mut s.k1);
            for i in 0..n {
                s.stage[i] = s.y[i] + 0.5 * h * s.k1[i];
            }
            self.derivatives(&s.stage, &mut s.k2);
            for i in 0..n {
                s.stage[i] = s.y[i] + 0.5 * h * s.k2[i];
            }
            self.derivatives(&s.stage, &mut s.k3);
            for i in 0..n {
                s.stage[i] = s.y[i] + h * s.k3[i];
            }
            self.derivatives(&s.stage, &mut s.k4);
            for (i, node) in self.nodes.iter_mut().enumerate() {
                if matches!(node.kind, NodeKind::Capacitive(_)) {
                    node.temp = Celsius(
                        s.y[i] + h / 6.0 * (s.k1[i] + 2.0 * s.k2[i] + 2.0 * s.k3[i] + s.k4[i]),
                    );
                }
            }
        }
        self.scratch = s;
    }

    /// Applies the cached exact propagator: `T' = Φ·T + B·q` over the full
    /// `dt` in a single dense mat-vec pair — no substeps, no derivative
    /// evaluations. Builds and caches the propagator on first sight of a
    /// step size (sessions reuse two sizes, so this amortises to zero).
    fn step_exponential(&mut self, dt: f64) {
        let idx = self.propagator_index(dt);
        // Disjoint field borrows: the propagator is read while node temps
        // and scratch are written, with no buffer swaps in the hot path.
        let Self {
            nodes,
            propagators,
            scratch,
            heat_scratch,
            ..
        } = self;
        let p = &propagators[idx];
        let n = nodes.len();
        let y = &mut scratch.y;
        let out = &mut scratch.k1;
        for (t, node) in y.iter_mut().zip(nodes.iter()) {
            *t = node.temp.value();
        }
        // out = Φ·y + B·q, fused row by row. `chunks_exact` + `zip` keep
        // the inner loop free of bounds checks.
        for ((o, phi_row), b_row) in out
            .iter_mut()
            .zip(p.phi.chunks_exact(n))
            .zip(p.b.chunks_exact(n))
        {
            let mut acc = 0.0;
            for ((&ph, &bb), (&yy, &qq)) in phi_row
                .iter()
                .zip(b_row.iter())
                .zip(y.iter().zip(heat_scratch.iter()))
            {
                acc += ph * yy + bb * qq;
            }
            *o = acc;
        }
        // Boundary rows of Φ are identity (and of B zero), so boundary
        // temperatures pass through bit-exactly and the write-back needs
        // no per-node kind check.
        for (node, &t) in nodes.iter_mut().zip(out.iter()) {
            node.temp = Celsius(t);
        }
    }

    /// Index of the propagator for `dt` in the local cache, consulting the
    /// process-wide archetype cache on miss. Hits are moved to the front so
    /// the two protocol step sizes stay in the first slots; the cache is
    /// capped at [`PROPAGATOR_CACHE_CAP`] entries (oldest evicted) so
    /// pathological dt sequences cannot grow it.
    fn propagator_index(&mut self, dt: f64) -> usize {
        let dt_bits = dt.to_bits();
        if let Some(pos) = self.propagators.iter().position(|p| p.dt_bits == dt_bits) {
            if pos != 0 {
                self.propagators.swap(pos, pos - 1);
                return pos - 1;
            }
            return 0;
        }
        let p = self.shared_propagator(dt);
        self.propagators.truncate(PROPAGATOR_CACHE_CAP - 1);
        self.propagators.insert(0, p);
        0
    }

    /// Looks up `dt` in the process-wide archetype-keyed cache, building
    /// and publishing the propagator on miss. The build happens under the
    /// lock: it is microseconds for phone-scale networks, and holding the
    /// lock means concurrent workers of one archetype never race to build
    /// the same matrix (they all leave with the same `Arc`). Either way the
    /// result is bit-identical to a per-device build — `build_propagator`
    /// is a pure function of the structural signature and `dt`.
    fn shared_propagator(&self, dt: f64) -> Arc<Propagator> {
        let dt_bits = dt.to_bits();
        let mut cache = match shared_propagators().lock() {
            Ok(guard) => guard,
            // A poisoned lock only means another thread panicked mid-scan;
            // the entries themselves are immutable Arcs, so keep going.
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(pos) = cache
            .iter()
            .position(|e| e.dt_bits == dt_bits && e.signature == self.signature)
        {
            // Gradual move-to-front, mirroring the local cache policy.
            let hit = cache[pos].propagator.clone();
            if pos != 0 {
                cache.swap(pos, pos - 1);
            }
            return hit;
        }
        let built = Arc::new(self.build_propagator(dt));
        cache.truncate(SHARED_PROPAGATOR_CACHE_CAP - 1);
        cache.insert(
            0,
            SharedPropagator {
                signature: self.signature.clone(),
                dt_bits,
                propagator: built.clone(),
            },
        );
        built
    }

    /// The discrete-time propagator for step size `dt`, as a shareable
    /// handle. Populates the same local and process-wide caches the
    /// [`Integrator::Exponential`] step path uses, so fetching it here and
    /// stepping through [`crate::batch::ThermalBatch`] leaves the caches in
    /// the same state a scalar step would.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a non-positive or
    /// non-finite `dt`.
    pub fn exponential_propagator(&mut self, dt: Seconds) -> Result<Arc<Propagator>, ThermalError> {
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(ThermalError::InvalidParameter("dt must be > 0"));
        }
        let idx = self.propagator_index(dt.value());
        Ok(self.propagators[idx].clone())
    }

    /// Canonical encoding of the sealed topology (node kinds, capacitance
    /// bit patterns, ordered edges). Networks with equal signatures are the
    /// same *archetype*: they build bit-identical propagators and may share
    /// one [`crate::batch::ThermalBatch`] kernel invocation.
    pub fn structural_signature(&self) -> &[u64] {
        &self.signature
    }

    /// Raw temperature of node `i` (°C), for the batch kernel's gather.
    pub(crate) fn raw_temp(&self, i: usize) -> f64 {
        self.nodes[i].temp.value()
    }

    /// Overwrites node `i`'s temperature, for the batch kernel's scatter.
    /// Callers guarantee the value came from the same propagator arithmetic
    /// the scalar path would have applied.
    pub(crate) fn set_raw_temp(&mut self, i: usize, temp: f64) {
        self.nodes[i].temp = Celsius(temp);
    }

    /// Whether node `i` is a boundary (for batch heat validation).
    pub(crate) fn is_boundary(&self, i: usize) -> bool {
        matches!(self.nodes[i].kind, NodeKind::Boundary)
    }

    /// Debug-build step accounting for an externally applied exponential
    /// step (keeps `repro --verbose` counters honest for the batch path).
    #[cfg(debug_assertions)]
    pub(crate) fn record_external_step(&self) {
        step_stats::record(1);
    }

    /// Computes `Φ = exp(M·dt)` and `B = S·diag(1/Cᵢ)` with
    /// `S = ∫₀^dt exp(M·τ) dτ` by scaling-and-squaring: a Taylor base step
    /// at `h = dt/2ˢ` (scaled so `‖M·h‖∞ ≤ 0.5`, keeping the series fast
    /// and well conditioned), then `s` doublings using
    /// `Φ(2h) = Φ(h)²` and `S(2h) = (I + Φ(h))·S(h)`.
    fn build_propagator(&self, dt: f64) -> Propagator {
        let n = self.nodes.len();
        // System matrix M (row-major): dT/dt = M·T + diag(1/Cᵢ)·q.
        // Boundary rows are zero, so their Φ rows stay exactly identity and
        // pinned temperatures pass through the propagator untouched.
        let mut m = vec![0.0f64; n * n];
        for e in &self.edges {
            if let NodeKind::Capacitive(c) = self.nodes[e.a].kind {
                let g = e.conductance / c.value();
                m[e.a * n + e.b] += g;
                m[e.a * n + e.a] -= g;
            }
            if let NodeKind::Capacitive(c) = self.nodes[e.b].kind {
                let g = e.conductance / c.value();
                m[e.b * n + e.a] += g;
                m[e.b * n + e.b] -= g;
            }
        }

        // Scaling: pick s with ‖M·dt‖∞ / 2ˢ ≤ 0.5.
        let norm = (0..n)
            .map(|i| m[i * n..(i + 1) * n].iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0f64, f64::max)
            * dt;
        let mut scalings = 0i32;
        let mut scaled = norm;
        while scaled > 0.5 && scalings < 64 {
            scaled /= 2.0;
            scalings += 1;
        }
        let h = dt / 2f64.powi(scalings);

        // A = M·h; Taylor: Φ = Σ Aᵏ/k!, S = h·Σ Aᵏ/(k+1)!.
        let a: Vec<f64> = m.iter().map(|v| v * h).collect();
        let mut phi = identity(n);
        let mut s_sum = identity(n); // Σ Aᵏ/(k+1)! accumulator, k = 0 term = I
        let mut term = identity(n); // Aᵏ/k!
        let mut next = vec![0.0f64; n * n];
        for k in 1..=30u32 {
            mat_mul(n, &term, &a, &mut next);
            let kf = f64::from(k);
            for v in next.iter_mut() {
                *v /= kf;
            }
            std::mem::swap(&mut term, &mut next);
            let mut max_term = 0.0f64;
            for (p, t) in phi.iter_mut().zip(&term) {
                *p += t;
                max_term = max_term.max(t.abs());
            }
            let sk = 1.0 / f64::from(k + 1);
            for (sv, t) in s_sum.iter_mut().zip(&term) {
                *sv += t * sk;
            }
            if max_term < 1e-18 {
                break;
            }
        }
        let mut s_int: Vec<f64> = s_sum.iter().map(|v| v * h).collect();

        // Doubling: Φ ← Φ², S ← (I + Φ)·S.
        let mut tmp = vec![0.0f64; n * n];
        for _ in 0..scalings {
            let mut i_plus_phi = phi.clone();
            for i in 0..n {
                i_plus_phi[i * n + i] += 1.0;
            }
            mat_mul(n, &i_plus_phi, &s_int, &mut tmp);
            std::mem::swap(&mut s_int, &mut tmp);
            mat_mul(n, &phi, &phi, &mut tmp);
            std::mem::swap(&mut phi, &mut tmp);
        }

        // B = S·diag(dⱼ), dⱼ = 1/Cⱼ for capacitive nodes, 0 for boundaries
        // (heat into boundaries is rejected upstream anyway).
        let mut b = s_int;
        for j in 0..n {
            let d = match self.nodes[j].kind {
                NodeKind::Capacitive(c) => 1.0 / c.value(),
                NodeKind::Boundary => 0.0,
            };
            for i in 0..n {
                b[i * n + j] *= d;
            }
        }
        Propagator {
            dt_bits: dt.to_bits(),
            n,
            phi,
            b,
        }
    }

    /// Runs [`step`](Self::step) repeatedly until `total` time has elapsed,
    /// using steps of at most `dt`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`step`](Self::step).
    pub fn run(
        &mut self,
        total: Seconds,
        dt: Seconds,
        heat: &[(NodeId, Watts)],
    ) -> Result<(), ThermalError> {
        if !(total.value() >= 0.0 && total.is_finite()) {
            return Err(ThermalError::InvalidParameter("total must be >= 0"));
        }
        let mut remaining = total.value();
        while remaining > 0.0 {
            let step = remaining.min(dt.value());
            self.step(Seconds(step), heat)?;
            remaining -= step;
        }
        Ok(())
    }
}

/// `n×n` identity, row-major.
fn identity(n: usize) -> Vec<f64> {
    let mut m = vec![0.0f64; n * n];
    for i in 0..n {
        m[i * n + i] = 1.0;
    }
    m
}

/// Dense row-major `out = a·b` for `n×n` matrices. Networks are tiny
/// (phones model 3–5 nodes), so the naïve triple loop is the right tool.
fn mat_mul(n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += aik * b[k * n + j];
            }
        }
    }
}

/// Debug-build-only integration counters for profiling (surfaced by
/// `repro --verbose`): total [`ThermalNetwork::step`] calls and the
/// substeps they expanded into. Compiled out of release builds entirely.
#[cfg(debug_assertions)]
pub mod step_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static STEPS: AtomicU64 = AtomicU64::new(0);
    static SUBSTEPS: AtomicU64 = AtomicU64::new(0);

    pub(super) fn record(substeps: u64) {
        STEPS.fetch_add(1, Ordering::Relaxed);
        SUBSTEPS.fetch_add(substeps, Ordering::Relaxed);
    }

    /// (network steps, integrator substeps) recorded since the last reset.
    pub fn snapshot() -> (u64, u64) {
        (
            STEPS.load(Ordering::Relaxed),
            SUBSTEPS.load(Ordering::Relaxed),
        )
    }

    /// Zeroes both counters (e.g. at session start).
    pub fn reset() {
        STEPS.store(0, Ordering::Relaxed);
        SUBSTEPS.store(0, Ordering::Relaxed);
    }
}

impl fmt::Display for ThermalNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thermal network:")?;
        for n in &self.nodes {
            let tag = match n.kind {
                NodeKind::Capacitive(c) => format!("C={:.2} J/K", c.value()),
                NodeKind::Boundary => "boundary".to_owned(),
            };
            write!(f, " [{} {} {:.2}]", n.name, tag, n.temp)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_pair() -> (ThermalNetwork, NodeId, NodeId) {
        let mut b = ThermalNetworkBuilder::new();
        let die = b
            .add_node("die", ThermalCapacitance(10.0), Celsius(50.0))
            .unwrap();
        let amb = b.add_boundary("ambient", Celsius(26.0)).unwrap();
        b.connect(die, amb, ThermalResistance(5.0)).unwrap();
        (b.build().unwrap(), die, amb)
    }

    #[test]
    fn relaxation_follows_exponential_decay() {
        let (mut net, die, _) = simple_pair();
        // tau = R*C = 50 s; after one tau the excess drops to 1/e.
        net.run(Seconds(50.0), Seconds(0.05), &[]).unwrap();
        let excess = net.temperature(die).value() - 26.0;
        let expected = 24.0 * (-1.0f64).exp();
        assert!(
            (excess - expected).abs() < 0.05,
            "excess {excess} vs {expected}"
        );
    }

    #[test]
    fn steady_state_is_ambient_plus_p_times_r() {
        let (mut net, die, _) = simple_pair();
        net.run(Seconds(600.0), Seconds(0.1), &[(die, Watts(3.0))])
            .unwrap();
        // 26 + 3 W × 5 K/W = 41 °C.
        assert!((net.temperature(die).value() - 41.0).abs() < 0.01);
    }

    #[test]
    fn isolated_pair_conserves_energy() {
        let mut b = ThermalNetworkBuilder::new();
        let a = b
            .add_node("a", ThermalCapacitance(4.0), Celsius(80.0))
            .unwrap();
        let c = b
            .add_node("b", ThermalCapacitance(12.0), Celsius(20.0))
            .unwrap();
        b.connect(a, c, ThermalResistance(2.0)).unwrap();
        let mut net = b.build().unwrap();
        let energy0 = 4.0 * 80.0 + 12.0 * 20.0;
        net.run(Seconds(200.0), Seconds(0.1), &[]).unwrap();
        let energy1 = 4.0 * net.temperature(a).value() + 12.0 * net.temperature(c).value();
        assert!((energy1 - energy0).abs() < 1e-6 * energy0);
        // And they equilibrate to the capacitance-weighted mean: 35 °C.
        assert!((net.temperature(a).value() - 35.0).abs() < 0.01);
        assert!((net.temperature(c).value() - 35.0).abs() < 0.01);
    }

    #[test]
    fn boundary_node_never_moves() {
        let (mut net, die, amb) = simple_pair();
        net.run(Seconds(100.0), Seconds(0.1), &[(die, Watts(10.0))])
            .unwrap();
        assert_eq!(net.temperature(amb), Celsius(26.0));
    }

    #[test]
    fn set_boundary_temp_shifts_equilibrium() {
        let (mut net, die, amb) = simple_pair();
        net.set_boundary_temp(amb, Celsius(40.0)).unwrap();
        net.run(Seconds(500.0), Seconds(0.1), &[]).unwrap();
        assert!((net.temperature(die).value() - 40.0).abs() < 0.01);
        // Capacitive nodes reject set_boundary_temp.
        assert!(net.set_boundary_temp(die, Celsius(10.0)).is_err());
    }

    #[test]
    fn large_steps_are_substepped_stably() {
        let (mut net, die, _) = simple_pair();
        // One huge 1000 s step on a tau = 50 s system would explode without
        // substepping; with it, the result is the steady state.
        net.step(Seconds(1000.0), &[(die, Watts(3.0))]).unwrap();
        let t = net.temperature(die).value();
        assert!(t.is_finite());
        assert!((t - 41.0).abs() < 0.5, "temp {t}");
    }

    #[test]
    fn heat_into_boundary_is_rejected() {
        let (mut net, _, amb) = simple_pair();
        assert_eq!(
            net.step(Seconds(1.0), &[(amb, Watts(1.0))]),
            Err(ThermalError::HeatIntoBoundary(amb.index()))
        );
    }

    #[test]
    fn builder_validation() {
        let mut b = ThermalNetworkBuilder::new();
        assert!(b
            .add_node("x", ThermalCapacitance(0.0), Celsius(26.0))
            .is_err());
        assert!(b
            .add_node("x", ThermalCapacitance(1.0), Celsius(f64::NAN))
            .is_err());
        assert!(b.add_boundary("x", Celsius(f64::INFINITY)).is_err());
        let a = b
            .add_node("a", ThermalCapacitance(1.0), Celsius(26.0))
            .unwrap();
        assert!(b.connect(a, a, ThermalResistance(1.0)).is_err());
        let c = b.add_boundary("amb", Celsius(26.0)).unwrap();
        assert!(b.connect(a, c, ThermalResistance(0.0)).is_err());
        assert!(b.connect(a, c, ThermalResistance(1.0)).is_ok());
    }

    #[test]
    fn boundary_only_network_is_rejected() {
        let mut b = ThermalNetworkBuilder::new();
        b.add_boundary("amb", Celsius(26.0)).unwrap();
        assert!(matches!(b.build(), Err(ThermalError::NoCapacitiveNodes)));
    }

    #[test]
    fn step_validation() {
        let (mut net, die, _) = simple_pair();
        assert!(net.step(Seconds(0.0), &[]).is_err());
        assert!(net.step(Seconds(-1.0), &[]).is_err());
        assert!(net.step(Seconds(1.0), &[(die, Watts(f64::NAN))]).is_err());
        assert!(net.step(Seconds(1.0), &[(NodeId(99), Watts(1.0))]).is_err());
        assert!(net.run(Seconds(-1.0), Seconds(0.1), &[]).is_err());
    }

    #[test]
    fn multiple_heat_sources_accumulate() {
        let (mut net, die, _) = simple_pair();
        // Two 1.5 W entries behave as one 3 W entry.
        net.run(
            Seconds(600.0),
            Seconds(0.1),
            &[(die, Watts(1.5)), (die, Watts(1.5))],
        )
        .unwrap();
        assert!((net.temperature(die).value() - 41.0).abs() < 0.01);
    }

    #[test]
    fn set_temperature_resets_state() {
        let (mut net, die, _) = simple_pair();
        net.set_temperature(die, Celsius(26.0)).unwrap();
        assert_eq!(net.temperature(die), Celsius(26.0));
        assert!(net.set_temperature(NodeId(42), Celsius(26.0)).is_err());
        assert!(net.set_temperature(die, Celsius(f64::NAN)).is_err());
    }

    #[test]
    fn names_and_display() {
        let (net, die, amb) = simple_pair();
        assert_eq!(net.node_name(die), "die");
        assert_eq!(net.node_name(amb), "ambient");
        assert_eq!(net.node_count(), 2);
        let s = format!("{net}");
        assert!(s.contains("die") && s.contains("boundary"));
    }

    #[test]
    fn three_node_chain_orders_temperatures() {
        // die -> case -> ambient with heat at the die: die hottest, case in
        // between, ambient fixed.
        let mut b = ThermalNetworkBuilder::new();
        let die = b
            .add_node("die", ThermalCapacitance(5.0), Celsius(26.0))
            .unwrap();
        let case = b
            .add_node("case", ThermalCapacitance(40.0), Celsius(26.0))
            .unwrap();
        let amb = b.add_boundary("amb", Celsius(26.0)).unwrap();
        b.connect(die, case, ThermalResistance(2.0)).unwrap();
        b.connect(case, amb, ThermalResistance(6.0)).unwrap();
        let mut net = b.build().unwrap();
        net.run(Seconds(2000.0), Seconds(0.1), &[(die, Watts(2.0))])
            .unwrap();
        let (td, tc) = (net.temperature(die).value(), net.temperature(case).value());
        // Steady state: case = 26 + 2*6 = 38, die = case + 2*2 = 42.
        assert!((tc - 38.0).abs() < 0.05, "case {tc}");
        assert!((td - 42.0).abs() < 0.05, "die {td}");
    }
}

#[cfg(test)]
mod integrator_tests {
    use super::*;

    fn pair(integrator: Integrator) -> (ThermalNetwork, NodeId) {
        let mut b = ThermalNetworkBuilder::new();
        b.integrator(integrator);
        let die = b
            .add_node("die", ThermalCapacitance(10.0), Celsius(80.0))
            .unwrap();
        let amb = b.add_boundary("ambient", Celsius(26.0)).unwrap();
        b.connect(die, amb, ThermalResistance(5.0)).unwrap();
        (b.build().unwrap(), die)
    }

    #[test]
    fn rk4_and_euler_agree_at_small_steps() {
        let (mut euler, die_e) = pair(Integrator::Euler);
        let (mut rk4, die_r) = pair(Integrator::Rk4);
        euler.run(Seconds(60.0), Seconds(0.01), &[]).unwrap();
        rk4.run(Seconds(60.0), Seconds(0.01), &[]).unwrap();
        let gap = (euler.temperature(die_e).value() - rk4.temperature(die_r).value()).abs();
        // Euler's global error at h = 0.01 s over 60 s of a tau = 50 s decay
        // is ~2e-3 K; RK4's is negligible. They must agree to that order.
        assert!(gap < 5e-3, "schemes diverge: {gap}");
    }

    #[test]
    fn rk4_is_more_accurate_at_coarse_steps() {
        // Analytic: T(60) = 26 + 54·e^{-60/50}. Integrate with a single
        // coarse substep size (tau/5 = 10 s) and compare errors.
        let exact = 26.0 + 54.0 * (-60.0f64 / 50.0).exp();
        let (mut euler, die_e) = pair(Integrator::Euler);
        let (mut rk4, die_r) = pair(Integrator::Rk4);
        euler.run(Seconds(60.0), Seconds(10.0), &[]).unwrap();
        rk4.run(Seconds(60.0), Seconds(10.0), &[]).unwrap();
        let err_euler = (euler.temperature(die_e).value() - exact).abs();
        let err_rk4 = (rk4.temperature(die_r).value() - exact).abs();
        assert!(
            err_rk4 < err_euler / 100.0,
            "rk4 {err_rk4} should beat euler {err_euler} by orders of magnitude"
        );
        assert!(err_rk4 < 1e-2, "rk4 error {err_rk4}");
    }

    #[test]
    fn rk4_steady_state_with_heat_matches_fourier() {
        let mut b = ThermalNetworkBuilder::new();
        b.integrator(Integrator::Rk4);
        let die = b
            .add_node("die", ThermalCapacitance(4.0), Celsius(26.0))
            .unwrap();
        let amb = b.add_boundary("ambient", Celsius(26.0)).unwrap();
        b.connect(die, amb, ThermalResistance(8.0)).unwrap();
        let mut net = b.build().unwrap();
        net.run(Seconds(500.0), Seconds(2.0), &[(die, Watts(2.5))])
            .unwrap();
        assert!((net.temperature(die).value() - (26.0 + 2.5 * 8.0)).abs() < 0.01);
    }

    #[test]
    fn default_integrator_is_euler() {
        assert_eq!(Integrator::default(), Integrator::Euler);
    }

    #[test]
    fn integrator_names_round_trip() {
        for i in [Integrator::Euler, Integrator::Rk4, Integrator::Exponential] {
            assert_eq!(Integrator::parse(i.as_str()), Some(i));
            assert_eq!(format!("{i}"), i.as_str());
        }
        assert_eq!(Integrator::parse("exp"), Some(Integrator::Exponential));
        assert_eq!(Integrator::parse("RK4"), Some(Integrator::Rk4));
        assert_eq!(Integrator::parse("simpson"), None);
    }
}

#[cfg(test)]
mod exponential_tests {
    use super::*;

    fn decay_pair(integrator: Integrator) -> (ThermalNetwork, NodeId) {
        let mut b = ThermalNetworkBuilder::new();
        b.integrator(integrator);
        let die = b
            .add_node("die", ThermalCapacitance(10.0), Celsius(80.0))
            .unwrap();
        let amb = b.add_boundary("ambient", Celsius(26.0)).unwrap();
        b.connect(die, amb, ThermalResistance(5.0)).unwrap();
        (b.build().unwrap(), die)
    }

    #[test]
    fn single_giant_step_is_exact() {
        // tau = 50 s; one 60 s step lands on the analytic solution to
        // floating-point precision — the whole point of the propagator.
        let (mut net, die) = decay_pair(Integrator::Exponential);
        net.step(Seconds(60.0), &[]).unwrap();
        let exact = 26.0 + 54.0 * (-60.0f64 / 50.0).exp();
        let err = (net.temperature(die).value() - exact).abs();
        assert!(err < 1e-9, "exponential error {err:.3e}");
    }

    #[test]
    fn steady_state_with_heat_matches_fourier() {
        let (mut net, die) = decay_pair(Integrator::Exponential);
        net.run(Seconds(2000.0), Seconds(500.0), &[(die, Watts(3.0))])
            .unwrap();
        assert!((net.temperature(die).value() - 41.0).abs() < 1e-6);
    }

    #[test]
    fn boundary_is_bit_exact() {
        let (mut net, die) = decay_pair(Integrator::Exponential);
        let amb = NodeId(1);
        net.run(Seconds(300.0), Seconds(0.5), &[(die, Watts(8.0))])
            .unwrap();
        assert_eq!(net.temperature(amb), Celsius(26.0));
    }

    #[test]
    fn propagator_cache_hits_and_caps() {
        let (mut net, die) = decay_pair(Integrator::Exponential);
        // Alternate the two protocol step sizes: exactly two cache entries.
        for _ in 0..50 {
            net.step(Seconds(0.1), &[(die, Watts(1.0))]).unwrap();
            net.step(Seconds(0.5), &[]).unwrap();
        }
        assert_eq!(net.propagators.len(), 2);
        // A pathological stream of distinct step sizes stays capped.
        for i in 1..(4 * PROPAGATOR_CACHE_CAP) {
            net.step(Seconds(0.01 * i as f64), &[]).unwrap();
        }
        assert!(net.propagators.len() <= PROPAGATOR_CACHE_CAP);
    }

    #[test]
    fn identical_topologies_share_one_propagator() {
        // Two devices of the same archetype must end up holding the *same*
        // allocation after seeing the same step size — the fleet-wide
        // shared-cache contract.
        let (mut a, _) = decay_pair(Integrator::Exponential);
        let (mut b, _) = decay_pair(Integrator::Exponential);
        assert_eq!(a.structural_signature(), b.structural_signature());
        let pa = a.exponential_propagator(Seconds(0.125)).unwrap();
        let pb = b.exponential_propagator(Seconds(0.125)).unwrap();
        assert!(Arc::ptr_eq(&pa, &pb), "archetype cache must share the Arc");
        assert_eq!(pa.node_count(), 2);
        assert_eq!(pa.dt(), Seconds(0.125));
    }

    #[test]
    fn distinct_topologies_do_not_share() {
        let (mut a, _) = decay_pair(Integrator::Exponential);
        let mut builder = ThermalNetworkBuilder::new();
        builder.integrator(Integrator::Exponential);
        let die = builder
            .add_node("die", ThermalCapacitance(9.5), Celsius(80.0))
            .unwrap();
        let amb = builder.add_boundary("ambient", Celsius(26.0)).unwrap();
        builder.connect(die, amb, ThermalResistance(5.0)).unwrap();
        let mut other = builder.build().unwrap();
        assert_ne!(a.structural_signature(), other.structural_signature());
        let pa = a.exponential_propagator(Seconds(0.25)).unwrap();
        let po = other.exponential_propagator(Seconds(0.25)).unwrap();
        assert!(!Arc::ptr_eq(&pa, &po));
    }

    #[test]
    fn shared_cache_hit_is_bit_identical_to_cold_build() {
        // The second network's trajectory through a shared propagator must
        // match a freshly built one bit for bit.
        let (mut warm, _) = decay_pair(Integrator::Exponential);
        warm.exponential_propagator(Seconds(0.37)).unwrap(); // publish
        let (mut via_cache, die_c) = decay_pair(Integrator::Exponential);
        let (mut rebuilt, die_r) = decay_pair(Integrator::Exponential);
        // Force a private rebuild for comparison.
        let fresh = rebuilt.build_propagator(0.37);
        let shared = via_cache.exponential_propagator(Seconds(0.37)).unwrap();
        assert_eq!(fresh.phi, shared.phi);
        assert_eq!(fresh.b, shared.b);
        for _ in 0..40 {
            via_cache
                .step(Seconds(0.37), &[(die_c, Watts(2.0))])
                .unwrap();
            rebuilt.step(Seconds(0.37), &[(die_r, Watts(2.0))]).unwrap();
        }
        assert_eq!(
            via_cache.temperature(die_c).value().to_bits(),
            rebuilt.temperature(die_r).value().to_bits()
        );
    }

    #[test]
    fn propagator_rejects_bad_dt() {
        let (mut net, _) = decay_pair(Integrator::Exponential);
        assert!(net.exponential_propagator(Seconds(0.0)).is_err());
        assert!(net.exponential_propagator(Seconds(-1.0)).is_err());
        assert!(net.exponential_propagator(Seconds(f64::NAN)).is_err());
    }

    #[test]
    fn set_integrator_switches_mid_run() {
        let (mut net, die) = decay_pair(Integrator::Euler);
        net.run(Seconds(20.0), Seconds(0.1), &[(die, Watts(3.0))])
            .unwrap();
        assert_eq!(net.integrator(), Integrator::Euler);
        net.set_integrator(Integrator::Exponential);
        assert_eq!(net.integrator(), Integrator::Exponential);
        net.run(Seconds(1000.0), Seconds(0.5), &[(die, Watts(3.0))])
            .unwrap();
        assert!((net.temperature(die).value() - 41.0).abs() < 1e-6);
    }

    #[test]
    fn equality_ignores_derived_caches() {
        let (mut a, die) = decay_pair(Integrator::Exponential);
        let (b, _) = decay_pair(Integrator::Exponential);
        a.step(Seconds(0.1), &[]).unwrap(); // populates the cache
        a.set_temperature(die, Celsius(80.0)).unwrap(); // restore state
        assert_eq!(a, b, "cache contents must not affect equality");
    }

    /// Tiny deterministic xorshift so the property test needs no RNG dep.
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.next_f64()
        }
    }

    /// Property-style equivalence: on randomized RC networks (varying node
    /// counts, boundary placement, topology, and heat patterns) the
    /// Exponential propagator tracks sub-stepped RK4 to tight tolerance
    /// over a mixed-step-size trajectory.
    #[test]
    fn matches_rk4_on_randomized_networks() {
        let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
        for case in 0..40 {
            let caps = 1 + (rng.next_f64() * 4.0) as usize; // 1..=4 capacitive
            let bounds = 1 + (rng.next_f64() * 2.0) as usize; // 1..=2 boundary
            let build = |integrator: Integrator| {
                let mut b = ThermalNetworkBuilder::new();
                b.integrator(integrator);
                let mut rng = Lcg(0xC0FF_EE00 + case); // same draws per scheme
                let mut ids = Vec::new();
                for i in 0..caps {
                    ids.push(
                        b.add_node(
                            &format!("n{i}"),
                            ThermalCapacitance(rng.range(0.5, 20.0)),
                            Celsius(rng.range(20.0, 90.0)),
                        )
                        .unwrap(),
                    );
                }
                for i in 0..bounds {
                    ids.push(
                        b.add_boundary(&format!("b{i}"), Celsius(rng.range(15.0, 40.0)))
                            .unwrap(),
                    );
                }
                // Chain keeps it connected; extra random edges vary topology.
                for w in ids.windows(2) {
                    b.connect(w[0], w[1], ThermalResistance(rng.range(0.5, 10.0)))
                        .unwrap();
                }
                let extra = (rng.next_f64() * 3.0) as usize;
                for _ in 0..extra {
                    let i = (rng.next_f64() * ids.len() as f64) as usize % ids.len();
                    let j = (rng.next_f64() * ids.len() as f64) as usize % ids.len();
                    if i != j {
                        b.connect(ids[i], ids[j], ThermalResistance(rng.range(1.0, 20.0)))
                            .unwrap();
                    }
                }
                let mut heat: Vec<(NodeId, Watts)> = Vec::new();
                for &id in &ids[..caps] {
                    if rng.next_f64() < 0.7 {
                        heat.push((id, Watts(rng.range(0.0, 6.0))));
                    }
                }
                (b.build().unwrap(), ids, heat)
            };
            let (mut rk4, ids, heat) = build(Integrator::Rk4);
            let (mut expo, _, heat_e) = build(Integrator::Exponential);
            assert_eq!(heat, heat_e, "builders must draw identically");
            // Mixed step sizes, including ones that force RK4 substepping.
            for &dt in &[0.1, 0.5, 0.1, 2.5, 0.1, 0.5, 7.0, 0.1] {
                for _ in 0..12 {
                    rk4.step(Seconds(dt), &heat).unwrap();
                    expo.step(Seconds(dt), &heat).unwrap();
                }
            }
            for &id in &ids {
                let gap = (rk4.temperature(id).value() - expo.temperature(id).value()).abs();
                assert!(
                    gap < 1e-4,
                    "case {case}: node {} diverged by {gap:.3e} K",
                    id.index()
                );
            }
        }
    }

    /// The Euler step as it was before `substep_euler` integrated in place:
    /// snapshot the state, evaluate [`ThermalNetwork::derivatives`] on it,
    /// then write `y + k·h` back to the capacitive nodes. Kept only as the
    /// bit-identity oracle for the lean substep.
    fn reference_euler_step(net: &mut ThermalNetwork, dt: f64, heat: &[(NodeId, Watts)]) {
        net.heat_scratch.fill(0.0);
        for &(node, power) in heat {
            net.heat_scratch[node.0] += power.value();
        }
        let substeps = if net.max_substep.is_finite() {
            (dt / net.max_substep).ceil().max(1.0) as usize
        } else {
            1
        };
        let h = dt / substeps as f64;
        let n = net.nodes.len();
        let (mut y, mut k1) = (vec![0.0; n], vec![0.0; n]);
        for _ in 0..substeps {
            for (t, node) in y.iter_mut().zip(&net.nodes) {
                *t = node.temp.value();
            }
            net.derivatives(&y, &mut k1);
            for (i, node) in net.nodes.iter_mut().enumerate() {
                if matches!(node.kind, NodeKind::Capacitive(_)) {
                    node.temp = Celsius(y[i] + k1[i] * h);
                }
            }
        }
    }

    /// The in-place Euler substep reproduces the derivative-snapshot one
    /// bit for bit on randomized RC networks: boundary nodes interleaved
    /// anywhere in the node order, extra and parallel edges, heat on a
    /// random subset, boundary re-pins mid-run, and
    /// step sizes from well under one substep to many substeps.
    #[test]
    fn euler_substep_is_bit_identical_to_derivative_oracle() {
        let mut rng = Lcg(0x5EED_0E11_1E55_u64);
        for case in 0..60 {
            let n = 2 + (rng.next_f64() * 6.0) as usize; // 2..=7 nodes
            let mut b = ThermalNetworkBuilder::new();
            let mut ids = Vec::new();
            let mut caps = Vec::new();
            let mut bounds = Vec::new();
            for i in 0..n {
                // Node 0 is capacitive so every network can integrate.
                if i > 0 && rng.next_f64() < 0.35 {
                    let id = b
                        .add_boundary(&format!("b{i}"), Celsius(rng.range(10.0, 45.0)))
                        .unwrap();
                    bounds.push(id);
                    ids.push(id);
                } else {
                    let id = b
                        .add_node(
                            &format!("n{i}"),
                            ThermalCapacitance(rng.range(0.05, 30.0)),
                            Celsius(rng.range(15.0, 95.0)),
                        )
                        .unwrap();
                    caps.push(id);
                    ids.push(id);
                }
            }
            for w in ids.windows(2) {
                b.connect(w[0], w[1], ThermalResistance(rng.range(0.2, 12.0)))
                    .unwrap();
            }
            for _ in 0..(rng.next_f64() * 4.0) as usize {
                let i = (rng.next_f64() * n as f64) as usize % n;
                let j = (rng.next_f64() * n as f64) as usize % n;
                if i != j {
                    b.connect(ids[i], ids[j], ThermalResistance(rng.range(0.5, 25.0)))
                        .unwrap();
                }
            }
            let mut lean = b.build().unwrap();
            let mut oracle = lean.clone();
            for round in 0..40 {
                let mut heat: Vec<(NodeId, Watts)> = Vec::new();
                for &id in &caps {
                    if rng.next_f64() < 0.6 {
                        heat.push((id, Watts(rng.range(0.0, 8.0))));
                    }
                }
                // From a fraction of one substep to dozens of them.
                let dt = lean.max_substep * rng.range(0.05, 30.0);
                lean.step(Seconds(dt), &heat).unwrap();
                reference_euler_step(&mut oracle, dt, &heat);
                if round % 13 == 7 {
                    for &id in &bounds {
                        let t = Celsius(rng.range(5.0, 50.0));
                        lean.set_boundary_temp(id, t).unwrap();
                        oracle.set_boundary_temp(id, t).unwrap();
                    }
                }
                for &id in &ids {
                    assert_eq!(
                        lean.temperature(id).value().to_bits(),
                        oracle.temperature(id).value().to_bits(),
                        "case {case} round {round}: node {} diverged",
                        id.index()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod convergence_tests {
    use super::*;

    /// Integrates the canonical single-node decay with explicit substep size
    /// control by calling `step` repeatedly with dt = h.
    fn final_error(integrator: Integrator, h: f64) -> f64 {
        let mut b = ThermalNetworkBuilder::new();
        b.integrator(integrator);
        let die = b
            .add_node("die", ThermalCapacitance(10.0), Celsius(80.0))
            .unwrap();
        let amb = b.add_boundary("ambient", Celsius(26.0)).unwrap();
        b.connect(die, amb, ThermalResistance(5.0)).unwrap();
        let mut net = b.build().unwrap();
        let total = 40.0;
        let steps = (total / h).round() as usize;
        for _ in 0..steps {
            net.step(Seconds(h), &[]).unwrap();
        }
        let exact = 26.0 + 54.0 * (-total / 50.0f64).exp();
        (net.temperature(die).value() - exact).abs()
    }

    #[test]
    fn euler_converges_at_first_order() {
        // Halving h must roughly halve the global error (ratio ∈ [1.6, 2.4]).
        let e1 = final_error(Integrator::Euler, 8.0);
        let e2 = final_error(Integrator::Euler, 4.0);
        let ratio = e1 / e2;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "euler order ratio {ratio:.2} (e1={e1:.2e}, e2={e2:.2e})"
        );
    }

    #[test]
    fn rk4_converges_at_fourth_order() {
        // Halving h must cut the global error by ~16× (ratio ∈ [10, 24]).
        let e1 = final_error(Integrator::Rk4, 8.0);
        let e2 = final_error(Integrator::Rk4, 4.0);
        let ratio = e1 / e2;
        assert!(
            (10.0..=24.0).contains(&ratio),
            "rk4 order ratio {ratio:.2} (e1={e1:.2e}, e2={e2:.2e})"
        );
    }
}
