//! Batched exponential stepping: one propagator, many networks.
//!
//! A fleet sweep steps thousands of same-archetype RC networks through the
//! same protocol. The scalar [`crate::network::ThermalNetwork::step`] fast
//! path is a dense mat-vec per device per step; [`ThermalBatch`] lifts a
//! worker's chunk of devices into structure-of-arrays form and applies the
//! *shared* propagator to all of them at once:
//!
//! ```text
//! T'_batch = Φ·T_batch + B·Q_batch      (n×n times n×width)
//! ```
//!
//! with lanes contiguous in memory (`temps[node*width + lane]`) so the
//! inner loop is a pure independent-accumulator sweep the autovectorizer
//! turns into SIMD adds/muls. **Bit-identity is load-bearing**: for each
//! lane the kernel performs exactly the operation sequence of the scalar
//! `step_exponential` — accumulator starts at `0.0`, terms `φ·T + b·q` are
//! added in ascending-`k` order, every node (boundaries included) is
//! written back — so a batched trajectory matches the scalar one to the
//! last bit at any width. Lanes never mix: each lane is an independent
//! rounding chain, which is also what makes the loop vectorizable.
//!
//! The batch holds no network state between steps; it is pure scratch.
//! Callers [`gather`](ThermalBatch::gather) lane temperatures in,
//! [`load_heat`](ThermalBatch::load_heat) the per-lane heat pairs,
//! [`step`](ThermalBatch::step) once, and
//! [`scatter`](ThermalBatch::scatter) results back, leaving every network
//! exactly as a scalar step would have. Steady-state use is
//! allocation-free: all three matrices are sized once at construction.

use crate::network::{NodeId, Propagator, ThermalNetwork};
use crate::ThermalError;
use pv_units::Watts;

/// Structure-of-arrays scratch for stepping up to `width` same-size
/// networks through one shared [`Propagator`]. See the [module
/// docs](self).
#[derive(Debug, Clone)]
pub struct ThermalBatch {
    nodes: usize,
    width: usize,
    /// Lane-major node temperatures: `temps[k*width + lane]`.
    temps: Vec<f64>,
    /// Lane-major heat vector: `heats[k*width + lane]`.
    heats: Vec<f64>,
    /// Output scratch, same layout.
    out: Vec<f64>,
}

impl ThermalBatch {
    /// Column-tile width of the fused kernel: wide enough for one AVX-512
    /// register or two AVX2 registers of `f64` lanes, small enough that
    /// the accumulator array always stays in registers.
    pub const TILE: usize = 8;

    /// Allocates scratch for `width` lanes of `nodes`-node networks. This
    /// is the only allocation the batch ever performs.
    pub fn new(width: usize, nodes: usize) -> Self {
        Self {
            nodes,
            width,
            temps: vec![0.0; nodes * width],
            heats: vec![0.0; nodes * width],
            out: vec![0.0; nodes * width],
        }
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Nodes per lane.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Copies `net`'s node temperatures into `lane`'s column.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `net` has a different node
    /// count than the batch was sized for (archetype mix-up — callers
    /// group lanes by structural signature first).
    pub fn gather(&mut self, lane: usize, net: &ThermalNetwork) {
        assert!(lane < self.width, "lane {lane} out of {}", self.width);
        assert_eq!(net.node_count(), self.nodes, "archetype node mismatch");
        for k in 0..self.nodes {
            self.temps[k * self.width + lane] = net.raw_temp(k);
        }
    }

    /// Validates and loads `lane`'s heat pairs, replicating the scalar
    /// [`ThermalNetwork::step`] checks and accumulation order exactly
    /// (duplicate node entries sum in slice order).
    ///
    /// # Errors
    ///
    /// Returns the same errors the scalar step would:
    /// [`ThermalError::UnknownNode`], [`ThermalError::InvalidParameter`]
    /// for non-finite power, [`ThermalError::HeatIntoBoundary`].
    pub fn load_heat(
        &mut self,
        lane: usize,
        net: &ThermalNetwork,
        heat: &[(NodeId, Watts)],
    ) -> Result<(), ThermalError> {
        assert!(lane < self.width, "lane {lane} out of {}", self.width);
        assert_eq!(net.node_count(), self.nodes, "archetype node mismatch");
        for k in 0..self.nodes {
            self.heats[k * self.width + lane] = 0.0;
        }
        for &(node, power) in heat {
            let k = node.index();
            if k >= self.nodes {
                return Err(ThermalError::UnknownNode(k));
            }
            if !power.is_finite() {
                return Err(ThermalError::InvalidParameter("power non-finite"));
            }
            if net.is_boundary(k) {
                return Err(ThermalError::HeatIntoBoundary(k));
            }
            self.heats[k * self.width + lane] += power.value();
        }
        Ok(())
    }

    /// Hot-path heat load for the device batch driver: exactly the
    /// (die, package) pair every [`crate::network::ThermalNetwork`]-backed
    /// device injects, with the node-range and boundary checks hoisted to
    /// batch entry (the caller validated the pair once via
    /// [`load_heat`](Self::load_heat) — node indices are construction-time
    /// constants). Only the per-step finiteness check remains, matching
    /// the scalar step's error for non-finite power. Heat accumulates in
    /// argument order, as the scalar slice walk would.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-finite power.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `lane` or a node index is out of range.
    pub fn set_heat_pair(
        &mut self,
        lane: usize,
        a: (NodeId, Watts),
        b: (NodeId, Watts),
    ) -> Result<(), ThermalError> {
        debug_assert!(lane < self.width);
        debug_assert!(a.0.index() < self.nodes && b.0.index() < self.nodes);
        if !a.1.is_finite() || !b.1.is_finite() {
            return Err(ThermalError::InvalidParameter("power non-finite"));
        }
        for k in 0..self.nodes {
            self.heats[k * self.width + lane] = 0.0;
        }
        self.heats[a.0.index() * self.width + lane] += a.1.value();
        self.heats[b.0.index() * self.width + lane] += b.1.value();
        Ok(())
    }

    /// Applies `T' = Φ·T_batch + B·Q_batch` across all lanes in one pass.
    /// See [`step_cols`](Self::step_cols).
    ///
    /// # Errors
    ///
    /// As [`step_cols`](Self::step_cols).
    pub fn step(&mut self, p: &Propagator) -> Result<(), ThermalError> {
        let w = self.width;
        self.step_cols(p, w)
    }

    /// Applies `T' = Φ·T_batch + B·Q_batch` to lane columns `0..cols`,
    /// leaving the rest untouched — the driver compacts *live* lanes into
    /// the leading columns each round, so a cooldown tail with one device
    /// still cooling pays for one column, not the full width.
    ///
    /// Columns are processed in tiles of [`TILE`](Self::TILE) with the
    /// per-row accumulators held in registers: for each output row the
    /// tile accumulates `acc += φ·T + b·Q` over `k` in ascending order —
    /// per lane this is exactly the scalar fused mat-vec's rounding chain
    /// (lanes never mix), while across the tile the accumulator array is
    /// a pure elementwise sweep the autovectorizer lifts to SIMD. A
    /// sub-tile remainder runs the same chain one column at a time.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] if `p` was built for a
    /// different node count or `cols` exceeds the batch width.
    pub fn step_cols(&mut self, p: &Propagator, cols: usize) -> Result<(), ThermalError> {
        let n = self.nodes;
        let w = self.width;
        if p.node_count() != n {
            return Err(ThermalError::InvalidParameter(
                "propagator/batch node mismatch",
            ));
        }
        if cols > w {
            return Err(ThermalError::InvalidParameter("cols exceeds batch width"));
        }
        let phi = p.phi();
        let b = p.b();
        let mut c0 = 0;
        while c0 < cols {
            let tile = (cols - c0).min(Self::TILE);
            if tile == Self::TILE {
                for i in 0..n {
                    let phi_row = &phi[i * n..(i + 1) * n];
                    let b_row = &b[i * n..(i + 1) * n];
                    let mut acc = [0.0f64; Self::TILE];
                    for k in 0..n {
                        let ph = phi_row[k];
                        let bb = b_row[k];
                        let t = &self.temps[k * w + c0..k * w + c0 + Self::TILE];
                        let q = &self.heats[k * w + c0..k * w + c0 + Self::TILE];
                        for j in 0..Self::TILE {
                            acc[j] += ph * t[j] + bb * q[j];
                        }
                    }
                    self.out[i * w + c0..i * w + c0 + Self::TILE].copy_from_slice(&acc);
                }
            } else {
                for i in 0..n {
                    let phi_row = &phi[i * n..(i + 1) * n];
                    let b_row = &b[i * n..(i + 1) * n];
                    for c in c0..c0 + tile {
                        let mut acc = 0.0;
                        for k in 0..n {
                            acc += phi_row[k] * self.temps[k * w + c]
                                + b_row[k] * self.heats[k * w + c];
                        }
                        self.out[i * w + c] = acc;
                    }
                }
            }
            c0 += tile;
        }
        // Publish the stepped columns back into `temps` so scatter (and a
        // chained step without re-gather) read the new state; untouched
        // columns keep their previous contents.
        for i in 0..n {
            let row = i * w;
            self.temps[row..row + cols].copy_from_slice(&self.out[row..row + cols]);
        }
        Ok(())
    }

    /// Writes `lane`'s stepped temperatures back into `net`, boundaries
    /// included — exactly the scalar write-back (boundary rows of Φ are
    /// identity, so pinned temperatures pass through bit-exactly).
    ///
    /// # Panics
    ///
    /// Panics on lane/node mismatch, as [`ThermalBatch::gather`].
    pub fn scatter(&self, lane: usize, net: &mut ThermalNetwork) {
        assert!(lane < self.width, "lane {lane} out of {}", self.width);
        assert_eq!(net.node_count(), self.nodes, "archetype node mismatch");
        for k in 0..self.nodes {
            net.set_raw_temp(k, self.temps[k * self.width + lane]);
        }
        #[cfg(debug_assertions)]
        net.record_external_step();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Integrator, ThermalNetworkBuilder};
    use pv_units::{Celsius, Seconds, ThermalCapacitance, ThermalResistance};

    /// Tiny deterministic xorshift (same shape as the network tests).
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

    /// Builds one archetype (seeded by `case`) at a per-lane initial
    /// temperature offset so lanes are distinct but topologies identical.
    fn archetype_lane(case: u64, lane: usize) -> (ThermalNetwork, Vec<NodeId>) {
        let mut rng = Lcg(0xA11C_E000 + case);
        let caps = 2 + (rng.next_f64() * 3.0) as usize; // 2..=4 capacitive
        let mut b = ThermalNetworkBuilder::new();
        b.integrator(Integrator::Exponential);
        let mut ids = Vec::new();
        for i in 0..caps {
            ids.push(
                b.add_node(
                    &format!("n{i}"),
                    ThermalCapacitance(rng.range(1.0, 15.0)),
                    Celsius(30.0 + 3.0 * lane as f64 + i as f64),
                )
                .unwrap(),
            );
        }
        ids.push(b.add_boundary("amb", Celsius(26.0)).unwrap());
        for w in ids.windows(2) {
            b.connect(w[0], w[1], ThermalResistance(rng.range(0.5, 8.0)))
                .unwrap();
        }
        (b.build().unwrap(), ids)
    }

    #[test]
    fn batched_step_is_bit_identical_to_scalar() {
        for case in 0..12u64 {
            for &width in &[1usize, 3, 8, 64] {
                let mut scalar: Vec<_> = (0..width).map(|l| archetype_lane(case, l)).collect();
                let mut batched: Vec<_> = (0..width).map(|l| archetype_lane(case, l)).collect();
                let n = scalar[0].0.node_count();
                let mut batch = ThermalBatch::new(width, n);
                let heats = |ids: &[NodeId], lane: usize| {
                    vec![
                        (ids[0], Watts(1.5 + 0.25 * lane as f64)),
                        (ids[1], Watts(0.75)),
                    ]
                };
                for &dt in &[0.1, 0.5, 0.1, 0.1, 2.0, 0.5] {
                    // Scalar reference path.
                    for (lane, (net, ids)) in scalar.iter_mut().enumerate() {
                        net.step(Seconds(dt), &heats(ids, lane)).unwrap();
                    }
                    // Batched path: gather → load → step → scatter.
                    let prop = batched[0].0.exponential_propagator(Seconds(dt)).unwrap();
                    for (lane, (net, ids)) in batched.iter_mut().enumerate() {
                        batch.gather(lane, net);
                        batch.load_heat(lane, net, &heats(ids, lane)).unwrap();
                    }
                    batch.step(&prop).unwrap();
                    for (lane, (net, _)) in batched.iter_mut().enumerate() {
                        batch.scatter(lane, net);
                    }
                    for lane in 0..width {
                        let (s, ids) = &scalar[lane];
                        let (bt, _) = &batched[lane];
                        for id in ids {
                            assert_eq!(
                                s.temperature(*id).value().to_bits(),
                                bt.temperature(*id).value().to_bits(),
                                "case {case} width {width} lane {lane} node {} dt {dt}",
                                id.index()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partial_batch_lanes_are_independent() {
        // Stepping only some lanes (stale data in the rest) must not
        // perturb the stepped lanes — lanes never mix.
        let (mut full, ids) = archetype_lane(7, 0);
        let (mut sparse, _) = archetype_lane(7, 0);
        let n = full.node_count();
        let mut batch = ThermalBatch::new(8, n);
        let heat = vec![(ids[0], Watts(2.0))];
        let prop = full.exponential_propagator(Seconds(0.25)).unwrap();
        for _ in 0..20 {
            // Lane 5 is live; other lanes keep whatever garbage is there.
            batch.gather(5, &sparse);
            batch.load_heat(5, &sparse, &heat).unwrap();
            batch.step(&prop).unwrap();
            batch.scatter(5, &mut sparse);
            full.step(Seconds(0.25), &heat).unwrap();
        }
        for id in &ids {
            assert_eq!(
                full.temperature(*id).value().to_bits(),
                sparse.temperature(*id).value().to_bits()
            );
        }
    }

    #[test]
    fn load_heat_validates_like_scalar_step() {
        let (net, ids) = archetype_lane(3, 0);
        let n = net.node_count();
        let boundary = ids[ids.len() - 1];
        let mut batch = ThermalBatch::new(2, n);
        assert_eq!(
            batch.load_heat(0, &net, &[(boundary, Watts(1.0))]),
            Err(ThermalError::HeatIntoBoundary(boundary.index()))
        );
        assert_eq!(
            batch.load_heat(0, &net, &[(ids[0], Watts(f64::NAN))]),
            Err(ThermalError::InvalidParameter("power non-finite"))
        );
        // Duplicate entries accumulate, as in the scalar path.
        batch
            .load_heat(0, &net, &[(ids[0], Watts(1.5)), (ids[0], Watts(1.5))])
            .unwrap();
        assert_eq!(batch.heats[ids[0].index() * 2], 3.0);
    }

    #[test]
    fn step_cols_compacted_matches_scalar_and_leaves_tail_untouched() {
        // Live lanes compacted into the leading columns: every live count
        // straddling tile boundaries (sub-tile, exact tile, tile+remainder,
        // full width) must be bit-identical to the scalar path, and the
        // idle tail columns must not move at all.
        let width = 19usize;
        for &cols in &[1usize, 5, 8, 11, 16, 19] {
            let mut scalar: Vec<_> = (0..cols).map(|l| archetype_lane(5, l)).collect();
            let mut batched: Vec<_> = (0..cols).map(|l| archetype_lane(5, l)).collect();
            let n = scalar[0].0.node_count();
            let mut batch = ThermalBatch::new(width, n);
            let sentinel = 1234.5;
            batch.temps.iter_mut().for_each(|t| *t = sentinel);
            for &dt in &[0.1, 0.5, 0.1] {
                let prop = batched[0].0.exponential_propagator(Seconds(dt)).unwrap();
                for (slot, (net, ids)) in batched.iter_mut().enumerate() {
                    batch.gather(slot, net);
                    batch
                        .set_heat_pair(slot, (ids[0], Watts(1.5)), (ids[1], Watts(0.75)))
                        .unwrap();
                }
                batch.step_cols(&prop, cols).unwrap();
                for (slot, (net, _)) in batched.iter_mut().enumerate() {
                    batch.scatter(slot, net);
                }
                for (net, ids) in scalar.iter_mut() {
                    net.step(Seconds(dt), &[(ids[0], Watts(1.5)), (ids[1], Watts(0.75))])
                        .unwrap();
                }
                for lane in 0..cols {
                    let (s, ids) = &scalar[lane];
                    let (bt, _) = &batched[lane];
                    for id in ids {
                        assert_eq!(
                            s.temperature(*id).value().to_bits(),
                            bt.temperature(*id).value().to_bits(),
                            "cols {cols} lane {lane} dt {dt}"
                        );
                    }
                }
            }
            for k in 0..n {
                for c in cols..width {
                    assert_eq!(batch.temps[k * width + c], sentinel, "idle column moved");
                }
            }
        }
    }

    #[test]
    fn set_heat_pair_matches_load_heat_bitwise() {
        let (net, ids) = archetype_lane(9, 0);
        let n = net.node_count();
        let mut via_load = ThermalBatch::new(3, n);
        let mut via_pair = ThermalBatch::new(3, n);
        let pair = [(ids[0], Watts(2.25)), (ids[1], Watts(0.4))];
        via_load.load_heat(1, &net, &pair).unwrap();
        via_pair.set_heat_pair(1, pair[0], pair[1]).unwrap();
        assert_eq!(via_load.heats, via_pair.heats);
        // Same error as the scalar step for non-finite power.
        assert_eq!(
            via_pair.set_heat_pair(0, (ids[0], Watts(f64::INFINITY)), pair[1]),
            Err(ThermalError::InvalidParameter("power non-finite"))
        );
        // A duplicated node accumulates, as a duplicated slice entry would.
        via_pair
            .set_heat_pair(2, (ids[0], Watts(1.0)), (ids[0], Watts(1.0)))
            .unwrap();
        assert_eq!(via_pair.heats[ids[0].index() * 3 + 2], 2.0);
    }

    #[test]
    fn step_cols_rejects_overwide_request() {
        let (mut net, _) = archetype_lane(2, 0);
        let prop = net.exponential_propagator(Seconds(0.1)).unwrap();
        let mut batch = ThermalBatch::new(4, net.node_count());
        assert_eq!(
            batch.step_cols(&prop, 5),
            Err(ThermalError::InvalidParameter("cols exceeds batch width"))
        );
    }

    #[test]
    fn step_rejects_mismatched_propagator() {
        let (mut small, _) = archetype_lane(1, 0);
        let prop = small.exponential_propagator(Seconds(0.1)).unwrap();
        let mut batch = ThermalBatch::new(4, small.node_count() + 1);
        assert!(batch.step(&prop).is_err());
    }
}
