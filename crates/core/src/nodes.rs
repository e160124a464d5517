//! Node creation (Algorithm 2 of the paper).
//!
//! The embedding plane is sampled by `r` angular rays `ψ_k = k·2π/r`. For each
//! ray, the *radius set* `I_ψ` collects the (positive) radii at which the
//! embedded trajectory crosses the ray. A Gaussian kernel density estimate
//! over those radii is computed (Scott bandwidth by default) and each local
//! maximum becomes a node: the densest sections of the trajectory, i.e. the
//! recurrent patterns of the series.

use std::cell::RefCell;

use s2g_linalg::kde::{scott_bandwidth, GaussianKde};
use s2g_linalg::par;
use s2g_linalg::vector::Vec2;

use crate::config::{BandwidthRule, S2gConfig};
use crate::error::{Error, Result};

/// A single crossing of the trajectory with one ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayCrossing {
    /// Index of the crossed ray (`0 ≤ ray < rate`).
    pub ray: usize,
    /// Radius (distance from the origin along the ray) of the intersection.
    pub radius: f64,
    /// Position of the intersection along the segment, in `[0, 1]`
    /// (used to order multiple crossings inside the same segment).
    pub t: f64,
}

/// Computes all crossings of the segment `p0 → p1` with the `rate` rays.
/// Crossings are returned ordered by their position `t` along the segment.
pub fn segment_crossings(p0: Vec2, p1: Vec2, rate: usize, out: &mut Vec<RayCrossing>) {
    thread_local! {
        /// The ray table of the last `rate` this thread asked for.
        static RAYS: RefCell<Vec<Vec2>> = const { RefCell::new(Vec::new()) };
    }
    out.clear();
    RAYS.with_borrow_mut(|rays| {
        if rays.len() != rate {
            *rays = ray_table(rate);
        }
        visit_crossings(p0, p1, rays, |crossing| out.push(crossing));
    });
    out.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap_or(std::cmp::Ordering::Equal));
}

/// Unit vectors of the `rate` rays, `ψ_k = k·2π/rate`. Every crossing and
/// every node extraction reads its rays from this one expression.
fn ray_table(rate: usize) -> Vec<Vec2> {
    (0..rate)
        .map(|ray| Vec2::from_angle(ray as f64 * std::f64::consts::TAU / rate as f64))
        .collect()
}

/// Unit vectors of the `rate` rays as node assignment computes them,
/// `ψ_k = k·(2π/rate)`. The grouping differs from [`ray_table`]'s and so do
/// the bits on some rays; each keeps its own expression so that crossings and
/// assignments stay bit-identical to what they always computed.
fn axis_table(rate: usize) -> Vec<Vec2> {
    let step = std::f64::consts::TAU / rate as f64;
    (0..rate)
        .map(|ray| Vec2::from_angle(ray as f64 * step))
        .collect()
}

/// Calls `visit` with every crossing of the segment `p0 → p1` with the rays
/// whose unit vectors `rays` holds, in ray order. A segment meets each ray
/// at most once, so per ray the crossings of a trajectory arrive in segment
/// order.
fn visit_crossings(p0: Vec2, p1: Vec2, rays: &[Vec2], mut visit: impl FnMut(RayCrossing)) {
    for (ray, u) in rays.iter().enumerate() {
        // Signed "side" of each endpoint relative to the line through the origin
        // with direction u (cross product).
        let c0 = u.cross(&p0);
        let c1 = u.cross(&p1);
        if c0 == 0.0 && c1 == 0.0 {
            // Segment lies on the line: skip (degenerate, avoids duplicates).
            continue;
        }
        if c1 == 0.0 {
            // End point exactly on the ray: attribute that crossing to the
            // *next* segment (whose start point will have c0 == 0), so that a
            // trajectory point sitting exactly on a ray is counted once.
            continue;
        }
        if (c0 > 0.0 && c1 > 0.0) || (c0 < 0.0 && c1 < 0.0) {
            continue; // both endpoints on the same side: no crossing
        }
        let denom = c0 - c1;
        if denom.abs() < f64::EPSILON {
            continue;
        }
        let t = c0 / denom;
        if !(0.0..=1.0).contains(&t) {
            continue;
        }
        let point = Vec2::new(p0.x + t * (p1.x - p0.x), p0.y + t * (p1.y - p0.y));
        let radius = u.dot(&point);
        if radius > 0.0 {
            visit(RayCrossing { ray, radius, t });
        }
    }
}

/// Segments of the trajectory times rays (`(|points| − 1) · rate` ray
/// tests) below which node extraction does not spawn one more thread.
const MIN_RAY_TESTS_PER_THREAD: usize = 1 << 20;

/// The pattern node set: per ray, the sorted radii of the extracted nodes.
///
/// A node is globally identified by a dense integer id obtained from its ray
/// index and its rank within the ray (see [`NodeSet::node_id`]); this id is
/// the node id used in the transition graph.
#[derive(Debug, Clone)]
pub struct NodeSet {
    rate: usize,
    /// Sorted node radii for each ray.
    radii: Vec<Vec<f64>>,
    /// Global id of the first node of each ray.
    offsets: Vec<usize>,
    total: usize,
    /// Unit vector of every ray, as [`NodeSet::assign`] projects onto it.
    axes: Vec<Vec2>,
}

impl NodeSet {
    /// Extracts the node set from the embedded trajectory (Algorithm 2).
    ///
    /// # Errors
    /// [`Error::DegenerateEmbedding`] when the trajectory never crosses any
    /// ray (e.g. fewer than two embedded points).
    pub fn extract(points: &[Vec2], config: &S2gConfig) -> Result<Self> {
        let ray_tests = points.len().saturating_sub(1).saturating_mul(config.rate);
        Self::extract_on(
            points,
            config,
            par::threads_for(ray_tests, MIN_RAY_TESTS_PER_THREAD),
        )
    }

    /// [`NodeSet::extract`] on an explicit number of threads.
    ///
    /// The segments are split into contiguous chunks, one per thread, and
    /// each chunk collects its per-ray radii. The per-ray KDE then runs over
    /// contiguous blocks of rays, reassembled by ray index; each ray reads
    /// its parts of the chunks in chunk order, so its radius set is in
    /// segment order on any thread count. Output is bit-identical for every
    /// `threads`.
    pub(crate) fn extract_on(points: &[Vec2], config: &S2gConfig, threads: usize) -> Result<Self> {
        let rate = config.rate;
        let rays = ray_table(rate);
        let segments = points.len().saturating_sub(1);
        let chunks = par::map_ranges(par::split_even(segments, threads), |range| {
            let mut sets: Vec<Vec<f64>> = vec![Vec::new(); rate];
            let end = (range.end + 1).min(points.len());
            for pair in points[range.start..end].windows(2) {
                visit_crossings(pair[0], pair[1], &rays, |crossing| {
                    sets[crossing.ray].push(crossing.radius)
                });
            }
            sets
        });
        if chunks.iter().flatten().all(Vec::is_empty) {
            return Err(Error::DegenerateEmbedding(
                "trajectory never crosses any ray; cannot extract nodes",
            ));
        }

        let radii: Vec<Vec<f64>> = par::map_ranges(par::split_even(rate, threads), |block| {
            block
                .map(|ray| {
                    // The ray's radius set in segment order: its part of
                    // chunk 0, then of chunk 1, …
                    let set: Vec<f64> = chunks.iter().flat_map(|c| &c[ray]).copied().collect();
                    if set.is_empty() {
                        Vec::new()
                    } else {
                        extract_ray_nodes(&set, config)
                    }
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        let mut offsets = Vec::with_capacity(rate);
        let mut total = 0usize;
        for r in &radii {
            offsets.push(total);
            total += r.len();
        }
        Ok(Self {
            rate,
            radii,
            offsets,
            total,
            axes: axis_table(rate),
        })
    }

    /// Reassembles a node set from the per-ray node radii, as produced by
    /// [`NodeSet::ray_nodes`]. Offsets and totals are recomputed; radii within
    /// each ray must be sorted ascending (they are re-sorted defensively).
    /// Used by model persistence.
    ///
    /// # Errors
    /// [`Error::DegenerateEmbedding`] when `radii.len() != rate` or every ray
    /// is empty.
    pub fn from_parts(rate: usize, mut radii: Vec<Vec<f64>>) -> Result<Self> {
        if radii.len() != rate || radii.iter().all(|r| r.is_empty()) {
            return Err(Error::DegenerateEmbedding(
                "node set parts must provide one (non-universally-empty) radius list per ray",
            ));
        }
        for ray in &mut radii {
            ray.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        }
        let mut offsets = Vec::with_capacity(rate);
        let mut total = 0usize;
        for r in &radii {
            offsets.push(total);
            total += r.len();
        }
        Ok(Self {
            rate,
            radii,
            offsets,
            total,
            axes: axis_table(rate),
        })
    }

    /// Number of rays.
    pub fn rate(&self) -> usize {
        self.rate
    }

    /// Total number of nodes across all rays.
    pub fn node_count(&self) -> usize {
        self.total
    }

    /// Node radii extracted for one ray (sorted ascending).
    pub fn ray_nodes(&self, ray: usize) -> &[f64] {
        &self.radii[ray]
    }

    /// Global node id of the `rank`-th node (by radius) of `ray`.
    pub fn node_id(&self, ray: usize, rank: usize) -> usize {
        self.offsets[ray] + rank
    }

    /// Maps a crossing radius on `ray` to the id of the nearest node of that
    /// ray, or `None` when the ray has no nodes.
    pub fn nearest_node(&self, ray: usize, radius: f64) -> Option<usize> {
        let nodes = self.radii.get(ray)?;
        if nodes.is_empty() {
            return None;
        }
        // Binary search for the insertion point, then compare neighbours.
        let idx = nodes.partition_point(|&x| x < radius);
        let candidates = [idx.wrapping_sub(1), idx];
        let mut best: Option<(usize, f64)> = None;
        for &c in &candidates {
            if c < nodes.len() {
                let d = (nodes[c] - radius).abs();
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((c, d));
                }
            }
        }
        best.map(|(rank, _)| self.node_id(ray, rank))
    }

    /// Assigns an embedded point to its node (the function `S` of
    /// Definition 8): the ray closest in angle to the point is selected, and
    /// within that ray the node whose radius is closest to the point's
    /// projection onto the ray. Rays without nodes fall back to the nearest
    /// ray (in angular distance) that has nodes. Returns `None` only when the
    /// node set is empty.
    pub fn assign(&self, point: Vec2) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let tau = std::f64::consts::TAU;
        let step = tau / self.rate as f64;
        let base_ray = ((point.angle() / step).round() as usize) % self.rate;
        // Search outward from the angularly closest ray until one has nodes.
        for offset in 0..=(self.rate / 2) {
            for &ray in &[
                (base_ray + offset) % self.rate,
                (base_ray + self.rate - offset % self.rate) % self.rate,
            ] {
                if self.radii[ray].is_empty() {
                    continue;
                }
                let radius = point.dot(&self.axes[ray]);
                return self.nearest_node(ray, radius);
            }
        }
        None
    }

    /// Returns `(ray, radius)` for every node, ordered by global node id.
    /// Useful for plotting / exporting the graph geometry.
    pub fn node_positions(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(self.total);
        for (ray, radii) in self.radii.iter().enumerate() {
            for &r in radii {
                out.push((ray, r));
            }
        }
        out
    }
}

/// Runs the KDE + local-maxima extraction for one radius set.
fn extract_ray_nodes(radius_set: &[f64], config: &S2gConfig) -> Vec<f64> {
    // Degenerate case: all radii (nearly) identical → a single node.
    let min = radius_set.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = radius_set.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if (max - min).abs() < 1e-12 {
        return vec![min];
    }

    let bandwidth = match config.bandwidth {
        BandwidthRule::Scott => scott_bandwidth(radius_set),
        BandwidthRule::SigmaRatio(ratio) => {
            let n = radius_set.len() as f64;
            let mean = radius_set.iter().sum::<f64>() / n;
            let var = radius_set
                .iter()
                .map(|x| (x - mean) * (x - mean))
                .sum::<f64>()
                / n;
            (var.sqrt() * ratio).max(1e-9)
        }
    };
    match GaussianKde::with_bandwidth(radius_set.to_vec(), bandwidth) {
        Ok(kde) => {
            let mut maxima = kde.local_maxima(config.kde_grid_points);
            maxima.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            maxima
        }
        Err(_) => vec![radius_set.iter().sum::<f64>() / radius_set.len() as f64],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A circular trajectory of the given radius (crosses every ray once per turn).
    fn circle_points(radius: f64, turns: usize, points_per_turn: usize) -> Vec<Vec2> {
        let total = turns * points_per_turn;
        (0..=total)
            .map(|i| {
                let theta = std::f64::consts::TAU * i as f64 / points_per_turn as f64;
                Vec2::new(radius * theta.cos(), radius * theta.sin())
            })
            .collect()
    }

    #[test]
    fn segment_crossing_simple_case() {
        // Segment from (1, -0.5) to (1, 0.5) crosses the ray ψ=0 (positive x-axis) at radius 1.
        let mut out = Vec::new();
        segment_crossings(Vec2::new(1.0, -0.5), Vec2::new(1.0, 0.5), 4, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ray, 0);
        assert!((out[0].radius - 1.0).abs() < 1e-12);
        assert!((out[0].t - 0.5).abs() < 1e-12);
    }

    #[test]
    fn segment_does_not_cross_opposite_ray() {
        // The same segment mirrored to x = -1 crosses ψ=π (ray 2 of 4), not ψ=0.
        let mut out = Vec::new();
        segment_crossings(Vec2::new(-1.0, -0.5), Vec2::new(-1.0, 0.5), 4, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ray, 2);
    }

    #[test]
    fn crossings_are_ordered_by_t() {
        // A long segment sweeping a quarter turn crosses several rays in order.
        let mut out = Vec::new();
        segment_crossings(Vec2::new(2.0, 0.1), Vec2::new(0.1, 2.0), 16, &mut out);
        assert!(out.len() >= 3);
        for pair in out.windows(2) {
            assert!(pair[0].t <= pair[1].t);
        }
    }

    #[test]
    fn no_crossing_for_far_segment() {
        let mut out = Vec::new();
        segment_crossings(Vec2::new(3.0, 1.0), Vec2::new(3.1, 1.1), 8, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn circle_produces_one_node_per_ray() {
        let points = circle_points(2.0, 20, 200);
        let config = S2gConfig::new(50).with_rate(16);
        let nodes = NodeSet::extract(&points, &config).unwrap();
        assert_eq!(nodes.rate(), 16);
        assert_eq!(
            nodes.node_count(),
            16,
            "each ray should get exactly one node"
        );
        for ray in 0..16 {
            let radii = nodes.ray_nodes(ray);
            assert_eq!(radii.len(), 1);
            assert!(
                (radii[0] - 2.0).abs() < 0.1,
                "ray {ray} radius {}",
                radii[0]
            );
        }
    }

    #[test]
    fn two_concentric_circles_produce_two_nodes_per_ray() {
        let mut points = circle_points(1.0, 15, 180);
        points.extend(circle_points(6.0, 15, 180));
        let config = S2gConfig::new(50).with_rate(8);
        let nodes = NodeSet::extract(&points, &config).unwrap();
        for ray in 0..8 {
            let radii = nodes.ray_nodes(ray);
            assert!(
                radii.len() >= 2,
                "ray {ray} should see both circles, got {radii:?}"
            );
            assert!(radii.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn nearest_node_snaps_to_closest_radius() {
        let mut points = circle_points(1.0, 10, 120);
        points.extend(circle_points(5.0, 10, 120));
        let config = S2gConfig::new(50).with_rate(8);
        let nodes = NodeSet::extract(&points, &config).unwrap();
        let inner = nodes.nearest_node(0, 1.2).unwrap();
        let outer = nodes.nearest_node(0, 4.5).unwrap();
        assert_ne!(inner, outer);
        assert_eq!(inner, nodes.node_id(0, 0));
    }

    #[test]
    fn node_ids_are_dense_and_unique() {
        let mut points = circle_points(1.0, 5, 100);
        points.extend(circle_points(3.0, 5, 100));
        let nodes = NodeSet::extract(&points, &S2gConfig::new(50).with_rate(12)).unwrap();
        let positions = nodes.node_positions();
        assert_eq!(positions.len(), nodes.node_count());
        // ids from node_id() must cover 0..node_count exactly once.
        let mut seen = vec![false; nodes.node_count()];
        for (ray, radii) in (0..12).map(|r| (r, nodes.ray_nodes(r))) {
            for rank in 0..radii.len() {
                let id = nodes.node_id(ray, rank);
                assert!(!seen[id], "duplicate id {id}");
                seen[id] = true;
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn assign_picks_angularly_closest_ray_and_radius() {
        let mut points = circle_points(1.0, 10, 120);
        points.extend(circle_points(5.0, 10, 120));
        let nodes = NodeSet::extract(&points, &S2gConfig::new(50).with_rate(8)).unwrap();
        // A point near angle 0 and radius ~1 maps to the inner node of ray 0.
        let inner0 = nodes.assign(Vec2::new(1.05, 0.05)).unwrap();
        assert_eq!(inner0, nodes.nearest_node(0, 1.0).unwrap());
        // A point near angle π/2 and radius ~5 maps to the outer node of ray 2.
        let outer2 = nodes.assign(Vec2::new(-0.1, 4.8)).unwrap();
        assert_eq!(outer2, nodes.nearest_node(2, 5.0).unwrap());
        assert_ne!(inner0, outer2);
    }

    #[test]
    fn assign_falls_back_to_nearest_populated_ray() {
        // Trajectory confined to a half-plane: rays pointing the other way get
        // no nodes, but assignment must still succeed for any query point.
        let points: Vec<Vec2> = (0..200)
            .map(|i| {
                let theta = std::f64::consts::PI * (i % 50) as f64 / 50.0; // upper half only
                Vec2::new(2.0 * theta.cos(), 2.0 * theta.sin().abs().max(0.05))
            })
            .collect();
        let nodes = NodeSet::extract(&points, &S2gConfig::new(50).with_rate(8)).unwrap();
        // Query point in the lower half-plane.
        let assigned = nodes.assign(Vec2::new(0.0, -3.0));
        assert!(assigned.is_some());
        assert!(assigned.unwrap() < nodes.node_count());
    }

    #[test]
    fn empty_or_static_trajectory_is_degenerate() {
        let config = S2gConfig::new(50).with_rate(8);
        assert!(NodeSet::extract(&[], &config).is_err());
        assert!(NodeSet::extract(&[Vec2::new(1.0, 1.0)], &config).is_err());
        // Two identical points: no segment sweeps any ray.
        let p = Vec2::new(1.0, 1.0);
        assert!(NodeSet::extract(&[p, p], &config).is_err());
    }

    #[test]
    fn bandwidth_ratio_controls_node_granularity() {
        // A trajectory alternating between two nearby rings: a large bandwidth
        // should merge them into one node per ray, a small one should keep two.
        let mut points = Vec::new();
        for turn in 0..30 {
            let radius = if turn % 2 == 0 { 3.0 } else { 4.0 };
            for i in 0..90 {
                let theta = std::f64::consts::TAU * i as f64 / 90.0;
                points.push(Vec2::new(radius * theta.cos(), radius * theta.sin()));
            }
        }
        let coarse = NodeSet::extract(
            &points,
            &S2gConfig::new(50)
                .with_rate(8)
                .with_bandwidth(BandwidthRule::SigmaRatio(3.0)),
        )
        .unwrap();
        let fine = NodeSet::extract(
            &points,
            &S2gConfig::new(50)
                .with_rate(8)
                .with_bandwidth(BandwidthRule::SigmaRatio(0.1)),
        )
        .unwrap();
        assert!(
            fine.node_count() > coarse.node_count(),
            "fine {} vs coarse {}",
            fine.node_count(),
            coarse.node_count()
        );
    }

    /// The crossing kernel as it stood before the ray table: one `sin`/`cos`
    /// pair per ray and segment. The reference the table must reproduce.
    fn reference_crossings(p0: Vec2, p1: Vec2, rate: usize) -> Vec<RayCrossing> {
        let mut out = Vec::new();
        let tau = std::f64::consts::TAU;
        for ray in 0..rate {
            let u = Vec2::from_angle(ray as f64 * tau / rate as f64);
            let (c0, c1) = (u.cross(&p0), u.cross(&p1));
            if c1 == 0.0 {
                continue;
            }
            if (c0 > 0.0 && c1 > 0.0) || (c0 < 0.0 && c1 < 0.0) {
                continue;
            }
            let denom = c0 - c1;
            if denom.abs() < f64::EPSILON {
                continue;
            }
            let t = c0 / denom;
            if !(0.0..=1.0).contains(&t) {
                continue;
            }
            let point = Vec2::new(p0.x + t * (p1.x - p0.x), p0.y + t * (p1.y - p0.y));
            let radius = u.dot(&point);
            if radius > 0.0 {
                out.push(RayCrossing { ray, radius, t });
            }
        }
        out.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    fn crossing_bits(crossings: &[RayCrossing]) -> Vec<(usize, u64, u64)> {
        crossings
            .iter()
            .map(|c| (c.ray, c.radius.to_bits(), c.t.to_bits()))
            .collect()
    }

    #[test]
    fn table_crossings_equal_the_per_ray_trig_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut out = Vec::new();
        for rate in [3usize, 7, 16, 50, 64] {
            let rays = ray_table(rate);
            let mut coord = || rng.gen_range(-4.0..4.0);
            let mut segments: Vec<(Vec2, Vec2)> = (0..2_000)
                .map(|_| (Vec2::new(coord(), coord()), Vec2::new(coord(), coord())))
                .collect();
            // Endpoints exactly on a ray: `u × u` is exactly zero, so these
            // hit the `c1 == 0.0` (end) and `c0 == 0.0` (start) branches.
            for (k, &u) in rays.iter().enumerate() {
                let other = Vec2::new(coord(), coord());
                segments.push((other, u));
                segments.push((u, other));
                segments.push((u, rays[(k + 1) % rate]));
                segments.push((Vec2::new(2.5, 0.0), Vec2::new(-1.0, 0.0)));
            }
            for (p0, p1) in segments {
                segment_crossings(p0, p1, rate, &mut out);
                assert_eq!(
                    crossing_bits(&out),
                    crossing_bits(&reference_crossings(p0, p1, rate)),
                    "rate {rate}, segment {p0:?} -> {p1:?}"
                );
            }
        }
    }

    /// Node assignment as it stood before the axis table: the ray's unit
    /// vector rebuilt from its angle on every call. The reference
    /// [`NodeSet::assign`] must reproduce.
    fn reference_assign(nodes: &NodeSet, point: Vec2) -> Option<usize> {
        let rate = nodes.rate();
        let step = std::f64::consts::TAU / rate as f64;
        let base_ray = ((point.angle() / step).round() as usize) % rate;
        for offset in 0..=(rate / 2) {
            for ray in [
                (base_ray + offset) % rate,
                (base_ray + rate - offset) % rate,
            ] {
                if nodes.ray_nodes(ray).is_empty() {
                    continue;
                }
                let radius = point.dot(&Vec2::from_angle(ray as f64 * step));
                return nodes.nearest_node(ray, radius);
            }
        }
        None
    }

    #[test]
    fn assign_equals_the_per_call_trig_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for rate in [8usize, 12, 30, 50, 100] {
            let step = std::f64::consts::TAU / rate as f64;
            let mut radii = |keep: &dyn Fn(usize) -> bool| -> Vec<Vec<f64>> {
                (0..rate)
                    .map(|ray| {
                        if keep(ray) {
                            (0..3).map(|_| rng.gen_range(0.1..5.0)).collect()
                        } else {
                            Vec::new()
                        }
                    })
                    .collect()
            };
            // Every ray populated, every third ray empty, and a single
            // populated ray that most points fall back to.
            let node_sets = [
                NodeSet::from_parts(rate, radii(&|_| true)).unwrap(),
                NodeSet::from_parts(rate, radii(&|ray| ray % 3 != 0)).unwrap(),
                NodeSet::from_parts(rate, radii(&|ray| ray == rate / 3)).unwrap(),
            ];
            let mut points = vec![
                Vec2::new(0.0, 0.0),
                Vec2::new(-0.0, 0.0),
                Vec2::new(0.0, -0.0),
                Vec2::new(-0.0, -0.0),
                Vec2::new(2.0, -0.0),
                Vec2::new(-2.0, -0.0),
                Vec2::new(-0.0, 2.0),
                Vec2::new(-0.0, -2.0),
            ];
            for k in 0..rate {
                let radius = rng.gen_range(0.1..5.0);
                // Exactly on ray k, and on the half-step boundary after it.
                points.push(Vec2::from_angle(k as f64 * step) * radius);
                points.push(Vec2::from_angle((k as f64 + 0.5) * step) * radius);
                points.push(Vec2::from_angle((k as f64 + 0.5) * step));
            }
            points.extend(
                (0..2_000).map(|_| Vec2::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0))),
            );
            for nodes in &node_sets {
                for &point in &points {
                    assert_eq!(
                        nodes.assign(point),
                        reference_assign(nodes, point),
                        "rate {rate}, point {point:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn assign_axes_are_not_the_crossing_ray_table() {
        // `ψ·(τ/rate)` and `ψ·τ/rate` round differently on half the rays at
        // rate 50: unifying the two tables would change assignments or
        // crossings.
        let bits = |rays: Vec<Vec2>| -> Vec<(u64, u64)> {
            rays.iter()
                .map(|u| (u.x.to_bits(), u.y.to_bits()))
                .collect()
        };
        let (axes, rays) = (bits(axis_table(50)), bits(ray_table(50)));
        let differing = axes.iter().zip(&rays).filter(|(a, r)| a != r).count();
        assert_eq!(differing, 25);
    }

    /// Embedded trajectories of seeded SRW, periodic, noise and
    /// constant-stretch series of `n` points.
    fn trajectories(n: usize) -> Vec<(&'static str, Vec<Vec2>)> {
        use crate::embedding::Embedding;
        use rand::{Rng, SeedableRng};
        use s2g_datasets::srw::{generate_srw, SrwConfig};
        use s2g_timeseries::TimeSeries;

        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let srw = generate_srw(SrwConfig {
            length: n,
            num_anomalies: 2,
            noise_ratio: 0.05,
            anomaly_length: 200,
            seed: 3,
        })
        .series;
        let periodic: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / 73.0).sin() + rng.gen_range(-0.1..0.1))
            .collect();
        let noise: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let stretches: Vec<f64> = (0..n)
            .map(|i| match (i / 700) % 3 {
                0 => 0.0,
                1 => -0.0,
                _ => (std::f64::consts::TAU * i as f64 / 90.0).sin(),
            })
            .collect();
        let config = S2gConfig::new(50);
        [
            ("srw", srw),
            ("periodic", TimeSeries::from(periodic)),
            ("noise", TimeSeries::from(noise)),
            ("stretches", TimeSeries::from(stretches)),
        ]
        .into_iter()
        .map(|(name, series)| (name, Embedding::fit(&series, &config).unwrap().points))
        .collect()
    }

    fn node_bits(nodes: &NodeSet) -> Vec<Vec<u64>> {
        (0..nodes.rate())
            .map(|ray| nodes.ray_nodes(ray).iter().map(|r| r.to_bits()).collect())
            .collect()
    }

    #[test]
    fn fan_out_extraction_is_bit_identical_on_every_thread_count() {
        let config = S2gConfig::new(50);
        for (name, points) in trajectories(6_000) {
            let single = node_bits(&NodeSet::extract_on(&points, &config, 1).unwrap());
            for threads in [2, 3, 4, 7] {
                let fanned = NodeSet::extract_on(&points, &config, threads).unwrap();
                assert_eq!(node_bits(&fanned), single, "{name} on {threads} threads");
            }
        }
    }

    #[test]
    fn fan_out_extraction_is_bit_identical_around_the_cutoff() {
        // `extract` leaves the calling thread from `cutoff` points on.
        let config = S2gConfig::new(50);
        let cutoff = 2 * MIN_RAY_TESTS_PER_THREAD / config.rate + 2;
        for (name, points) in trajectories(cutoff + 60) {
            for len in cutoff - 2..=cutoff + 2 {
                let points = &points[..len];
                assert_eq!(
                    node_bits(&NodeSet::extract(points, &config).unwrap()),
                    node_bits(&NodeSet::extract_on(points, &config, 1).unwrap()),
                    "{name} at {len} points"
                );
            }
        }
    }
}
