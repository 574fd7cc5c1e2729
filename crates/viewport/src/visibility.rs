//! Cell visibility maps with the three ViVo optimizations.
//!
//! A visibility map records which cells of the partitioned point cloud a
//! user needs for rendering their current viewport. ViVo's optimizations,
//! reproduced here:
//!
//! 1. **Viewport (frustum) culling** — only cells intersecting the user's
//!    view frustum are fetched.
//! 2. **Distance-based LOD** — cells far from the viewer can be fetched at
//!    reduced density; we expose a per-cell density factor.
//! 3. **Occlusion culling** — cells completely hidden behind dense closer
//!    cells are dropped, using a 3D-DDA walk through the cell grid; where the
//!    target's eye-side neighbours settle every walk, they decide instead.

use volcast_geom::{Aabb, CameraIntrinsics, Frustum, Pose, Vec3};
use volcast_pointcloud::{CellGrid, CellId, CellInfo};
use volcast_util::bitset::BitSet;
use volcast_util::obs;

/// The cells visible to one user at one frame, with per-cell fetch density
/// factors in `(0, 1]` — or, after [`merge`](Self::merge), to a group.
///
/// A map names cells by *rank*: the index of the cell in the frame's
/// id-sorted partition (`CellGrid::partition`, `VideoSequence::cell_counts`).
/// Maps compare, merge and price only against maps and sizes of the same
/// partition; ascending rank is ascending [`CellId`], the order every byte
/// total in the system is summed in.
#[derive(Debug, Default, PartialEq)]
pub struct VisibilityMap {
    /// Ranks of the visible cells; for a group, of the cells *every*
    /// member sees (the multicast payload).
    pub(crate) visible: BitSet,
    /// LOD density factor per partition rank (1.0 = full density), read
    /// only at visible ranks; for a group, the densest any member asks for.
    pub(crate) lods: Vec<f64>,
    /// Ranks of the cells *any* member sees: `visible` until maps merge.
    pub(crate) seen: BitSet,
}

impl Clone for VisibilityMap {
    fn clone(&self) -> Self {
        VisibilityMap {
            visible: self.visible.clone(),
            lods: self.lods.clone(),
            seen: self.seen.clone(),
        }
    }

    /// Copies `source` into this map's storage, allocating only where it
    /// is too short.
    fn clone_from(&mut self, source: &Self) {
        self.visible.clone_from(&source.visible);
        self.lods.clone_from(&source.lods);
        self.seen.clone_from(&source.seen);
    }
}

impl VisibilityMap {
    /// A map over a partition of `cells` cells that sees the given
    /// `(rank, lod)` pairs.
    pub fn from_ranks(cells: usize, visible: impl IntoIterator<Item = (usize, f64)>) -> Self {
        let mut map = VisibilityMap::default();
        map.refill(cells, visible);
        map
    }

    /// [`from_ranks`](Self::from_ranks) into this map's storage: it then
    /// ranks into a partition of `cells` cells, whatever it held before.
    /// Its storage is sized by `cells` alone, so refilling, copying or
    /// merging maps of a partition allocates nothing once one as long has
    /// been seen.
    pub fn refill(&mut self, cells: usize, visible: impl IntoIterator<Item = (usize, f64)>) {
        self.lods.clear();
        self.lods.resize(cells, 0.0);
        self.visible.clear_for(cells);
        for (rank, lod) in visible {
            self.lods[rank] = lod;
            self.visible.insert(rank);
        }
        self.seen.clone_from(&self.visible);
    }

    /// Length of the partition this map ranks into.
    pub fn cells(&self) -> usize {
        self.lods.len()
    }

    /// Number of visible cells.
    pub fn len(&self) -> usize {
        self.visible.count()
    }

    /// `true` when no cell is visible.
    pub fn is_empty(&self) -> bool {
        self.visible.is_empty()
    }

    /// The visible `(rank, lod)` pairs in ascending rank.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.visible.iter().map(|rank| (rank, self.lods[rank]))
    }

    /// Absorbs `other`'s viewers: what stays visible is what both see, at
    /// the denser of the two LOD factors — one multicast copy must satisfy
    /// the most demanding member.
    pub fn merge(&mut self, other: &VisibilityMap) {
        debug_assert_eq!(self.cells(), other.cells(), "maps of different partitions");
        self.visible.intersect_with(&other.visible);
        for (lod, &theirs) in self.lods.iter_mut().zip(&other.lods) {
            *lod = lod.max(theirs);
        }
        self.seen.union_with(&other.seen);
    }

    /// Bytes required to fetch this map's cells (the paper's `S_i`; for a
    /// group, `S_m`), given the partition's per-cell sizes. LOD factors
    /// scale each cell's cost.
    pub fn required_bytes(&self, sizes: &[f64]) -> f64 {
        self.shared_bytes(self, sizes)
    }

    /// [`required_bytes`](Self::required_bytes) of this map merged with
    /// `other`, without building the merge.
    pub fn shared_bytes(&self, other: &VisibilityMap, sizes: &[f64]) -> f64 {
        debug_assert_eq!(self.cells(), other.cells(), "maps of different partitions");
        self.visible
            .iter_masked(&other.visible)
            .map(|rank| sizes[rank] * self.lods[rank].max(other.lods[rank]))
            .sum()
    }
}

/// Which ViVo optimizations to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibilityOptions {
    /// Frustum culling.
    pub viewport: bool,
    /// Distance-based LOD.
    pub distance: bool,
    /// Occlusion culling.
    pub occlusion: bool,
    /// Camera intrinsics for the frustum.
    pub intrinsics: CameraIntrinsics,
    /// Distance (m) beyond which LOD reduction begins.
    pub lod_near: f64,
    /// Distance (m) at which LOD reaches its minimum factor.
    pub lod_far: f64,
    /// Minimum LOD density factor.
    pub lod_min: f64,
    /// A cell occludes if its point count is at least this many points.
    pub occluder_min_points: usize,
    /// Number of dense cells that must cover the path for occlusion.
    pub occluder_depth: usize,
}

impl Default for VisibilityOptions {
    fn default() -> Self {
        VisibilityOptions {
            viewport: true,
            distance: true,
            occlusion: true,
            intrinsics: CameraIntrinsics::default(),
            lod_near: 1.2,
            lod_far: 5.0,
            lod_min: 0.45,
            occluder_min_points: 60,
            occluder_depth: 1,
        }
    }
}

impl VisibilityOptions {
    /// The vanilla player: no optimization, fetch everything.
    pub fn vanilla() -> Self {
        VisibilityOptions {
            viewport: false,
            distance: false,
            occlusion: false,
            ..Default::default()
        }
    }

    /// Full ViVo-style optimization set.
    pub fn vivo() -> Self {
        Self::default()
    }
}

/// Computes visibility maps for users against a frame's cell partition.
#[derive(Debug, Clone)]
pub struct VisibilityComputer {
    /// Options in force.
    pub options: VisibilityOptions,
}

impl VisibilityComputer {
    /// Creates a computer with options.
    pub fn new(options: VisibilityOptions) -> Self {
        VisibilityComputer { options }
    }

    /// Computes the visibility map of `pose` over `partition` (cells of the
    /// current frame in `grid`, ascending by id): [`compute_into`] with an
    /// occluder index of its own.
    ///
    /// [`compute_into`]: Self::compute_into
    pub fn compute(&self, pose: &Pose, grid: &CellGrid, partition: &[CellInfo]) -> VisibilityMap {
        let mut occluders = Occluders::default();
        if self.options.occlusion {
            occluders.build(partition, self.options.occluder_min_points);
        }
        let mut map = VisibilityMap::default();
        self.compute_into(pose, grid, partition, &occluders, &mut map);
        map
    }

    /// Refills `map` with the visibility of `pose` over `partition`, reading
    /// occluders from `occluders`, which must have been built from this
    /// partition at this computer's `occluder_min_points`: one index serves
    /// every viewer of a frame.
    pub fn compute_into(
        &self,
        pose: &Pose,
        grid: &CellGrid,
        partition: &[CellInfo],
        occluders: &Occluders,
        map: &mut VisibilityMap,
    ) {
        let o = &self.options;
        debug_assert!(
            !o.occlusion || occluders.built_for == (partition.len(), o.occluder_min_points),
            "an occluder index of another partition or threshold"
        );
        let frustum = Frustum::from_pose(pose, &o.intrinsics);
        let eye = pose.position;
        let walk = (o.occlusion && !partition.is_empty()).then(|| OcclusionWalk {
            eye,
            eye_cell: grid.cell_of(eye),
            grid,
            partition,
            occluders,
            depth: o.occluder_depth,
        });

        let visible = partition.iter().enumerate().filter_map(|(rank, cell)| {
            let bounds = grid.cell_bounds(cell.id);
            if o.viewport && !frustum.intersects_aabb(&bounds) {
                return None;
            }
            if walk.as_ref().is_some_and(|w| w.occluded(cell.id, &bounds)) {
                return None;
            }
            let lod = if o.distance {
                self.lod_factor(eye.distance(bounds.center()))
            } else {
                1.0
            };
            Some((rank, lod))
        });
        map.refill(partition.len(), visible);
        if obs::enabled() && !partition.is_empty() {
            let visible = map.len();
            obs::inc("viewport.visibility.maps");
            obs::add("viewport.visibility.visible_cells", visible as u64);
            obs::add(
                "viewport.visibility.culled_cells",
                (partition.len() - visible) as u64,
            );
        }
    }

    /// Distance-based LOD factor in `[lod_min, 1]`.
    fn lod_factor(&self, distance: f64) -> f64 {
        let o = &self.options;
        if distance <= o.lod_near {
            1.0
        } else if distance >= o.lod_far {
            o.lod_min
        } else {
            let t = (distance - o.lod_near) / (o.lod_far - o.lod_near);
            1.0 + t * (o.lod_min - 1.0)
        }
    }
}

/// What every occlusion ray of one map shares: the eye, the cell it is in,
/// and the partition's occluding cells.
struct OcclusionWalk<'a> {
    eye: Vec3,
    eye_cell: CellId,
    grid: &'a CellGrid,
    partition: &'a [CellInfo],
    occluders: &'a Occluders,
    /// Dense cells that must cover the path.
    depth: usize,
}

/// The most DDA steps one occlusion walk takes: a walk that has neither
/// met its blockers nor reached its target by then reports the sample
/// visible, so no cell more than `WALK_CAP` steps from the eye occludes.
const WALK_CAP: usize = 4096;

/// The largest bit box [`Occluders::build`] allocates (512 KiB).
const MAX_BOX_BITS: u64 = 1 << 22;

/// A partition's occluding cells (at least `occluder_min_points` points),
/// looked up at every DDA step. Built once per partition and shared by
/// every map computed over it; rebuilding reuses the storage.
///
/// Occluders are one bit per cell of their id bounding box, `lo` its corner
/// and `dims` its extent per axis, x-major (no storage when nothing
/// occludes, where every `dims` is 0). Occluders whose box would exceed
/// 2²² bits (content strewn over a huge grid) are found by a
/// binary search of the id-sorted partition instead.
#[derive(Debug, Clone, Default)]
pub struct Occluders {
    /// `(partition length, occluder_min_points)` of the last build.
    built_for: (usize, usize),
    /// Whether the bit box holds them (else: search the partition).
    boxed: bool,
    lo: [i32; 3],
    dims: [u64; 3],
    bits: Vec<u64>,
}

impl Occluders {
    /// Indexes the cells of `partition` with at least `min_points` points.
    pub fn build(&mut self, partition: &[CellInfo], min_points: usize) {
        self.built_for = (partition.len(), min_points);
        let dense = || partition.iter().filter(|c| c.point_count >= min_points);
        let (mut lo, mut hi) = ([i32::MAX; 3], [i32::MIN; 3]);
        for c in dense() {
            for (a, v) in [c.id.x, c.id.y, c.id.z].into_iter().enumerate() {
                lo[a] = lo[a].min(v);
                hi[a] = hi[a].max(v);
            }
        }
        let dims: [u64; 3] =
            std::array::from_fn(|a| (hi[a] as i64 - lo[a] as i64 + 1).max(0) as u64);
        let volume = (dims.iter()).try_fold(1u64, |v, &d| v.checked_mul(d));
        self.bits.clear();
        let Some(volume) = volume.filter(|&v| v <= MAX_BOX_BITS) else {
            self.boxed = false;
            return;
        };
        (self.boxed, self.lo, self.dims) = (true, lo, dims);
        self.bits.resize(volume.div_ceil(64) as usize, 0);
        for c in dense() {
            let i = Self::index(lo, dims, [c.id.x, c.id.y, c.id.z])
                .expect("an occluder lies in its own box");
            self.bits[i / 64] |= 1 << (i % 64);
        }
    }

    /// Bit index of `cell` in the box, `None` outside it.
    fn index(lo: [i32; 3], dims: [u64; 3], cell: [i32; 3]) -> Option<usize> {
        let mut i = 0u64;
        for a in 0..3 {
            let off = cell[a] as i64 - lo[a] as i64;
            if off < 0 || off as u64 >= dims[a] {
                return None;
            }
            i = i * dims[a] + off as u64;
        }
        Some(i as usize)
    }

    /// Whether `cell` occludes; `partition` is the one the index was built
    /// from.
    fn contains(&self, partition: &[CellInfo], cell: [i32; 3]) -> bool {
        if self.boxed {
            let bit = Self::index(self.lo, self.dims, cell);
            return bit.is_some_and(|i| self.bits[i / 64] >> (i % 64) & 1 == 1);
        }
        let id = CellId::new(cell[0], cell[1], cell[2]);
        (partition.binary_search_by_key(&id, |c| c.id))
            .is_ok_and(|i| partition[i].point_count >= self.built_for.1)
    }
}

impl OcclusionWalk<'_> {
    /// Conservative occlusion test: the target cell is culled only when
    /// *every* sample point of the cell (center + corners pulled slightly
    /// inward) is hidden behind dense closer cells. Large cells whose
    /// corners peek around an occluder therefore stay visible, matching
    /// real renderers and the paper's observation that coarser cells show
    /// higher inter-user visibility overlap.
    fn occluded(&self, target: CellId, bounds: &Aabb) -> bool {
        self.certain(target)
            .unwrap_or_else(|| self.walked(target, bounds))
    }

    /// What every walk to `target` would say, where the cells decide it
    /// alone (`None`: walk). A walk starting in its target sees it. Any other
    /// steps one axis at a time, monotonically, from the eye's cell `e` toward
    /// its sample, which lies 5 % of a cell inside `t` (far beyond the walk's
    /// rounding, and its `EPS` for cells over 20 nm): so it moves only on axes
    /// where `e` and `t` differ, enters `t` from an eye-side neighbour
    /// `t − sign(t − e)·ê_a`, and checks that neighbour unless it is `e`. At
    /// depth ≤ 1 one occluding neighbour blocks; `|t − e|₁ ≤ WALK_CAP` lets
    /// the walk get there (and keeps its direction on those axes over 1e-12).
    fn certain(&self, target: CellId) -> Option<bool> {
        if target == self.eye_cell {
            return Some(false);
        }
        let e = [self.eye_cell.x, self.eye_cell.y, self.eye_cell.z];
        let t = [target.x, target.y, target.z];
        let steps: i64 = (0..3).map(|a| (t[a] as i64 - e[a] as i64).abs()).sum();
        if self.depth > 1 || steps > WALK_CAP as i64 {
            return None;
        }
        let hidden = (0..3).filter(|&a| t[a] != e[a]).all(|a| {
            let mut p = t;
            p[a] -= (t[a] - e[a]).signum();
            p != e && self.occluders.contains(self.partition, p)
        });
        hidden.then_some(true)
    }

    /// The walks themselves: one ray per sample, occluded when all are.
    fn walked(&self, target: CellId, bounds: &Aabb) -> bool {
        let center = bounds.center();
        let mut samples = [center; 9];
        for (i, corner) in bounds.corners().into_iter().enumerate() {
            // Pull corners 10% inward so samples stay inside this cell.
            samples[i + 1] = corner.lerp(center, 0.1);
        }
        samples.into_iter().all(|s| self.point_occluded(s, target))
    }

    /// Walks the grid cells along the ray from the viewer toward `point`
    /// (3D DDA); the point is occluded when at least `depth` dense cells
    /// lie strictly between the eye and the target cell.
    fn point_occluded(&self, point: Vec3, target: CellId) -> bool {
        let (eye, grid) = (self.eye, self.grid);
        // `Ray::between(eye, point)`, whose norm is the walk's length.
        let delta = point - eye;
        let total_dist = delta.norm();
        if total_dist < volcast_geom::EPS {
            return false;
        }
        let direction = delta / total_dist;

        // 3D DDA through the uniform grid.
        let mut cell = [self.eye_cell.x, self.eye_cell.y, self.eye_cell.z];
        let target = [target.x, target.y, target.z];
        let mut step = [-1i32; 3];
        let mut t_max = [f64::INFINITY; 3];
        let mut t_delta = [f64::INFINITY; 3];
        for a in 0..3 {
            let dir = direction[a];
            if dir > 0.0 {
                step[a] = 1;
            }
            if dir.abs() < 1e-12 {
                continue;
            }
            // The next cell boundary along this axis.
            let edge = if dir > 0.0 { cell[a] + 1 } else { cell[a] };
            t_max[a] = (grid.origin[a] + edge as f64 * grid.cell_size - eye[a]) / dir;
            t_delta[a] = grid.cell_size / dir.abs();
        }

        let mut blockers = 0usize;
        for _ in 0..WALK_CAP {
            if cell == target {
                return false;
            }
            // Advance to the next cell along the smallest t_max.
            let axis = if t_max[0] <= t_max[1] && t_max[0] <= t_max[2] {
                0
            } else if t_max[1] <= t_max[2] {
                1
            } else {
                2
            };
            if t_max[axis] > total_dist {
                // Walked past the target distance without reaching it
                // (numerical corner) -> treat as not occluded.
                return false;
            }
            cell[axis] += step[axis];
            t_max[axis] += t_delta[axis];
            if cell != target && self.occluders.contains(self.partition, cell) {
                blockers += 1;
                if blockers >= self.depth {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_pointcloud::{Point, PointCloud};

    /// A dense wall of points at z = wall_z spanning x,y in [-1, 1], plus a
    /// single cell behind it at the origin-ward side.
    fn wall_and_target(wall_z: f32, target_z: f32) -> (CellGrid, PointCloud) {
        let mut pts = Vec::new();
        let mut x = -1.0f32;
        while x < 1.0 {
            let mut y = 0.0f32;
            while y < 2.0 {
                for _ in 0..2 {
                    pts.push(Point::new([x, y, wall_z], [255, 255, 255]));
                }
                // 100 pts per 0.5 m cell => dense.
                y += 0.02;
            }
            x += 0.02;
        }
        // Target points behind the wall.
        for i in 0..200 {
            pts.push(Point::new(
                [
                    ((i % 10) as f32) * 0.04 - 0.2,
                    1.0 + (i / 10) as f32 * 0.02,
                    target_z,
                ],
                [255, 0, 0],
            ));
        }
        (CellGrid::new(0.5), PointCloud::from_points(pts))
    }

    fn rank_of(partition: &[CellInfo], id: CellId) -> usize {
        partition.binary_search_by_key(&id, |c| c.id).unwrap()
    }

    fn viewer_at(z: f64) -> Pose {
        Pose::looking_at(Vec3::new(0.0, 1.2, z), Vec3::new(0.0, 1.2, 0.0))
    }

    #[test]
    fn vanilla_sees_everything() {
        let (grid, cloud) = wall_and_target(-1.0, -3.0);
        let partition = grid.partition(&cloud);
        let vc = VisibilityComputer::new(VisibilityOptions::vanilla());
        let map = vc.compute(&viewer_at(3.0), &grid, &partition);
        assert_eq!(map.len(), partition.len());
        // All LODs are 1 with distance off.
        assert!(map.iter().all(|(_, lod)| lod == 1.0));
    }

    #[test]
    fn frustum_culling_drops_behind_viewer() {
        let (grid, cloud) = wall_and_target(-1.0, -3.0);
        let partition = grid.partition(&cloud);
        let vc = VisibilityComputer::new(VisibilityOptions {
            occlusion: false,
            distance: false,
            ..VisibilityOptions::default()
        });
        // Viewer BETWEEN wall and target looking away from both, toward +z.
        let pose = Pose::looking_at(Vec3::new(0.0, 1.2, 5.0), Vec3::new(0.0, 1.2, 10.0));
        let map = vc.compute(&pose, &grid, &partition);
        assert!(map.is_empty(), "cells behind the viewer must be culled");
    }

    #[test]
    fn occlusion_hides_cells_behind_dense_wall() {
        let (grid, cloud) = wall_and_target(-1.0, -3.0);
        let partition = grid.partition(&cloud);
        let with_occ = VisibilityComputer::new(VisibilityOptions {
            distance: false,
            occluder_depth: 1,
            ..VisibilityOptions::default()
        });
        let without_occ = VisibilityComputer::new(VisibilityOptions {
            distance: false,
            occlusion: false,
            ..VisibilityOptions::default()
        });
        let viewer = viewer_at(3.0);
        let m_with = with_occ.compute(&viewer, &grid, &partition);
        let m_without = without_occ.compute(&viewer, &grid, &partition);
        assert!(
            m_with.len() < m_without.len(),
            "occlusion must remove cells: {} vs {}",
            m_with.len(),
            m_without.len()
        );
        // Specifically, target cells at z=-3 should be gone.
        let target = rank_of(&partition, grid.cell_of(Vec3::new(0.0, 1.2, -3.0)));
        assert!(m_without.iter().any(|(rank, _)| rank == target));
        assert!(!m_with.iter().any(|(rank, _)| rank == target));
    }

    #[test]
    fn distance_lod_reduces_far_cells() {
        let (grid, cloud) = wall_and_target(-1.0, -3.0);
        let partition = grid.partition(&cloud);
        let vc = VisibilityComputer::new(VisibilityOptions {
            occlusion: false,
            lod_near: 1.0,
            lod_far: 5.0,
            ..VisibilityOptions::default()
        });
        // Viewer 3 m in front of wall: wall ~4 m away => LOD < 1.
        let map = vc.compute(&viewer_at(3.0), &grid, &partition);
        let wall = rank_of(&partition, grid.cell_of(Vec3::new(0.0, 1.2, -1.0)));
        let (_, lod) = map.iter().find(|&(rank, _)| rank == wall).unwrap();
        assert!((0.35..1.0).contains(&lod), "lod {lod}");
    }

    #[test]
    fn lod_factor_shape() {
        let vc = VisibilityComputer::new(VisibilityOptions::default());
        assert_eq!(vc.lod_factor(0.5), 1.0);
        assert_eq!(vc.lod_factor(1.2), 1.0);
        assert_eq!(vc.lod_factor(5.0), vc.options.lod_min);
        assert_eq!(vc.lod_factor(20.0), vc.options.lod_min);
        let mid = vc.lod_factor(3.0);
        assert!(mid < 1.0 && mid > vc.options.lod_min);
    }

    #[test]
    fn required_bytes_scales_with_visibility() {
        let (grid, cloud) = wall_and_target(-1.0, -3.0);
        let partition = grid.partition(&cloud);
        let sizes: Vec<f64> = partition
            .iter()
            .map(|c| c.point_count as f64 * 3.0)
            .collect();
        let full: f64 = sizes.iter().sum();
        let vanilla = VisibilityComputer::new(VisibilityOptions::vanilla()).compute(
            &viewer_at(3.0),
            &grid,
            &partition,
        );
        assert!((vanilla.required_bytes(&sizes) - full).abs() < 1e-9);
        let vivo = VisibilityComputer::new(VisibilityOptions::vivo()).compute(
            &viewer_at(3.0),
            &grid,
            &partition,
        );
        assert!(vivo.required_bytes(&sizes) < full);
    }

    #[test]
    fn required_bytes_sums_the_visible_cells_in_rank_order() {
        // The huge middle term makes the total depend on summation order.
        let sizes = [0.1, 0.7, 1.9, 1e9, 3.3];
        let map = VisibilityMap::from_ranks(5, [(1, 0.3), (3, 0.7), (4, 1.0)]);
        assert_eq!(map.required_bytes(&sizes), 0.7 * 0.3 + 1e9 * 0.7 + 3.3);
        // Against another map: the cells both see, at the denser LOD.
        let other = VisibilityMap::from_ranks(5, [(0, 1.0), (1, 0.5), (4, 0.2)]);
        assert_eq!(map.shared_bytes(&other, &sizes), 0.7 * 0.5 + 3.3);
        assert_eq!(other.shared_bytes(&map, &sizes), 0.7 * 0.5 + 3.3);
    }

    #[test]
    fn empty_partition_yields_empty_map() {
        let grid = CellGrid::new(0.5);
        let vc = VisibilityComputer::new(VisibilityOptions::default());
        let map = vc.compute(&viewer_at(2.0), &grid, &[]);
        assert!(map.is_empty());
        assert_eq!(map.cells(), 0);
        assert_eq!(map.required_bytes(&[]), 0.0);
    }

    /// The bit box answers what the partition says, over its whole id box
    /// and a margin around it, negative ids included; occluders too strewn
    /// for a box are searched in the partition instead, and a partition
    /// with none gets an empty box that allocated nothing. One index is
    /// rebuilt across all three partitions in turn.
    #[test]
    fn occluders_answer_what_the_partition_says() {
        let cell = |x, y, z, point_count| CellInfo {
            id: CellId::new(x, y, z),
            point_count,
        };
        let near = [
            cell(-3, 0, 2, 80),
            cell(-3, 1, -1, 10),
            cell(-2, 0, 2, 60),
            cell(0, 2, -2, 61),
        ];
        let far = [
            cell(-3, 0, 2, 80),
            cell(0, 1, 0, 7),
            cell(2_000_000, 0, 0, 90),
        ];
        let mut reused = Occluders::default();
        for (partition, boxed) in [(&near[..], true), (&far[..], false), (&near[..], true)] {
            reused.build(partition, 60);
            let mut fresh = Occluders::default();
            fresh.build(partition, 60);
            for dense in [&fresh, &reused] {
                assert_eq!(dense.boxed, boxed);
                for x in -5..3 {
                    for y in -2..4 {
                        for z in -4..4 {
                            let id = CellId::new(x, y, z);
                            let want = partition.iter().any(|c| c.id == id && c.point_count >= 60);
                            assert_eq!(dense.contains(partition, [x, y, z]), want, "{id:?}");
                        }
                    }
                }
                assert_eq!(dense.contains(partition, [2_000_000, 0, 0]), !boxed);
                assert!(!dense.contains(partition, [i32::MIN, i32::MAX, 0]));
            }
        }
        let mut empty = Occluders::default();
        empty.build(&near, 1000);
        assert!(empty.boxed, "nothing occludes: an empty box");
        assert_eq!((empty.dims, empty.bits.capacity()), ([0; 3], 0));
    }

    /// Cells of one point each (every one an occluder at threshold 1).
    fn cells_at(ids: &[[i32; 3]]) -> Vec<CellInfo> {
        let mut cells: Vec<_> = (ids.iter())
            .map(|&[x, y, z]| CellInfo {
                id: CellId::new(x, y, z),
                point_count: 1,
            })
            .collect();
        cells.sort_by_key(|c| c.id);
        cells
    }

    /// The map `compute_into` gives an eye at `eye` (no viewport or distance
    /// culling, occluders of one point), which must equal the map its walks
    /// alone give, and the certificate's answer per rank.
    fn certified(
        eye: Vec3,
        grid: &CellGrid,
        partition: &[CellInfo],
        depth: usize,
    ) -> (VisibilityMap, Vec<Option<bool>>) {
        let options = VisibilityOptions {
            viewport: false,
            distance: false,
            occluder_min_points: 1,
            occluder_depth: depth,
            ..VisibilityOptions::default()
        };
        let mut occluders = Occluders::default();
        occluders.build(partition, 1);
        let mut map = VisibilityMap::default();
        let pose = Pose::looking_at(eye, eye + Vec3::X);
        let computer = VisibilityComputer::new(options);
        computer.compute_into(&pose, grid, partition, &occluders, &mut map);
        let walk = OcclusionWalk {
            eye,
            eye_cell: grid.cell_of(eye),
            grid,
            partition,
            occluders: &occluders,
            depth,
        };
        let walked = (partition.iter().enumerate())
            .filter(|(_, c)| !walk.walked(c.id, &grid.cell_bounds(c.id)))
            .map(|(rank, _)| (rank, 1.0));
        assert_eq!(map, VisibilityMap::from_ranks(partition.len(), walked));
        (map, partition.iter().map(|c| walk.certain(c.id)).collect())
    }

    fn sees(map: &VisibilityMap, partition: &[CellInfo], id: [i32; 3]) -> bool {
        let rank = rank_of(partition, CellId::new(id[0], id[1], id[2]));
        map.iter().any(|(r, _)| r == rank)
    }

    /// An eye inside a dense cell walled in by dense cells sees that cell
    /// at any depth; at depth 1 the cells decide every cell not face-adjacent.
    #[test]
    fn an_eye_sees_its_own_cell_through_any_wall() {
        let grid = CellGrid::new(1.0);
        let mut ids = Vec::new();
        for x in -1..=1 {
            for y in -1..=1 {
                ids.extend((-1..=1).map(|z| [x, y, z]));
            }
        }
        let partition = cells_at(&ids);
        let own = rank_of(&partition, CellId::new(0, 0, 0));
        for depth in [1, 2] {
            let (map, certain) = certified(Vec3::splat(0.5), &grid, &partition, depth);
            assert_eq!(certain[own], Some(false));
            assert!(sees(&map, &partition, [0, 0, 0]));
            let decided = certain.iter().filter(|c| **c == Some(true)).count();
            assert_eq!(decided, [20, 0][depth - 1], "depth {depth}");
        }
    }

    /// The eye's own dense cell hides nothing: no walk enters it, so a
    /// face-adjacent target is left to the walks, which see it.
    #[test]
    fn the_eyes_own_cell_hides_nothing() {
        let grid = CellGrid::new(1.0);
        let partition = cells_at(&[[0, 0, 0], [1, 0, 0], [2, 0, 0]]);
        let (map, certain) = certified(Vec3::splat(0.5), &grid, &partition, 1);
        assert_eq!(certain, [Some(false), None, Some(true)]);
        assert!(sees(&map, &partition, [1, 0, 0]));
        assert!(!sees(&map, &partition, [2, 0, 0]));
    }

    /// At depth 2 one dense neighbour is not enough: the walks decide.
    #[test]
    fn deeper_occlusion_is_left_to_the_walks() {
        let grid = CellGrid::new(1.0);
        let partition = cells_at(&[[1, 0, 0], [2, 0, 0], [3, 0, 0]]);
        let (map, certain) = certified(Vec3::splat(0.5), &grid, &partition, 2);
        assert_eq!(certain, [None; 3]);
        assert!(sees(&map, &partition, [2, 0, 0]));
        assert!(!sees(&map, &partition, [3, 0, 0]));
    }

    /// A target whose eye-side neighbours all occlude is hidden without a
    /// walk; one with dense cells only on its far side is walked, and seen.
    #[test]
    fn dense_eye_side_neighbours_hide_a_cell() {
        let grid = CellGrid::new(1.0);
        let partition = cells_at(&[
            [1, 2, 0],
            [2, 1, 0],
            [2, 2, 0],
            [-2, 2, 0],
            [-3, 2, 0],
            [-2, 3, 0],
        ]);
        let (map, certain) = certified(Vec3::splat(0.5), &grid, &partition, 1);
        let at = |x, y| rank_of(&partition, CellId::new(x, y, 0));
        assert_eq!((certain[at(2, 2)], certain[at(-2, 2)]), (Some(true), None));
        assert!(!sees(&map, &partition, [2, 2, 0]));
        assert!(sees(&map, &partition, [-2, 2, 0]));
    }

    /// Metres of millimetre cells straddling the walk cap, one dense cell
    /// before the target on the line of sight: within the cap the cells
    /// hide the target, one step past it only the walk still reaches that
    /// cell, and two past it the walk gives up and the target stays visible.
    #[test]
    fn past_the_walk_cap_the_cells_defer_and_the_target_stays_visible() {
        let grid = CellGrid::new(0.001);
        for (past, certain, seen) in [(0, Some(true), false), (1, None, false), (2, None, true)] {
            let x = WALK_CAP as i32 + past;
            let partition = cells_at(&[[x - 1, 0, 0], [x, 0, 0]]);
            let (map, said) = certified(Vec3::splat(0.0005), &grid, &partition, 1);
            assert_eq!(said[1], certain, "{past} steps past the cap");
            assert_eq!(sees(&map, &partition, [x, 0, 0]), seen, "{past} past");
        }
    }

    #[test]
    fn map_queries() {
        let m = VisibilityMap::from_ranks(70, [(0, 1.0), (65, 0.5)]);
        assert_eq!((m.cells(), m.len()), (70, 2));
        assert_eq!(m.iter().collect::<Vec<_>>(), [(0, 1.0), (65, 0.5)]);
    }
}
