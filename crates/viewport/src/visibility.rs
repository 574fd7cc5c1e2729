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
//!    cells are dropped, using a 3D-DDA walk through the cell grid.

use std::collections::{BTreeMap, BTreeSet};
use volcast_geom::{CameraIntrinsics, Frustum, Pose, Ray, Vec3};
use volcast_pointcloud::{CellGrid, CellId, CellInfo};
use volcast_util::obs;

/// The set of cells visible to one user at one frame, with per-cell fetch
/// density factors in `(0, 1]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VisibilityMap {
    /// Visible cells mapped to their LOD density factor (1.0 = full
    /// density). Deterministically ordered.
    pub cells: BTreeMap<CellId, f64>,
}

impl VisibilityMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of visible cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no cell is visible.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// `true` when `id` is visible.
    pub fn contains(&self, id: CellId) -> bool {
        self.cells.contains_key(&id)
    }

    /// The visible cell ids as a set.
    pub fn id_set(&self) -> BTreeSet<CellId> {
        self.cells.keys().copied().collect()
    }

    /// Bytes required to fetch this map's cells (the paper's `S_i`), given
    /// the id-sorted partition's per-cell sizes (`sizes[i]` corresponds to
    /// `partition[i]`). LOD factors scale each cell's cost.
    pub fn required_bytes(&self, partition: &[CellInfo], sizes: &[f64]) -> f64 {
        priced_bytes(
            partition,
            sizes,
            self.cells.iter().map(|(&id, &lod)| (id, lod)),
        )
    }
}

/// Sums `size × lod` over the cells of `lods` that `partition` lists. Both
/// sequences ascend by [`CellId`] (a partition is built that way, a map is
/// a `BTreeMap`), so one merge pass visits their intersection in ascending
/// id order — the order every byte total in the system is summed in.
pub(crate) fn priced_bytes(
    partition: &[CellInfo],
    sizes: &[f64],
    lods: impl Iterator<Item = (CellId, f64)>,
) -> f64 {
    debug_assert!(partition.windows(2).all(|w| w[0].id < w[1].id));
    let mut cells = partition.iter().zip(sizes).peekable();
    lods.filter_map(|(id, lod)| {
        while cells.next_if(|(c, _)| c.id < id).is_some() {}
        cells.next_if(|(c, _)| c.id == id).map(|(_, &s)| s * lod)
    })
    .sum()
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
    /// current frame in `grid`).
    pub fn compute(&self, pose: &Pose, grid: &CellGrid, partition: &[CellInfo]) -> VisibilityMap {
        let mut map = VisibilityMap::new();
        if partition.is_empty() {
            return map;
        }
        let frustum = Frustum::from_pose(pose, &self.options.intrinsics);
        // Index occupied dense cells for the occlusion walk.
        let dense: BTreeSet<CellId> = if self.options.occlusion {
            partition
                .iter()
                .filter(|c| c.point_count >= self.options.occluder_min_points)
                .map(|c| c.id)
                .collect()
        } else {
            BTreeSet::new()
        };

        for cell in partition {
            let bounds = grid.cell_bounds(cell.id);
            if self.options.viewport && !frustum.intersects_aabb(&bounds) {
                continue;
            }
            if self.options.occlusion && self.occluded(pose.position, cell.id, grid, &dense) {
                continue;
            }
            let lod = if self.options.distance {
                self.lod_factor(pose.position.distance(bounds.center()))
            } else {
                1.0
            };
            map.cells.insert(cell.id, lod);
        }
        if obs::enabled() {
            // Recorded per compute call — often inside a par worker, where
            // the per-thread sink merges back at the region's join.
            obs::inc("viewport.visibility.maps");
            obs::add("viewport.visibility.visible_cells", map.len() as u64);
            obs::add(
                "viewport.visibility.culled_cells",
                (partition.len() - map.len()) as u64,
            );
        }
        map
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

    /// Conservative occlusion test: the target cell is culled only when
    /// *every* sample point of the cell (center + corners pulled slightly
    /// inward) is hidden behind dense closer cells. Large cells whose
    /// corners peek around an occluder therefore stay visible, matching
    /// real renderers and the paper's observation that coarser cells show
    /// higher inter-user visibility overlap.
    fn occluded(
        &self,
        eye: Vec3,
        target: CellId,
        grid: &CellGrid,
        dense: &BTreeSet<CellId>,
    ) -> bool {
        let bounds = grid.cell_bounds(target);
        let center = bounds.center();
        let mut samples = [center; 9];
        for (i, corner) in bounds.corners().into_iter().enumerate() {
            // Pull corners 10% inward so samples stay inside this cell.
            samples[i + 1] = corner.lerp(center, 0.1);
        }
        samples
            .into_iter()
            .all(|s| self.point_occluded(eye, s, target, grid, dense))
    }

    /// Walks the grid cells along the ray from the viewer toward `point`
    /// (3D DDA); the point is occluded when at least `occluder_depth` dense
    /// cells lie strictly between the eye and the target cell.
    fn point_occluded(
        &self,
        eye: Vec3,
        target_point: Vec3,
        target: CellId,
        grid: &CellGrid,
        dense: &BTreeSet<CellId>,
    ) -> bool {
        let Some(ray) = Ray::between(eye, target_point) else {
            return false;
        };
        let total_dist = eye.distance(target_point);

        // 3D DDA through the uniform grid.
        let mut cell = grid.cell_of(eye);
        let step = [
            if ray.direction.x > 0.0 { 1i32 } else { -1 },
            if ray.direction.y > 0.0 { 1 } else { -1 },
            if ray.direction.z > 0.0 { 1 } else { -1 },
        ];
        let next_boundary = |c: i32, s: i32, axis: usize| -> f64 {
            let edge = if s > 0 { c + 1 } else { c };
            grid.origin[axis] + edge as f64 * grid.cell_size
        };
        let mut t_max = [0.0f64; 3];
        let mut t_delta = [f64::INFINITY; 3];
        let eye_arr = [eye.x, eye.y, eye.z];
        let dir_arr = [ray.direction.x, ray.direction.y, ray.direction.z];
        let cell_arr = [cell.x, cell.y, cell.z];
        for a in 0..3 {
            if dir_arr[a].abs() < 1e-12 {
                t_max[a] = f64::INFINITY;
            } else {
                t_max[a] = (next_boundary(cell_arr[a], step[a], a) - eye_arr[a]) / dir_arr[a];
                t_delta[a] = grid.cell_size / dir_arr[a].abs();
            }
        }

        let mut blockers = 0usize;
        // Cap iterations defensively (room-scale grids are small).
        for _ in 0..4096 {
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
            match axis {
                0 => cell.x += step[0],
                1 => cell.y += step[1],
                _ => cell.z += step[2],
            }
            t_max[axis] += t_delta[axis];
            if cell != target && dense.contains(&cell) {
                blockers += 1;
                if blockers >= self.options.occluder_depth {
                    return true;
                }
            }
        }
        false
    }
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_struct!(VisibilityMap { cells });
volcast_util::impl_json_struct!(VisibilityOptions {
    viewport,
    distance,
    occlusion,
    intrinsics,
    lod_near,
    lod_far,
    lod_min,
    occluder_min_points,
    occluder_depth
});

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
        assert!(map.cells.values().all(|&l| l == 1.0));
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
        let target_cell = grid.cell_of(Vec3::new(0.0, 1.2, -3.0));
        assert!(m_without.contains(target_cell));
        assert!(!m_with.contains(target_cell));
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
        let wall_cell = grid.cell_of(Vec3::new(0.0, 1.2, -1.0));
        let lod = map.cells.get(&wall_cell).copied().unwrap();
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
        assert!((vanilla.required_bytes(&partition, &sizes) - full).abs() < 1e-9);
        let vivo = VisibilityComputer::new(VisibilityOptions::vivo()).compute(
            &viewer_at(3.0),
            &grid,
            &partition,
        );
        assert!(vivo.required_bytes(&partition, &sizes) < full);
    }

    #[test]
    fn required_bytes_sums_the_listed_visible_cells_in_id_order() {
        let cell = |x, point_count| CellInfo {
            id: CellId::new(x, 0, 0),
            point_count,
        };
        // The map sees cells 1, 3, 4 and 9; the partition lists 0, 1, 2, 4
        // and 7: they share 1 and 4, with strays on both sides of each.
        let partition = [cell(0, 1), cell(1, 2), cell(2, 3), cell(4, 4), cell(7, 5)];
        let sizes = [0.1, 0.7, 1.9, 1e9, 3.3];
        let mut map = VisibilityMap::new();
        for (x, lod) in [(1, 0.3), (3, 1.0), (4, 0.7), (9, 1.0)] {
            map.cells.insert(CellId::new(x, 0, 0), lod);
        }
        // Bit-exact, in ascending id order: the naive scan of the partition.
        let scan: f64 = partition
            .iter()
            .zip(&sizes)
            .filter_map(|(c, &s)| map.cells.get(&c.id).map(|lod| s * lod))
            .sum();
        assert_eq!(map.required_bytes(&partition, &sizes), scan);
        assert_eq!(scan, 0.7 * 0.3 + 1e9 * 0.7);
    }

    #[test]
    fn empty_partition_yields_empty_map() {
        let grid = CellGrid::new(0.5);
        let vc = VisibilityComputer::new(VisibilityOptions::default());
        let map = vc.compute(&viewer_at(2.0), &grid, &[]);
        assert!(map.is_empty());
        assert_eq!(map.required_bytes(&[], &[]), 0.0);
    }

    #[test]
    fn map_set_operations() {
        let mut m = VisibilityMap::new();
        m.cells.insert(CellId::new(0, 0, 0), 1.0);
        m.cells.insert(CellId::new(1, 0, 0), 0.5);
        assert_eq!(m.len(), 2);
        assert!(m.contains(CellId::new(0, 0, 0)));
        assert!(!m.contains(CellId::new(9, 9, 9)));
        assert_eq!(m.id_set().len(), 2);
    }
}
