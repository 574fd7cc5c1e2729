//! Referee for the rank-based visibility map: over random poses, devices,
//! cell sizes, grid origins and option sets, [`VisibilityComputer`] and the
//! similarity functions must reproduce — same visible cells, same bits in
//! every LOD, IoU and byte total — what the pre-rank implementation says.
//! Every case refills the same three maps against the same occluder index,
//! across partitions of different lengths: what a refill leaves of the last
//! partition fails against a fresh map.

use volcast_geom::{Pose, Vec3};
use volcast_pointcloud::{CellGrid, SyntheticBody};
use volcast_util::prop::run_cases_n;
use volcast_util::rng::Rng;
use volcast_viewport::{
    group_iou, iou, overlap_bytes, DeviceClass, Occluders, VisibilityComputer, VisibilityMap,
    VisibilityOptions,
};

/// The map, the visibility pass and the similarity functions as they stood
/// before maps became ranks (PR 15), verbatim but for the `obs` counters and
/// the JSON impl: a `BTreeMap` keyed by cell id, a `BTreeSet` of dense
/// cells, a k-way merge for IoU and id-merges against the partition for
/// bytes. Slow and obvious; the rank map must agree with it bit for bit.
mod reference {
    use std::collections::{BTreeMap, BTreeSet};
    use volcast_geom::{Frustum, Pose, Ray, Vec3};
    use volcast_pointcloud::{CellGrid, CellId, CellInfo};
    use volcast_viewport::VisibilityOptions;

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
    pub fn priced_bytes(
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
        pub fn compute(
            &self,
            pose: &Pose,
            grid: &CellGrid,
            partition: &[CellInfo],
        ) -> VisibilityMap {
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

    /// IoU across a whole group: `|intersection| / |union|` of all maps.
    ///
    /// An empty group or a group of all-empty maps yields 1.0.
    ///
    /// Counts by a k-way merge over the maps' (already sorted) cell keys —
    /// no per-map set allocations, which matters in the pairwise sweeps of
    /// fig2a/fig2b and the grouping planner's candidate scoring.
    pub fn group_iou(maps: &[&VisibilityMap]) -> f64 {
        if maps.is_empty() {
            return 1.0;
        }
        let mut iters: Vec<_> = maps.iter().map(|m| m.cells.keys().peekable()).collect();
        let mut inter = 0usize;
        let mut union = 0usize;
        loop {
            let mut min: Option<CellId> = None;
            for it in iters.iter_mut() {
                if let Some(&&k) = it.peek() {
                    min = Some(match min {
                        Some(m) if m <= k => m,
                        _ => k,
                    });
                }
            }
            let Some(min) = min else { break };
            let mut holders = 0usize;
            for it in iters.iter_mut() {
                if it.peek() == Some(&&min) {
                    it.next();
                    holders += 1;
                }
            }
            union += 1;
            if holders == maps.len() {
                inter += 1;
            }
        }
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// The cells needed by *every* user of the group (the multicast payload).
    pub fn intersection_cells(maps: &[&VisibilityMap]) -> BTreeSet<CellId> {
        let Some((first, rest)) = maps.split_first() else {
            return BTreeSet::new();
        };
        first
            .cells
            .keys()
            .filter(|id| rest.iter().all(|m| m.cells.contains_key(id)))
            .copied()
            .collect()
    }

    /// Size in bytes of the overlapped cells of a group (the paper's `S^m_k`),
    /// given the frame partition and per-cell sizes.
    ///
    /// A cell's multicast cost uses the *maximum* LOD factor any group member
    /// requests, since the multicast copy must satisfy the most demanding user.
    pub fn overlap_bytes(maps: &[&VisibilityMap], partition: &[CellInfo], sizes: &[f64]) -> f64 {
        let max_lods = intersection_cells(maps).into_iter().map(|id| {
            let lod = maps
                .iter()
                .filter_map(|m| m.cells.get(&id))
                .fold(0.0f64, |acc, &l| acc.max(l));
            (id, lod)
        });
        priced_bytes(partition, sizes, max_lods)
    }
}

/// A viewer somewhere in the room — one in four inside the body's box,
/// among its dense cells — looking at (or near) the body.
fn arb_pose(rng: &mut Rng) -> Pose {
    let eye = if rng.gen_bool(0.25) {
        Vec3::new(
            rng.gen_range(-0.4..0.4),
            rng.gen_range(0.5..1.6),
            rng.gen_range(-0.4..0.4),
        )
    } else {
        Vec3::new(
            rng.gen_range(-3.0..3.0),
            rng.gen_range(0.4..2.2),
            rng.gen_range(-3.0..3.0),
        )
    };
    let target = Vec3::new(
        rng.gen_range(-0.8..0.8),
        rng.gen_range(0.2..1.8),
        rng.gen_range(-0.8..0.8),
    );
    Pose::looking_at(eye, target)
}

#[test]
fn rank_maps_equal_reference_maps() {
    let body = SyntheticBody::default();
    let mut occluders = Occluders::default();
    let mut ranked: [VisibilityMap; 3] = Default::default();
    run_cases_n("rank_maps_equal_reference_maps", 192, |rng| {
        let case = rng.gen_range(0..usize::MAX);
        let cell_size = [0.25, 0.5, 1.0][case % 3];
        // The last origin puts every cell of the body at negative ids.
        let grid = match rng.gen_range(0..3u32) {
            0 => CellGrid::new(cell_size),
            1 => CellGrid::with_origin(cell_size, Vec3::new(0.13, -0.31, 0.07)),
            _ => CellGrid::with_origin(cell_size, Vec3::new(4.3, 2.9, 3.7)),
        };
        let options = VisibilityOptions {
            viewport: case / 6 % 2 == 0,
            distance: case / 12 % 2 == 0,
            occlusion: case / 24 % 2 == 0,
            intrinsics: [DeviceClass::Phone, DeviceClass::Headset][case / 48 % 2].intrinsics(),
            // The default threshold, one every cell of the body passes and
            // one none does.
            occluder_min_points: [60, 3, usize::MAX][rng.gen_range(0..3usize)],
            occluder_depth: 1 + case / 192 % 2,
            ..VisibilityOptions::default()
        };
        // One case in eight has no content at all.
        let partition = if case / 384 % 8 == 0 {
            Vec::new()
        } else {
            let cloud = body.frame(rng.gen_range(0..300u64), rng.gen_range(500..6_000usize));
            grid.partition(&cloud)
        };
        let sizes: Vec<f64> = partition
            .iter()
            .map(|c| c.point_count as f64 * 2.1)
            .collect();

        let poses = [arb_pose(rng), arb_pose(rng), arb_pose(rng)];
        let computer = VisibilityComputer::new(options);
        occluders.build(&partition, options.occluder_min_points);
        for (map, pose) in ranked.iter_mut().zip(&poses) {
            computer.compute_into(pose, &grid, &partition, &occluders, map);
            assert_eq!(*map, computer.compute(pose, &grid, &partition));
        }
        let refs = poses
            .map(|p| reference::VisibilityComputer::new(options).compute(&p, &grid, &partition));

        for (map, expect) in ranked.iter().zip(&refs) {
            assert_eq!(map.cells(), partition.len());
            let seen: Vec<_> = map
                .iter()
                .map(|(rank, lod)| (partition[rank].id, lod.to_bits()))
                .collect();
            let expect_seen: Vec<_> = (expect.cells.iter())
                .map(|(&id, lod)| (id, lod.to_bits()))
                .collect();
            assert_eq!(seen, expect_seen);
            assert_eq!(
                map.required_bytes(&sizes).to_bits(),
                expect.required_bytes(&partition, &sizes).to_bits()
            );
        }
        assert_eq!(
            iou(&ranked[0], &ranked[1]),
            reference::group_iou(&[&refs[0], &refs[1]])
        );
        for k in 0..=3 {
            let group: Vec<_> = ranked[..k].iter().collect();
            let expect: Vec<_> = refs[..k].iter().collect();
            assert_eq!(group_iou(&group), reference::group_iou(&expect));
            assert_eq!(
                overlap_bytes(&group, &sizes).to_bits(),
                reference::overlap_bytes(&expect, &partition, &sizes).to_bits()
            );
        }
    });
}
