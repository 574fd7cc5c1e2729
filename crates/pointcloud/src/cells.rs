//! Spatial cell partitioning.
//!
//! ViVo-style systems split the point cloud into axis-aligned cubic cells
//! (the paper uses 25/50/100 cm cells); each cell is independently
//! prefetchable and decodable, and visibility is decided per cell. The cell
//! grid is also the unit over which inter-user viewport similarity (IoU of
//! visibility maps) is computed.

use crate::point::{PointCloud, SoAPoints};
use std::collections::BTreeMap;
use volcast_geom::{Aabb, Vec3};

/// Identifier of a cell: integer grid coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId {
    /// Grid x index.
    pub x: i32,
    /// Grid y index.
    pub y: i32,
    /// Grid z index.
    pub z: i32,
}

impl CellId {
    /// Creates a cell id.
    pub fn new(x: i32, y: i32, z: i32) -> Self {
        CellId { x, y, z }
    }
}

/// Per-cell statistics from a partition.
#[derive(Debug, Clone, PartialEq)]
pub struct CellInfo {
    /// Cell id.
    pub id: CellId,
    /// Number of points that fell in this cell.
    pub point_count: usize,
    /// Indices into the source cloud's point array.
    pub point_indices: Vec<u32>,
}

/// A uniform cubic grid anchored at `origin` with `cell_size`-meter cells.
///
/// The grid is unbounded: cells exist wherever points fall. Cell `(i,j,k)`
/// covers `[origin + i*s, origin + (i+1)*s)` per axis.
#[derive(Debug, Clone, PartialEq)]
pub struct CellGrid {
    /// Grid anchor (world coordinates of cell (0,0,0)'s min corner).
    pub origin: Vec3,
    /// Cell edge length in meters (the paper: 0.25, 0.5, or 1.0).
    pub cell_size: f64,
}

impl CellGrid {
    /// Creates a grid with the given cell size anchored at the origin.
    pub fn new(cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        CellGrid {
            origin: Vec3::ZERO,
            cell_size,
        }
    }

    /// Creates a grid anchored at `origin`.
    pub fn with_origin(cell_size: f64, origin: Vec3) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        CellGrid { origin, cell_size }
    }

    /// The cell containing a world-space point.
    pub fn cell_of(&self, p: Vec3) -> CellId {
        let rel = (p - self.origin) / self.cell_size;
        CellId::new(
            rel.x.floor() as i32,
            rel.y.floor() as i32,
            rel.z.floor() as i32,
        )
    }

    /// World-space bounds of a cell.
    pub fn cell_bounds(&self, id: CellId) -> Aabb {
        let min = self.origin + Vec3::new(id.x as f64, id.y as f64, id.z as f64) * self.cell_size;
        Aabb::new(min, min + Vec3::splat(self.cell_size))
    }

    /// World-space center of a cell.
    pub fn cell_center(&self, id: CellId) -> Vec3 {
        self.cell_bounds(id).center()
    }

    /// Partitions a cloud: returns the non-empty cells with their point
    /// indices, sorted by cell id for determinism.
    pub fn partition(&self, cloud: &PointCloud) -> Vec<CellInfo> {
        let mut map: BTreeMap<CellId, Vec<u32>> = BTreeMap::new();
        for (i, p) in cloud.points.iter().enumerate() {
            map.entry(self.cell_of(p.position()))
                .or_default()
                .push(i as u32);
        }
        map.into_iter()
            .map(|(id, point_indices)| CellInfo {
                id,
                point_count: point_indices.len(),
                point_indices,
            })
            .collect()
    }

    /// Extracts the sub-cloud for one cell from a partition entry.
    pub fn extract(&self, cloud: &PointCloud, info: &CellInfo) -> PointCloud {
        let mut out = PointCloud::new();
        self.extract_into(cloud, info, &mut out);
        out
    }

    /// Extracts one cell's sub-cloud into `out` (cleared first), reusing
    /// its allocation across cells/frames.
    pub fn extract_into(&self, cloud: &PointCloud, info: &CellInfo, out: &mut PointCloud) {
        out.points.clear();
        out.points.reserve(info.point_indices.len());
        out.points
            .extend(info.point_indices.iter().map(|&i| cloud.points[i as usize]));
    }

    /// Extracts one cell's sub-cloud straight into SoA storage (cleared
    /// first). Same points in the same order as
    /// [`CellGrid::extract_into`], so per-cell encodes are byte-identical
    /// whichever layout the pipeline uses.
    pub fn extract_soa_into(&self, cloud: &PointCloud, info: &CellInfo, out: &mut SoAPoints) {
        out.clear();
        out.reserve(info.point_indices.len());
        for &i in &info.point_indices {
            let p = &cloud.points[i as usize];
            out.push(p.pos, p.color);
        }
    }
}

/// Points per cell without the points: what [`CellGrid::partition`] yields
/// minus the index vectors, for a caller that streams cell ids and keeps
/// nothing else. An open-addressed table, so memory follows the number of
/// *occupied* cells — an array indexed over the body's bounding box would
/// hold ~10⁹ counters at 1 mm cells, and `cell_size` is only validated
/// as positive.
pub(crate) struct CellCounter {
    /// Power-of-two length; a zero count marks a free slot.
    slots: Vec<(CellId, usize)>,
    occupied: usize,
}

impl CellCounter {
    const FREE: (CellId, usize) = (CellId { x: 0, y: 0, z: 0 }, 0);

    pub(crate) fn new() -> Self {
        CellCounter {
            slots: vec![Self::FREE; 64],
            occupied: 0,
        }
    }

    /// The slot holding `id`, or the free slot where it belongs.
    #[inline]
    fn slot_of(slots: &[(CellId, usize)], id: CellId) -> usize {
        let mask = slots.len() - 1;
        let h = (id.x as u32 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (id.y as u32 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ (id.z as u32 as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
        let mut i = (h >> 32) as usize & mask;
        while slots[i].1 != 0 && slots[i].0 != id {
            i = (i + 1) & mask;
        }
        i
    }

    /// Counts one point in cell `id`.
    #[inline]
    pub(crate) fn add(&mut self, id: CellId) {
        let i = Self::slot_of(&self.slots, id);
        let slot = &mut self.slots[i];
        slot.1 += 1;
        if slot.1 == 1 {
            slot.0 = id;
            self.occupied += 1;
            // Keep the load at or below one half so probes stay short.
            if self.occupied * 2 > self.slots.len() {
                self.grow();
            }
        }
    }

    #[cold]
    fn grow(&mut self) {
        let doubled = vec![Self::FREE; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for cell in old.into_iter().filter(|s| s.1 > 0) {
            let i = Self::slot_of(&self.slots, cell.0);
            self.slots[i] = cell;
        }
    }

    /// The non-empty cells sorted by id, as [`CellGrid::partition`] orders
    /// them, with `point_indices` left empty.
    pub(crate) fn finish(self) -> Vec<CellInfo> {
        let mut cells: Vec<CellInfo> = self
            .slots
            .into_iter()
            .filter(|s| s.1 > 0)
            .map(|(id, point_count)| CellInfo {
                id,
                point_count,
                point_indices: Vec::new(),
            })
            .collect();
        cells.sort_unstable_by_key(|c| c.id);
        cells
    }
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_struct!(CellId { x, y, z });
volcast_util::impl_json_struct!(CellInfo {
    id,
    point_count,
    point_indices
});
volcast_util::impl_json_struct!(CellGrid { origin, cell_size });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn pt(x: f32, y: f32, z: f32) -> Point {
        Point::new([x, y, z], [0, 0, 0])
    }

    #[test]
    fn cell_of_basics() {
        let g = CellGrid::new(0.5);
        assert_eq!(g.cell_of(Vec3::new(0.1, 0.1, 0.1)), CellId::new(0, 0, 0));
        assert_eq!(g.cell_of(Vec3::new(0.6, 0.1, 0.1)), CellId::new(1, 0, 0));
        assert_eq!(g.cell_of(Vec3::new(-0.1, 0.0, 0.0)), CellId::new(-1, 0, 0));
        // Boundary: exactly 0.5 belongs to cell 1.
        assert_eq!(g.cell_of(Vec3::new(0.5, 0.0, 0.0)), CellId::new(1, 0, 0));
    }

    #[test]
    fn cell_bounds_contain_their_points() {
        let g = CellGrid::new(0.25);
        for p in [
            Vec3::new(0.1, 0.2, 0.3),
            Vec3::new(-1.7, 0.9, 2.2),
            Vec3::new(5.0, -3.0, 0.0),
        ] {
            let id = g.cell_of(p);
            assert!(g.cell_bounds(id).contains(p), "{p} not in cell {id:?}");
        }
    }

    #[test]
    fn grid_origin_shifts_cells() {
        let g = CellGrid::with_origin(1.0, Vec3::new(0.5, 0.0, 0.0));
        assert_eq!(g.cell_of(Vec3::new(0.6, 0.0, 0.0)), CellId::new(0, 0, 0));
        assert_eq!(g.cell_of(Vec3::new(0.4, 0.0, 0.0)), CellId::new(-1, 0, 0));
    }

    #[test]
    fn partition_covers_all_points_once() {
        let cloud = PointCloud::from_points(vec![
            pt(0.1, 0.1, 0.1),
            pt(0.2, 0.1, 0.1),
            pt(0.9, 0.1, 0.1),
            pt(-0.3, 0.0, 0.0),
        ]);
        let g = CellGrid::new(0.5);
        let cells = g.partition(&cloud);
        let total: usize = cells.iter().map(|c| c.point_count).sum();
        assert_eq!(total, cloud.len());
        // 3 distinct cells.
        assert_eq!(cells.len(), 3);
        // Sorted by id.
        for w in cells.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn extract_returns_cell_points() {
        let cloud = PointCloud::from_points(vec![
            pt(0.1, 0.1, 0.1),
            pt(0.9, 0.1, 0.1),
            pt(0.15, 0.1, 0.1),
        ]);
        let g = CellGrid::new(0.5);
        let cells = g.partition(&cloud);
        let first = cells.iter().find(|c| c.id == CellId::new(0, 0, 0)).unwrap();
        let sub = g.extract(&cloud, first);
        assert_eq!(sub.len(), 2);
        for p in &sub.points {
            assert!(g.cell_bounds(first.id).contains(p.position()));
        }
    }

    #[test]
    fn extract_soa_matches_aos_extract() {
        let body = crate::synthetic::SyntheticBody::default();
        let cloud = body.frame(2, 4_000);
        let g = CellGrid::new(0.5);
        let mut soa = SoAPoints::new();
        for info in &g.partition(&cloud) {
            g.extract_soa_into(&cloud, info, &mut soa);
            let aos = g.extract(&cloud, info);
            assert_eq!(soa.len(), aos.len());
            for (i, p) in aos.points.iter().enumerate() {
                assert_eq!(soa.point(i), *p);
            }
        }
    }

    #[test]
    fn coarser_grid_has_fewer_cells() {
        // Statistical sanity on a synthetic body frame: halving resolution
        // reduces cell count.
        let body = crate::synthetic::SyntheticBody::default();
        let cloud = body.frame(0, 10_000);
        let fine = CellGrid::new(0.25).partition(&cloud).len();
        let mid = CellGrid::new(0.5).partition(&cloud).len();
        let coarse = CellGrid::new(1.0).partition(&cloud).len();
        assert!(fine > mid && mid > coarse, "{fine} > {mid} > {coarse}");
    }

    #[test]
    #[should_panic]
    fn zero_cell_size_panics() {
        let _ = CellGrid::new(0.0);
    }
}
