//! Spatial cell partitioning.
//!
//! ViVo-style systems split the point cloud into axis-aligned cubic cells
//! (the paper uses 25/50/100 cm cells) and decide visibility per cell. The
//! cell grid is also the unit over which inter-user viewport similarity (IoU
//! of visibility maps) is computed. Everything downstream prices a cell by
//! its size, so a partition is `(cell, point count)` pairs and nothing else:
//! [`CellGrid::partition`] counts a cloud in hand, the video's cell manifest
//! (`VideoSequence::cell_counts`) counts a frame straight off the sampler,
//! and both end in the same `CellCounter`.

use crate::point::PointCloud;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellInfo {
    /// Cell id.
    pub id: CellId,
    /// Number of points that fell in this cell.
    pub point_count: usize,
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

    /// Partitions a cloud: returns the non-empty cells with their point
    /// counts, sorted by cell id for determinism.
    pub fn partition(&self, cloud: &PointCloud) -> Vec<CellInfo> {
        let mut counter = CellCounter::new();
        for p in &cloud.points {
            counter.add(self.cell_of(p.position()), 1);
        }
        counter.finish()
    }
}

/// Points per cell, for a caller that streams cell ids and keeps nothing
/// else or one that asks about cells by id. An open-addressed table, so
/// memory follows the number of *occupied* cells — an array indexed over
/// the body's bounding box would hold ~10⁹ counters at 1 mm cells, and
/// `cell_size` is only validated as positive.
#[derive(Debug)]
pub struct CellCounter {
    /// Power-of-two length; a zero count marks a free slot.
    slots: Vec<CellInfo>,
    occupied: usize,
}

impl Default for CellCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl CellCounter {
    const FREE: CellInfo = CellInfo {
        id: CellId { x: 0, y: 0, z: 0 },
        point_count: 0,
    };

    /// An empty counter.
    pub fn new() -> Self {
        CellCounter {
            slots: vec![Self::FREE; 64],
            occupied: 0,
        }
    }

    /// The slot holding `id`, or the free slot where it belongs.
    #[inline]
    fn slot_of(slots: &[CellInfo], id: CellId) -> usize {
        let mask = slots.len() - 1;
        let h = (id.x as u32 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (id.y as u32 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ (id.z as u32 as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
        let mut i = (h >> 32) as usize & mask;
        while slots[i].point_count != 0 && slots[i].id != id {
            i = (i + 1) & mask;
        }
        i
    }

    /// Counts `points` more points in cell `id`.
    #[inline]
    pub fn add(&mut self, id: CellId, points: usize) {
        if points == 0 {
            return;
        }
        let i = Self::slot_of(&self.slots, id);
        let slot = &mut self.slots[i];
        slot.point_count += points;
        if slot.point_count == points {
            slot.id = id;
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
        for cell in old.into_iter().filter(|c| c.point_count > 0) {
            let i = Self::slot_of(&self.slots, cell.id);
            self.slots[i] = cell;
        }
    }

    /// Points counted in cell `id` so far.
    #[inline]
    pub fn count(&self, id: CellId) -> usize {
        self.slots[Self::slot_of(&self.slots, id)].point_count
    }

    /// The non-empty cells sorted by id.
    pub fn finish(mut self) -> Vec<CellInfo> {
        self.slots.retain(|c| c.point_count > 0);
        self.slots.sort_unstable_by_key(|c| c.id);
        self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use std::collections::BTreeMap;

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

    /// The obvious count, kept here because `partition` and the cell
    /// manifest share `CellCounter` and cannot referee each other.
    fn naive_partition(grid: &CellGrid, cloud: &PointCloud) -> Vec<CellInfo> {
        let mut map: BTreeMap<CellId, usize> = BTreeMap::new();
        for p in &cloud.points {
            *map.entry(grid.cell_of(p.position())).or_default() += 1;
        }
        map.into_iter()
            .map(|(id, point_count)| CellInfo { id, point_count })
            .collect()
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
        let count = |x, point_count| CellInfo {
            id: CellId::new(x, 0, 0),
            point_count,
        };
        // 3 distinct cells, sorted by id, every point counted once.
        assert_eq!(cells, [count(-1, 1), count(0, 2), count(1, 1)]);
        assert_eq!(cells, naive_partition(&g, &cloud));
        // Enough occupied cells to grow the counter's table several times.
        let body = crate::synthetic::SyntheticBody::default().frame(1, 6_000);
        let fine = CellGrid::with_origin(0.02, Vec3::new(0.3, -0.1, 0.7));
        let cells = fine.partition(&body);
        assert!(cells.len() > 1_000, "{} cells", cells.len());
        assert_eq!(cells, naive_partition(&fine, &body));
        // Read back by id: what was counted, and nothing for a stranger.
        let mut counter = CellCounter::new();
        for c in cells.iter().filter(|c| c.point_count >= 2) {
            counter.add(c.id, c.point_count);
        }
        for c in &cells {
            let expect = if c.point_count >= 2 { c.point_count } else { 0 };
            assert_eq!(counter.count(c.id), expect);
            assert_eq!(counter.count(CellId::new(c.id.x + 1000, c.id.y, c.id.z)), 0);
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
