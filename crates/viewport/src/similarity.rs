//! Viewport similarity: intersection-over-union of visibility maps.
//!
//! The paper defines the viewport similarity of a group of users as the IoU
//! of their cell visibility maps (Fig. 1: cells needed by both users over
//! cells needed by either). This is the signal that drives multicast
//! grouping.

use crate::visibility::{priced_bytes, VisibilityMap};
use std::collections::BTreeSet;
use volcast_pointcloud::{CellId, CellInfo};

/// IoU of two visibility maps, in `[0, 1]`.
///
/// Both maps empty yields 1.0 (identical viewports, nothing needed).
pub fn iou(a: &VisibilityMap, b: &VisibilityMap) -> f64 {
    group_iou(&[a, b])
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

#[cfg(test)]
mod tests {
    use super::*;

    fn map_of(ids: &[(i32, i32, i32)]) -> VisibilityMap {
        let mut m = VisibilityMap::new();
        for &(x, y, z) in ids {
            m.cells.insert(CellId::new(x, y, z), 1.0);
        }
        m
    }

    #[test]
    fn paper_figure1_example() {
        // User 1 sees cells {1, 3, 5, 6, 7, 8}; user 2 sees {1, 2, 3, 4, 5, 7}.
        // Intersection {1, 3, 5, 7} (4 cells), union (8 cells) => IoU 0.5.
        let u1 = map_of(&[
            (1, 0, 0),
            (3, 0, 0),
            (5, 0, 0),
            (6, 0, 0),
            (7, 0, 0),
            (8, 0, 0),
        ]);
        let u2 = map_of(&[
            (1, 0, 0),
            (2, 0, 0),
            (3, 0, 0),
            (4, 0, 0),
            (5, 0, 0),
            (7, 0, 0),
        ]);
        assert!((iou(&u1, &u2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_maps_have_iou_one() {
        let m = map_of(&[(0, 0, 0), (1, 1, 1)]);
        assert_eq!(iou(&m, &m.clone()), 1.0);
    }

    #[test]
    fn disjoint_maps_have_iou_zero() {
        let a = map_of(&[(0, 0, 0)]);
        let b = map_of(&[(5, 5, 5)]);
        assert_eq!(iou(&a, &b), 0.0);
    }

    #[test]
    fn empty_maps_convention() {
        let e = VisibilityMap::new();
        assert_eq!(iou(&e, &e.clone()), 1.0);
        let m = map_of(&[(0, 0, 0)]);
        assert_eq!(iou(&e, &m), 0.0);
        assert_eq!(group_iou(&[]), 1.0);
    }

    #[test]
    fn iou_is_symmetric_and_bounded() {
        let a = map_of(&[(0, 0, 0), (1, 0, 0), (2, 0, 0)]);
        let b = map_of(&[(1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)]);
        let ab = iou(&a, &b);
        let ba = iou(&b, &a);
        assert_eq!(ab, ba);
        assert!((0.0..=1.0).contains(&ab));
        assert!((ab - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn group_iou_decreases_with_group_size() {
        // Adding a third user with partial overlap can only shrink the
        // intersection and grow the union.
        let a = map_of(&[(0, 0, 0), (1, 0, 0), (2, 0, 0)]);
        let b = map_of(&[(1, 0, 0), (2, 0, 0), (3, 0, 0)]);
        let c = map_of(&[(2, 0, 0), (3, 0, 0), (4, 0, 0)]);
        let two = group_iou(&[&a, &b]);
        let three = group_iou(&[&a, &b, &c]);
        assert!(three <= two);
        assert!((three - 1.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_cells_content() {
        let a = map_of(&[(0, 0, 0), (1, 0, 0)]);
        let b = map_of(&[(1, 0, 0), (2, 0, 0)]);
        let i = intersection_cells(&[&a, &b]);
        assert_eq!(i.len(), 1);
        assert!(i.contains(&CellId::new(1, 0, 0)));
        assert!(intersection_cells(&[]).is_empty());
    }

    #[test]
    fn merge_counting_matches_set_based_iou() {
        // Reference implementation: the original set-allocation version.
        let set_iou = |maps: &[&VisibilityMap]| -> f64 {
            let mut inter = maps[0].id_set();
            let mut union = maps[0].id_set();
            for m in &maps[1..] {
                let ids = m.id_set();
                inter = inter.intersection(&ids).copied().collect();
                union = union.union(&ids).copied().collect();
            }
            if union.is_empty() {
                1.0
            } else {
                inter.len() as f64 / union.len() as f64
            }
        };
        let a = map_of(&[(0, 0, 0), (1, 2, 3), (4, 5, 6), (-1, 0, 2)]);
        let b = map_of(&[(1, 2, 3), (4, 5, 6), (7, 8, 9)]);
        let c = map_of(&[(4, 5, 6), (7, 8, 9), (0, 0, 0)]);
        let e = VisibilityMap::new();
        for group in [
            vec![&a, &b],
            vec![&a, &b, &c],
            vec![&a, &e],
            vec![&e, &e],
            vec![&c, &b, &a, &c],
        ] {
            assert_eq!(group_iou(&group), set_iou(&group));
        }
    }

    #[test]
    fn overlap_bytes_matches_the_partition_scan_exactly() {
        let mut a = VisibilityMap::new();
        let mut b = VisibilityMap::new();
        for i in 0..20 {
            a.cells.insert(CellId::new(i, 0, 0), 0.4 + 0.03 * i as f64);
            if i % 2 == 0 {
                b.cells.insert(CellId::new(i, 0, 0), 1.0);
            }
        }
        // Every third cell is missing from the partition.
        let partition: Vec<CellInfo> = (0..20)
            .filter(|i| i % 3 != 0)
            .map(|i| CellInfo {
                id: CellId::new(i, 0, 0),
                point_count: (i as usize + 1) * 10,
            })
            .collect();
        let sizes: Vec<f64> = partition
            .iter()
            .map(|c| c.point_count as f64 * 2.1)
            .collect();
        let inter = intersection_cells(&[&a, &b]);
        let scan: f64 = partition
            .iter()
            .zip(&sizes)
            .filter(|(c, _)| inter.contains(&c.id))
            .map(|(c, &s)| s * a.cells[&c.id].max(b.cells[&c.id]))
            .sum();
        assert!(scan > 0.0);
        assert_eq!(overlap_bytes(&[&a, &b], &partition, &sizes), scan);
    }

    #[test]
    fn overlap_bytes_uses_max_lod() {
        use volcast_pointcloud::CellInfo;
        let mut a = VisibilityMap::new();
        a.cells.insert(CellId::new(0, 0, 0), 0.5);
        let mut b = VisibilityMap::new();
        b.cells.insert(CellId::new(0, 0, 0), 1.0);
        let partition = vec![CellInfo {
            id: CellId::new(0, 0, 0),
            point_count: 10,
        }];
        let sizes = vec![100.0];
        // Multicast must carry the full-density copy (max LOD = 1.0).
        assert!((overlap_bytes(&[&a, &b], &partition, &sizes) - 100.0).abs() < 1e-12);
        // Single user at 0.5 density costs 50.
        assert!((overlap_bytes(&[&a], &partition, &sizes) - 50.0).abs() < 1e-12);
    }
}
