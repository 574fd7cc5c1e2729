//! Viewport similarity: intersection-over-union of visibility maps.
//!
//! The paper defines the viewport similarity of a group of users as the IoU
//! of their cell visibility maps (Fig. 1: cells needed by both users over
//! cells needed by either). This is the signal that drives multicast
//! grouping. Maps are bit sets of partition ranks, so the counts are
//! popcounts of word-wise AND / OR.

use crate::visibility::VisibilityMap;

/// IoU of two visibility maps, in `[0, 1]` — of two groups' merged maps,
/// the IoU of all their members together.
///
/// Both maps empty yields 1.0 (identical viewports, nothing needed).
pub fn iou(a: &VisibilityMap, b: &VisibilityMap) -> f64 {
    debug_assert_eq!(a.cells(), b.cells(), "maps of different partitions");
    match a.seen.union_count(&b.seen) {
        0 => 1.0,
        union => a.visible.intersection_count(&b.visible) as f64 / union as f64,
    }
}

/// The map of a whole group (see [`VisibilityMap::merge`]); an empty group
/// sees nothing.
fn merged(maps: &[&VisibilityMap]) -> VisibilityMap {
    let Some((&first, rest)) = maps.split_first() else {
        return VisibilityMap::default();
    };
    let mut all = first.clone();
    rest.iter().for_each(|map| all.merge(map));
    all
}

/// IoU across a whole group: `|intersection| / |union|` of all maps.
///
/// An empty group or a group of all-empty maps yields 1.0.
pub fn group_iou(maps: &[&VisibilityMap]) -> f64 {
    let all = merged(maps);
    iou(&all, &all)
}

/// Size in bytes of the overlapped cells of a group (the paper's `S^m_k`),
/// given the partition's per-cell sizes.
///
/// A cell's multicast cost uses the *maximum* LOD factor any group member
/// requests, since the multicast copy must satisfy the most demanding user.
pub fn overlap_bytes(maps: &[&VisibilityMap], sizes: &[f64]) -> f64 {
    merged(maps).required_bytes(sizes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full-density map over a 12-cell partition.
    fn map_of(ranks: &[usize]) -> VisibilityMap {
        VisibilityMap::from_ranks(12, ranks.iter().map(|&r| (r, 1.0)))
    }

    #[test]
    fn paper_figure1_example() {
        // User 1 sees cells {1, 3, 5, 6, 7, 8}; user 2 sees {1, 2, 3, 4, 5, 7}.
        // Intersection {1, 3, 5, 7} (4 cells), union (8 cells) => IoU 0.5.
        let u1 = map_of(&[1, 3, 5, 6, 7, 8]);
        let u2 = map_of(&[1, 2, 3, 4, 5, 7]);
        assert!((iou(&u1, &u2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_maps_have_iou_one() {
        let m = map_of(&[0, 11]);
        assert_eq!(iou(&m, &m.clone()), 1.0);
    }

    #[test]
    fn disjoint_maps_have_iou_zero() {
        assert_eq!(iou(&map_of(&[0]), &map_of(&[5])), 0.0);
    }

    #[test]
    fn empty_maps_convention() {
        let e = map_of(&[]);
        assert_eq!(iou(&e, &e.clone()), 1.0);
        assert_eq!(iou(&e, &map_of(&[0])), 0.0);
        assert_eq!(group_iou(&[]), 1.0);
        assert_eq!(overlap_bytes(&[], &[]), 0.0);
    }

    #[test]
    fn iou_is_symmetric_and_bounded() {
        let a = map_of(&[0, 1, 2]);
        let b = map_of(&[1, 2, 3, 4]);
        let ab = iou(&a, &b);
        assert_eq!(ab, iou(&b, &a));
        assert!((ab - 2.0 / 5.0).abs() < 1e-12);
        assert_eq!(ab, group_iou(&[&a, &b]));
    }

    #[test]
    fn group_iou_decreases_with_group_size() {
        // Adding a third user with partial overlap can only shrink the
        // intersection and grow the union.
        let a = map_of(&[0, 1, 2]);
        let b = map_of(&[1, 2, 3]);
        let c = map_of(&[2, 3, 4]);
        let two = group_iou(&[&a, &b]);
        let three = group_iou(&[&a, &b, &c]);
        assert!(three <= two);
        assert!((three - 1.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn a_merge_is_priced_from_its_halves() {
        let sizes: Vec<f64> = (0..12).map(|r| 10.0 + r as f64).collect();
        let lod =
            |ranks: &[usize], l: f64| VisibilityMap::from_ranks(12, ranks.iter().map(|&r| (r, l)));
        let maps = [
            lod(&[0, 1, 2, 3, 7], 0.5),
            lod(&[1, 2, 3, 8], 1.0),
            lod(&[2, 3, 7, 9], 0.7),
            lod(&[2, 3, 4], 0.6),
        ];
        let all: Vec<&VisibilityMap> = maps.iter().collect();
        let (mut left, right) = (merged(&all[..2]), merged(&all[2..]));
        assert_eq!(iou(&left, &right), group_iou(&all));
        assert_eq!(iou(&left, &right), 2.0 / 8.0);
        let s_m = left.shared_bytes(&right, &sizes);
        assert_eq!(s_m, overlap_bytes(&all, &sizes));
        assert_eq!(s_m, 12.0 + 13.0);
        left.merge(&right);
        assert_eq!(left, merged(&all));
        assert_eq!(left.iter().collect::<Vec<_>>(), [(2, 1.0), (3, 1.0)]);
    }

    #[test]
    fn overlap_bytes_uses_max_lod() {
        let a = VisibilityMap::from_ranks(1, [(0, 0.5)]);
        let b = VisibilityMap::from_ranks(1, [(0, 1.0)]);
        let sizes = vec![100.0];
        // Multicast must carry the full-density copy (max LOD = 1.0).
        assert!((overlap_bytes(&[&a, &b], &sizes) - 100.0).abs() < 1e-12);
        // Single user at 0.5 density costs 50.
        assert!((overlap_bytes(&[&a], &sizes) - 50.0).abs() < 1e-12);
    }
}
