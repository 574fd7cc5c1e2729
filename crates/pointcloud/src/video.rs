//! Volumetric video sequences: frames on demand, the quality ladder, and
//! the cell manifest (per-frame `(cell, point count)` lists, built once per
//! video and shared by its clones). Encoding is the codec's job: callers
//! hand [`VideoSequence::frame`]'s cloud to an `Encoder` they own.

use crate::cells::{CellCounter, CellGrid, CellInfo};
use crate::point::{Point, PointCloud};
use crate::quality::{Ladder, Quality, QualityLevel};
use crate::synthetic::SyntheticBody;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Every input a frame's cell counts depend on, floats by bit pattern.
/// The video's fields are `pub` and its clones share one store, so the key
/// — not an invalidation hook — is what keeps an edited clone from being
/// served another video's entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ManifestKey {
    seed: u64,
    /// The body's `fps`, `gait_hz`, `turn_rate` and `origin`, then the
    /// grid's `origin` and `cell_size`.
    floats: [u64; 10],
    /// Already reduced modulo `num_frames`.
    frame: u64,
    points: usize,
}

impl ManifestKey {
    fn new(body: &SyntheticBody, frame: u64, points: usize, grid: &CellGrid) -> Self {
        let (b, g) = (body.origin, grid.origin);
        ManifestKey {
            seed: body.seed,
            floats: [
                body.fps,
                body.gait_hz,
                body.turn_rate,
                b.x,
                b.y,
                b.z,
                g.x,
                g.y,
                g.z,
                grid.cell_size,
            ]
            .map(f64::to_bits),
            frame,
            points,
        }
    }
}

/// A video's cell manifest: per frame, the `(cell, point count)` list a
/// server cuts once ahead of streaming. Clones of a [`VideoSequence`]
/// share one store. It holds at most `num_frames` × distinct
/// `(points, grid)` pairs asked for × the body's occupied cells (14–20 at
/// 50 cm, 24 bytes each: ~0.12 MB for 300 frames) while the video's
/// fields are left alone.
///
/// Deliberately not counted in `obs`: whether a request hits depends on
/// what the process ran before, and the `results/obs_*.json` snapshots
/// must be byte-identical from run to run.
#[derive(Clone, Default)]
struct Manifest(Arc<Mutex<HashMap<ManifestKey, Arc<[CellInfo]>>>>);

impl Manifest {
    /// A panic elsewhere cannot leave the map half-updated (its only
    /// write is one `insert`), so a poisoned lock is still good.
    fn lock(&self) -> MutexGuard<'_, HashMap<ManifestKey, Arc<[CellInfo]>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl fmt::Debug for Manifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Manifest({} frames)", self.lock().len())
    }
}

/// A volumetric video: a synthetic body animated over `num_frames` frames,
/// generable at any of the ladder's quality levels.
///
/// Frames are generated on demand and deterministically, so experiments can
/// sweep hundreds of frames without holding them in memory.
#[derive(Debug, Clone)]
pub struct VideoSequence {
    /// The animated subject.
    pub body: SyntheticBody,
    /// Quality ladder.
    pub ladder: Ladder,
    /// Total number of frames (the paper's IoU plots span ~300 frames).
    pub num_frames: u64,
    /// Frames per second.
    pub fps: f64,
    /// Cell counts already built, see [`VideoSequence::cell_counts`].
    manifest: Manifest,
}

impl Default for VideoSequence {
    fn default() -> Self {
        VideoSequence {
            body: SyntheticBody::default(),
            ladder: Ladder::paper(),
            num_frames: 300,
            fps: 30.0,
            manifest: Manifest::default(),
        }
    }
}

impl VideoSequence {
    /// Creates a sequence with the given seed and length.
    pub fn new(seed: u64, num_frames: u64) -> Self {
        VideoSequence {
            body: SyntheticBody {
                seed,
                ..Default::default()
            },
            num_frames,
            ..Default::default()
        }
    }

    /// Generates frame `idx` at `level` quality.
    pub fn frame(&self, idx: u64, level: QualityLevel) -> PointCloud {
        let q = self.ladder.quality(level);
        self.body
            .frame(idx % self.num_frames.max(1), q.points_per_frame)
    }

    /// Generates a reduced-density frame for fast analytical experiments
    /// (e.g. visibility statistics, where cell occupancy — not raw density —
    /// matters). `points` is the target count.
    pub fn frame_with_density(&self, idx: u64, points: usize) -> PointCloud {
        self.body.frame(idx % self.num_frames.max(1), points)
    }

    /// The cell manifest entry of frame `idx` at `points` density: the
    /// non-empty cells of `grid`, sorted by id, each with its point count —
    /// exactly `grid.partition(&self.frame_with_density(idx, points))`.
    ///
    /// Built on first request and kept: the sampler's points stream
    /// straight into per-cell counters, classified at their `f32`-rounded
    /// position as [`CellGrid::partition`] classifies a stored [`Point`],
    /// and no cloud is materialised. A later request from this video or
    /// any clone of it is a lock, a hash lookup and an `Arc` clone; `idx`
    /// and `idx + num_frames` are the same entry.
    pub fn cell_counts(&self, idx: u64, points: usize, grid: &CellGrid) -> Arc<[CellInfo]> {
        let frame = idx % self.num_frames.max(1);
        let key = ManifestKey::new(&self.body, frame, points, grid);
        if let Some(cells) = self.manifest.lock().get(&key) {
            return Arc::clone(cells);
        }
        // Built outside the lock so one slow frame never holds up a hit on
        // another; when two threads race on a key the first insert wins
        // and both return it (the lists are equal either way).
        let mut counter = CellCounter::new();
        self.body.emit_frame(frame, points, |pos, color| {
            counter.add(grid.cell_of(Point::new(pos, color).position()), 1);
        });
        let cells: Arc<[CellInfo]> = counter.finish().into();
        debug_assert_eq!(
            cells.iter().map(|c| c.point_count).sum::<usize>(),
            points,
            "every sampled point lands in exactly one cell"
        );
        Arc::clone(self.manifest.lock().entry(key).or_insert(cells))
    }

    /// The calibrated quality parameters at a level.
    pub fn quality(&self, level: QualityLevel) -> Quality {
        self.ladder.quality(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_geom::Vec3;

    #[test]
    fn frame_density_follows_quality() {
        let v = VideoSequence::new(1, 30);
        // Generating full 330K-550K frames is slow for a unit test; use the
        // density passthrough and the ladder's declared counts instead.
        assert_eq!(v.quality(QualityLevel::Low).points_per_frame, 330_000);
        let small = v.frame_with_density(0, 5_000);
        assert_eq!(small.len(), 5_000);
    }

    #[test]
    fn frames_wrap_at_sequence_length() {
        let v = VideoSequence::new(1, 10);
        let a = v.frame_with_density(0, 1_000);
        let b = v.frame_with_density(10, 1_000);
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn clones_share_the_manifest() {
        let video = VideoSequence::new(1, 30);
        let grid = CellGrid::new(0.5);
        let first = video.cell_counts(3, 2_000, &grid);
        assert!(Arc::ptr_eq(&first, &video.cell_counts(3, 2_000, &grid)));
        let clone = video.clone();
        assert!(Arc::ptr_eq(&first, &clone.cell_counts(3, 2_000, &grid)));
        // A frame index past the end wraps onto the same entry...
        assert!(Arc::ptr_eq(&first, &clone.cell_counts(33, 2_000, &grid)));
        // ...and what a clone builds, the original is served.
        let later = clone.cell_counts(4, 2_000, &grid);
        assert!(Arc::ptr_eq(&later, &video.cell_counts(4, 2_000, &grid)));
    }

    #[test]
    fn an_edited_clone_is_never_served_the_cached_counts() {
        type Edit = fn(&mut VideoSequence);
        let base = VideoSequence::new(1, 30);
        let half_metre = CellGrid::new(0.5);
        let cached = base.cell_counts(40, 2_000, &half_metre);
        let cases: [(&str, Edit, usize, CellGrid); 8] = [
            ("seed", |v| v.body.seed = 2, 2_000, half_metre.clone()),
            (
                "origin",
                |v| v.body.origin.x = 0.3,
                2_000,
                half_metre.clone(),
            ),
            ("gait", |v| v.body.gait_hz = 1.0, 2_000, half_metre.clone()),
            ("body fps", |v| v.body.fps = 25.0, 2_000, half_metre.clone()),
            (
                "num_frames",
                |v| v.num_frames = 7,
                2_000,
                half_metre.clone(),
            ),
            ("points", |_| {}, 2_001, half_metre.clone()),
            ("cell size", |_| {}, 2_000, CellGrid::new(0.25)),
            (
                "grid origin",
                |_| {},
                2_000,
                CellGrid::with_origin(0.5, Vec3::new(0.1, -0.2, 0.0)),
            ),
        ];
        for (what, edit, points, grid) in cases {
            let mut clone = base.clone();
            edit(&mut clone);
            let got = clone.cell_counts(40, points, &grid);
            // The same edit on a video that shares nothing with `base`.
            let mut fresh = VideoSequence::new(1, 30);
            edit(&mut fresh);
            assert_eq!(got[..], fresh.cell_counts(40, points, &grid)[..], "{what}");
            assert_ne!(got[..], cached[..], "{what} does not move the counts");
        }
        // The edits left the original's entry alone.
        assert!(Arc::ptr_eq(
            &cached,
            &base.cell_counts(40, 2_000, &half_metre)
        ));
    }

    #[test]
    fn racing_builders_of_one_entry_agree() {
        let video = VideoSequence::new(2, 30);
        let grid = CellGrid::new(0.25);
        let start = std::sync::Barrier::new(2);
        let build = || {
            start.wait();
            video.cell_counts(9, 5_000, &grid)
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(build), s.spawn(build));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a[..], b[..]);
        // Whoever inserted first, both were handed that list.
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &video.cell_counts(9, 5_000, &grid)));
    }

    #[test]
    fn a_poisoned_manifest_lock_still_serves() {
        let video = VideoSequence::new(2, 30);
        let grid = CellGrid::new(0.5);
        let before = video.cell_counts(0, 1_000, &grid);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = video.manifest.0.lock().unwrap();
                panic!("poisoning the manifest lock on purpose");
            })
            .join()
        });
        assert!(panicked.is_err() && video.manifest.0.is_poisoned());
        assert!(Arc::ptr_eq(&before, &video.cell_counts(0, 1_000, &grid)));
        let fresh = VideoSequence::new(2, 30).cell_counts(1, 1_000, &grid);
        assert_eq!(video.cell_counts(1, 1_000, &grid)[..], fresh[..]);
    }
}
