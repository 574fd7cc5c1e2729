//! GOP-batched encoding: one deterministic parallel sweep per group of
//! pictures.
//!
//! Frame pipelines that encode a whole GOP (the ladder streams 30-frame
//! groups at 30 FPS) waste the frame loop's serial structure: every frame
//! is independent once its points exist, so the encodes can sweep the
//! group across `volcast_util::par` workers. [`GopEncoder`] owns one
//! encoder arena per worker, not per frame: of `n` frames, worker `w`
//! encodes the `w`-th contiguous run of `⌈n / threads⌉` (the blocks
//! `par_for_each_mut` cuts) into per-frame output buffers, so a GOP's
//! codec scratch is bounded by the worker budget, not by its length. A
//! batch drops the workers it does not use; the rest keep arenas and
//! buffers at high-watermark sizes, so a warm batch of the same shape is
//! allocation-free (gated by `tests/codec_alloc.rs`). Each bitstream is
//! byte-identical to a serial [`Encoder::encode_into`] (a reused encoder
//! writes what a fresh one does), whichever arena encodes the frame, at
//! any `VOLCAST_THREADS`.

use super::{CodecConfig, Encoder};
use crate::point::PointCloud;
use volcast_util::par;

/// One worker's encoder arena and the bitstreams of its run of frames.
#[derive(Default)]
struct Worker {
    enc: Encoder,
    frames: Vec<Vec<u8>>,
}

/// Batched encoder for groups of independent frames.
///
/// Holds one [`Encoder`] per worker of the last batch, at most
/// `min(threads, frames)`, so a parallel sweep never shares codec scratch
/// between threads.
#[derive(Default)]
pub struct GopEncoder {
    workers: Vec<Worker>,
    /// Frames in the current batch.
    used: usize,
    /// Frames per worker run in the current batch, recorded at encode time:
    /// frame `i` is `workers[i / block].frames[i % block]`.
    block: usize,
}

impl GopEncoder {
    /// Creates an encoder with no warmed arenas.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes every cloud of a GOP in one parallel sweep.
    ///
    /// Frame `i`'s bitstream ([`GopEncoder::frame_data`]) is
    /// byte-identical to `Encoder::encode_into(&clouds[i], cfg, ..)`
    /// regardless of the worker count.
    pub fn encode_gop_into(&mut self, clouds: &[PointCloud], cfg: &CodecConfig) {
        let n = clouds.len();
        let block = n.div_ceil(par::thread_count()).max(1);
        self.workers.resize_with(n.div_ceil(block), Worker::default);
        (self.used, self.block) = (n, block);
        par::par_for_each_mut(&mut self.workers, |w, worker| {
            let run = &clouds[w * block..n.min(w * block + block)];
            worker.frames.resize_with(run.len(), Vec::new);
            for (cloud, data) in run.iter().zip(&mut worker.frames) {
                worker.enc.encode_into(cloud, cfg, data);
            }
        });
    }

    /// Number of frames in the current batch.
    pub fn len(&self) -> usize {
        self.used
    }

    /// `true` when the current batch has no frames.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Frame `i`'s bitstream from the current batch.
    ///
    /// # Panics
    /// If `i >= self.len()`, even where an earlier, longer batch had a
    /// frame `i`.
    pub fn frame_data(&self, i: usize) -> &[u8] {
        assert!(i < self.used, "frame {i} of a {}-frame GOP", self.used);
        &self.workers[i / self.block].frames[i % self.block]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticBody;

    fn gop_clouds(n: usize, points: usize) -> Vec<PointCloud> {
        let body = SyntheticBody::default();
        (0..n as u64).map(|f| body.frame(f, points)).collect()
    }

    /// `gop` holds `clouds` encoded one by one in a single serial
    /// `Encoder`, in at most `min(threads, frames)` arenas.
    fn assert_matches_serial(gop: &GopEncoder, clouds: &[PointCloud], threads: usize) {
        let n = clouds.len();
        assert_eq!(gop.len(), n);
        assert!(
            gop.workers.len() <= threads.min(n),
            "{n} frames at {threads} threads"
        );
        let cfg = CodecConfig::default();
        let mut enc = Encoder::new();
        let mut expect = Vec::new();
        for (i, cloud) in clouds.iter().enumerate() {
            enc.encode_into(cloud, &cfg, &mut expect);
            assert_eq!(
                gop.frame_data(i),
                &expect[..],
                "frame {i} of {n} at {threads} threads"
            );
        }
    }

    /// The worker budget is process-global and the harness runs tests
    /// concurrently, so every check that sets it lives in this one test.
    #[test]
    fn batched_encode_matches_serial_at_any_thread_count() {
        let clouds = gop_clouds(8, 2_000);
        let cfg = CodecConfig::default();
        for threads in [1, 2, 3, 8] {
            for n in [0, 1, 2, 7, 8] {
                par::set_thread_count(threads);
                let mut gop = GopEncoder::new();
                gop.encode_gop_into(&clouds[..n], &cfg);
                assert_matches_serial(&gop, &clouds[..n], threads);
            }
        }
        // One encoder across GOP lengths and budgets, each batch read back
        // under the next budget: `frame_data` follows the batch's blocks.
        let mut gop = GopEncoder::new();
        for (n, threads, next) in [(8, 8, 3), (3, 3, 1), (8, 1, 8)] {
            par::set_thread_count(threads);
            gop.encode_gop_into(&clouds[..n], &cfg);
            par::set_thread_count(next);
            assert_matches_serial(&gop, &clouds[..n], threads);
        }
        par::set_thread_count(1);
    }

    #[test]
    #[should_panic(expected = "frame 5 of a 3-frame GOP")]
    fn a_frame_past_a_shorter_batch_panics() {
        let clouds = gop_clouds(8, 800);
        let cfg = CodecConfig::default();
        let mut gop = GopEncoder::new();
        gop.encode_gop_into(&clouds, &cfg);
        gop.encode_gop_into(&clouds[..3], &cfg);
        gop.frame_data(5);
    }
}
