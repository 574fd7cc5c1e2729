//! GOP-batched encoding: one deterministic parallel sweep per group of
//! pictures.
//!
//! Frame pipelines that encode a whole GOP (the ladder streams 30-frame
//! groups at 30 FPS) waste the frame loop's serial structure: every frame
//! is independent once its points exist, so the encodes can sweep the
//! group across `volcast_util::par` workers. [`GopEncoder`] owns one
//! encoder arena per GOP slot; slots persist across GOPs at their
//! high-watermark sizes, so the steady-state batched path is allocation-
//! free (gated by `tests/codec_alloc.rs`), and each frame's bitstream is
//! byte-identical to a serial per-frame [`Encoder::encode_into`] — the
//! sweep only reorders *which thread* runs a slot, never what the slot
//! computes, so results are independent of `VOLCAST_THREADS`.

use super::{CodecConfig, Encoder};
use crate::point::PointCloud;
use volcast_util::par;

/// One GOP slot: a private encoder arena plus its output, reused across
/// groups.
struct Slot {
    enc: Encoder,
    data: Vec<u8>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            enc: Encoder::new(),
            data: Vec::new(),
        }
    }
}

/// Batched encoder for groups of independent frames.
///
/// Holds `gop_len` slots (grown on demand), each with its own [`Encoder`]
/// and output buffer so a parallel sweep never shares codec scratch
/// between threads.
pub struct GopEncoder {
    slots: Vec<Slot>,
    used: usize,
}

impl Default for GopEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl GopEncoder {
    /// Creates an encoder with no warmed slots.
    pub fn new() -> Self {
        GopEncoder {
            slots: Vec::new(),
            used: 0,
        }
    }

    /// Encodes every cloud of a GOP in one parallel sweep.
    ///
    /// Frame `i`'s bitstream ([`GopEncoder::frame_data`]) is
    /// byte-identical to `Encoder::encode_into(&clouds[i], cfg, ..)`
    /// regardless of the worker count.
    pub fn encode_gop_into(&mut self, clouds: &[PointCloud], cfg: &CodecConfig) {
        self.used = clouds.len();
        if self.slots.len() < self.used {
            self.slots.resize_with(self.used, Slot::new);
        }
        par::par_for_each_mut(&mut self.slots[..self.used], |i, slot| {
            slot.enc.encode_into(&clouds[i], cfg, &mut slot.data);
        });
    }

    /// Number of frames in the current batch.
    pub fn len(&self) -> usize {
        self.used
    }

    /// `true` when no batch has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Frame `i`'s bitstream from the current batch.
    pub fn frame_data(&self, i: usize) -> &[u8] {
        &self.slots[i].data
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

    fn assert_matches_serial(threads: usize) {
        par::set_thread_count(threads);
        let clouds = gop_clouds(8, 2_000);
        let cfg = CodecConfig::default();
        let mut gop = GopEncoder::new();
        gop.encode_gop_into(&clouds, &cfg);
        assert_eq!(gop.len(), clouds.len());
        let mut enc = Encoder::new();
        let mut expect = Vec::new();
        for (i, cloud) in clouds.iter().enumerate() {
            enc.encode_into(cloud, &cfg, &mut expect);
            assert_eq!(gop.frame_data(i), &expect[..], "frame {i}");
        }
        par::set_thread_count(1);
    }

    #[test]
    fn batched_encode_matches_serial_single_thread() {
        assert_matches_serial(1);
    }

    #[test]
    fn batched_encode_matches_serial_eight_threads() {
        assert_matches_serial(8);
    }

    #[test]
    fn repeated_batches_give_the_same_bytes() {
        let clouds = gop_clouds(4, 800);
        let cfg = CodecConfig::default();
        let mut gop = GopEncoder::new();
        gop.encode_gop_into(&clouds, &cfg);
        let first: Vec<Vec<u8>> = (0..4).map(|i| gop.frame_data(i).to_vec()).collect();
        gop.encode_gop_into(&clouds, &cfg);
        for (i, d) in first.iter().enumerate() {
            assert_eq!(gop.frame_data(i), &d[..]);
        }
    }
}
