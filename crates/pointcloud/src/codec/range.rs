//! Adaptive binary range coder (LZMA-style).
//!
//! This is the entropy-coding engine under the octree codec: a carry-aware
//! range encoder over binary symbols with 11-bit adaptive probabilities.
//! Each [`BitModel`] tracks the probability of a `0` bit and adapts with an
//! exponential moving average (shift 5), the classic LZMA configuration.
//!
//! The bit path is branchless: the symbol selects range/low updates and the
//! model delta through a mask instead of a compare-and-branch, which the
//! ~30%-biased occupancy bits of the octree would otherwise mispredict
//! constantly. Renormalization is one conditional 8-bit shift, not a loop:
//! a model starts at 1024 and the shift-5 update cannot carry `p0` out of
//! `[31, 2017]` (`model_states_are_closed_and_one_shift_renormalizes`), so
//! with `range >= 2^24` going in, both halves of the split are at least
//! `31 * 2^13 > 2^16` and a single shift clears `TOP` again — for the
//! decoder too, whose `range` depends on the decoded bits but never on
//! what the input bytes were.
//!
//! [`RangeEncoder`] is reusable: [`RangeEncoder::finish_into`] flushes into
//! a caller buffer and resets, so a persistent encoder performs zero heap
//! allocations per stream once its internal buffer has warmed up.

/// Number of probability bits (probabilities live in `0..2^11`).
const PROB_BITS: u32 = 11;
/// Total probability mass.
const PROB_ONE: u16 = 1 << PROB_BITS;
/// Adaptation rate (larger = slower adaptation).
const ADAPT_SHIFT: u32 = 5;
/// Renormalization threshold.
const TOP: u32 = 1 << 24;

/// An adaptive probability model for a single binary context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitModel {
    /// Probability that the next bit is 0, scaled by `2^11`.
    p0: u16,
}

impl Default for BitModel {
    fn default() -> Self {
        BitModel { p0: PROB_ONE / 2 }
    }
}

impl BitModel {
    /// A fresh model with no bias.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current probability of zero, in `(0, 1)`.
    pub fn prob_zero(&self) -> f64 {
        self.p0 as f64 / PROB_ONE as f64
    }

    /// Branchless exponential-moving-average update: equivalent to
    /// `if bit { p0 -= p0 >> 5 } else { p0 += (PROB_ONE - p0) >> 5 }`.
    /// `mask` is all-ones when the bit is set (shared with the coder's
    /// range/low select so it is computed once per bit).
    #[inline(always)]
    fn update_masked(&mut self, mask: u16) {
        let delta =
            ((self.p0 >> ADAPT_SHIFT) & mask) | (((PROB_ONE - self.p0) >> ADAPT_SHIFT) & !mask);
        self.p0 = (self.p0.wrapping_sub(delta) & mask) | (self.p0.wrapping_add(delta) & !mask);
    }
}

/// Range encoder producing a compressed byte stream.
#[derive(Debug)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    pending: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            pending: 0,
            out: Vec::new(),
        }
    }

    /// Rewinds to the fresh-encoder state, retaining the internal buffer's
    /// capacity so the next stream encodes allocation-free.
    pub fn reset(&mut self) {
        self.low = 0;
        self.range = u32::MAX;
        self.cache = 0;
        self.pending = 0;
        self.out.clear();
    }

    /// Encodes one bit under the given adaptive model.
    #[inline(always)]
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
        let bound = (self.range >> PROB_BITS) * model.p0 as u32;
        // Branchless select: mask is all-ones when the bit is set.
        let mask = (bit as u32).wrapping_neg();
        self.low += (bound & mask) as u64;
        self.range = ((self.range - bound) & mask) | (bound & !mask);
        model.update_masked(mask as u16);
        if self.range < TOP {
            self.shift_low();
            self.range <<= 8;
            debug_assert!(self.range >= TOP, "one shift renormalizes, see module docs");
        }
    }

    /// Encodes `n` raw bits (MSB first) of `value` under per-position models.
    pub fn encode_bits(&mut self, models: &mut [BitModel], value: u32, n: u32) {
        // Slicing up front lets the per-bit loop run without bounds checks.
        let models = &mut models[..n as usize];
        for (i, m) in models.iter_mut().enumerate() {
            let bit = (value >> (n - 1 - i as u32)) & 1 == 1;
            self.encode_bit(m, bit);
        }
    }

    #[inline(always)]
    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000 || self.low > 0xFFFF_FFFF {
            let carry = (self.low >> 32) as u8;
            self.out.push(self.cache.wrapping_add(carry));
            while self.pending > 0 {
                self.out.push(0xFFu8.wrapping_add(carry));
                self.pending -= 1;
            }
            self.cache = ((self.low >> 24) & 0xFF) as u8;
        } else {
            self.pending += 1;
        }
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    #[inline]
    fn flush(&mut self) {
        for _ in 0..5 {
            self.shift_low();
        }
    }

    /// Flushes the encoder and returns the compressed bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush();
        self.out
    }

    /// Flushes the stream, appends it to `dst`, and resets for the next
    /// stream. The reusable-encoder counterpart to [`RangeEncoder::finish`]:
    /// byte-for-byte identical output, no allocation beyond `dst` growth.
    pub fn finish_into(&mut self, dst: &mut Vec<u8>) {
        self.flush();
        dst.extend_from_slice(&self.out);
        self.reset();
    }
}

/// Range decoder consuming a stream produced by [`RangeEncoder`].
#[derive(Debug)]
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Creates a decoder over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        let mut d = RangeDecoder {
            code: 0,
            range: u32::MAX,
            input,
            pos: 0,
        };
        // Prime with 5 bytes (first is the encoder's synthetic zero byte).
        for _ in 0..5 {
            d.code = (d.code << 8) | d.next_byte() as u32;
        }
        d
    }

    #[inline(always)]
    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Decodes one bit under the given adaptive model.
    #[inline(always)]
    pub fn decode_bit(&mut self, model: &mut BitModel) -> bool {
        let bound = (self.range >> PROB_BITS) * model.p0 as u32;
        let bit = self.code >= bound;
        let mask = (bit as u32).wrapping_neg();
        self.code -= bound & mask;
        self.range = ((self.range - bound) & mask) | (bound & !mask);
        model.update_masked(mask as u16);
        if self.range < TOP {
            self.code = (self.code << 8) | self.next_byte() as u32;
            self.range <<= 8;
            debug_assert!(self.range >= TOP, "one shift renormalizes, see module docs");
        }
        bit
    }

    /// Decodes `n` bits (MSB first) under per-position models.
    pub fn decode_bits(&mut self, models: &mut [BitModel], n: u32) -> u32 {
        let models = &mut models[..n as usize];
        let mut v = 0u32;
        for m in models.iter_mut() {
            v = (v << 1) | self.decode_bit(m) as u32;
        }
        v
    }

    /// True once the decoder has read past the end of its input (reads
    /// past the end zero-fill rather than panic). A well-formed stream is
    /// never over-read — [`RangeEncoder::finish`] emits exactly the bytes
    /// the matching decode consumes — so exhaustion means the payload was
    /// truncated or corrupted and the decoded symbols are garbage.
    pub fn is_exhausted(&self) -> bool {
        self.pos > self.input.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_util::rng::Rng;

    impl BitModel {
        /// Branch-form entry point: the coders call `update_masked` with
        /// the mask they already have.
        fn update(&mut self, bit: bool) {
            self.update_masked((bit as u16).wrapping_neg());
        }
    }

    fn round_trip(bits: &[bool], contexts: usize, ctx_of: impl Fn(usize) -> usize) -> usize {
        let mut enc_models = vec![BitModel::new(); contexts];
        let mut enc = RangeEncoder::new();
        for (i, &b) in bits.iter().enumerate() {
            enc.encode_bit(&mut enc_models[ctx_of(i)], b);
        }
        let data = enc.finish();
        let mut dec_models = vec![BitModel::new(); contexts];
        let mut dec = RangeDecoder::new(&data);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(dec.decode_bit(&mut dec_models[ctx_of(i)]), b, "bit {i}");
        }
        data.len()
    }

    #[test]
    fn empty_stream() {
        let enc = RangeEncoder::new();
        let data = enc.finish();
        let _ = RangeDecoder::new(&data); // must not panic
    }

    #[test]
    fn single_bits() {
        round_trip(&[true], 1, |_| 0);
        round_trip(&[false], 1, |_| 0);
    }

    #[test]
    fn random_bits_round_trip() {
        let mut rng = Rng::seed_from_u64(42);
        let bits: Vec<bool> = (0..50_000).map(|_| rng.gen()).collect();
        let size = round_trip(&bits, 4, |i| i % 4);
        // Incompressible: size close to 50_000/8 bytes.
        assert!(size > 5_500 && size < 7_000, "size {size}");
    }

    #[test]
    fn skewed_bits_compress() {
        let mut rng = Rng::seed_from_u64(7);
        let bits: Vec<bool> = (0..50_000).map(|_| rng.gen::<f64>() < 0.05).collect();
        let size = round_trip(&bits, 1, |_| 0);
        // Entropy ~0.29 bits/bit -> ~1800 bytes; allow adaptation slack.
        assert!(size < 2_600, "size {size}");
    }

    #[test]
    fn all_zero_bits_compress_hard() {
        let bits = vec![false; 100_000];
        let size = round_trip(&bits, 1, |_| 0);
        assert!(size < 600, "size {size}");
    }

    #[test]
    fn alternating_pattern_with_two_contexts() {
        // With per-parity contexts, an alternating pattern is near-free.
        let bits: Vec<bool> = (0..20_000).map(|i| i % 2 == 0).collect();
        let size = round_trip(&bits, 2, |i| i % 2);
        assert!(size < 400, "size {size}");
    }

    #[test]
    fn multibit_round_trip() {
        let mut rng = Rng::seed_from_u64(99);
        let values: Vec<u32> = (0..5_000).map(|_| rng.gen_range(0..256)).collect();
        let mut models = vec![BitModel::new(); 8];
        let mut enc = RangeEncoder::new();
        for &v in &values {
            enc.encode_bits(&mut models, v, 8);
        }
        let data = enc.finish();
        let mut models = vec![BitModel::new(); 8];
        let mut dec = RangeDecoder::new(&data);
        for &v in &values {
            assert_eq!(dec.decode_bits(&mut models, 8), v);
        }
    }

    #[test]
    fn model_adapts_toward_observed_bias() {
        let mut m = BitModel::new();
        assert!((m.prob_zero() - 0.5).abs() < 1e-9);
        for _ in 0..200 {
            m.update(false);
        }
        assert!(m.prob_zero() > 0.95);
        for _ in 0..400 {
            m.update(true);
        }
        assert!(m.prob_zero() < 0.05);
    }

    #[test]
    fn branchless_update_matches_reference() {
        // Pin the mask-select update against the straightforward branchy
        // formula across every reachable probability state.
        for start in 1u16..PROB_ONE {
            for bit in [false, true] {
                let mut m = BitModel { p0: start };
                m.update(bit);
                let expected = if bit {
                    start - (start >> ADAPT_SHIFT)
                } else {
                    start + ((PROB_ONE - start) >> ADAPT_SHIFT)
                };
                assert_eq!(m.p0, expected, "p0={start} bit={bit}");
            }
        }
    }

    /// Exhaustive closure of the model state machine, and the bound the
    /// single-shift renormalization rests on.
    #[test]
    fn model_states_are_closed_and_one_shift_renormalizes() {
        let (lo, hi) = (31u16, 2017u16);
        assert!((lo..=hi).contains(&BitModel::new().p0));
        let mut min_after = u32::MAX;
        for p0 in lo..=hi {
            for bit in [false, true] {
                let mut m = BitModel { p0 };
                m.update(bit);
                assert!((lo..=hi).contains(&m.p0), "p0={p0} bit={bit} -> {}", m.p0);
            }
            // The smallest range a bit can leave: the smallest going in,
            // split at this p0, the smaller half taken.
            let bound = (TOP >> PROB_BITS) * p0 as u32;
            min_after = min_after.min(bound).min(TOP - bound);
        }
        assert_eq!(min_after, 31 << 13);
        assert!(min_after << 8 >= TOP);
        // Both ends are reached, so the interval is tight.
        let mut m = BitModel::new();
        (0..500).for_each(|_| m.update(true));
        assert_eq!(m.p0, lo);
        (0..500).for_each(|_| m.update(false));
        assert_eq!(m.p0, hi);
    }

    #[test]
    fn reused_encoder_is_byte_identical_to_fresh() {
        let mut rng = Rng::seed_from_u64(1234);
        let streams: Vec<Vec<bool>> = (0..5)
            .map(|_| (0..8_000).map(|_| rng.gen::<f64>() < 0.3).collect())
            .collect();
        let mut reused = RangeEncoder::new();
        for bits in &streams {
            let mut fresh = RangeEncoder::new();
            let mut fresh_models = [BitModel::new(); 8];
            let mut reused_models = [BitModel::new(); 8];
            let mut reused_out = Vec::new();
            for (i, &b) in bits.iter().enumerate() {
                fresh.encode_bit(&mut fresh_models[i % 8], b);
                reused.encode_bit(&mut reused_models[i % 8], b);
            }
            reused.finish_into(&mut reused_out);
            assert_eq!(fresh.finish(), reused_out);
        }
    }

    #[test]
    fn decoder_tolerates_truncated_input() {
        // Decoding garbage must not panic (it will produce wrong bits, but
        // the caller validates counts); this exercises the zero-fill path.
        let mut m = BitModel::new();
        let mut dec = RangeDecoder::new(&[1, 2, 3]);
        assert!(dec.is_exhausted(), "priming already over-read 3 bytes");
        for _ in 0..64 {
            let _ = dec.decode_bit(&mut m);
        }
    }

    #[test]
    fn full_decode_never_exhausts_valid_input() {
        let mut rng = Rng::seed_from_u64(21);
        let bits: Vec<bool> = (0..10_000).map(|_| rng.gen::<f64>() < 0.3).collect();
        let mut models = [BitModel::new(); 4];
        let mut enc = RangeEncoder::new();
        for (i, &b) in bits.iter().enumerate() {
            enc.encode_bit(&mut models[i % 4], b);
        }
        let data = enc.finish();
        let mut models = [BitModel::new(); 4];
        let mut dec = RangeDecoder::new(&data);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(dec.decode_bit(&mut models[i % 4]), b);
            assert!(!dec.is_exhausted(), "over-read at bit {i}");
        }
        // Any truncation of the same stream is detected by the time the
        // full symbol count has been pulled out: the decode is byte-exact
        // with the true decode up to the cut, so the byte the true decode
        // would read there becomes the first zero-fill read.
        for cut in 0..data.len() {
            let mut models = [BitModel::new(); 4];
            let mut dec = RangeDecoder::new(&data[..cut]);
            for i in 0..bits.len() {
                let _ = dec.decode_bit(&mut models[i % 4]);
            }
            assert!(dec.is_exhausted(), "cut at {cut} went undetected");
        }
    }
}
