//! Deterministic non-cryptographic hashing.
//!
//! [`fnv1a`] is the 64-bit FNV-1a hash: a tiny, allocation-free digest with
//! a frozen definition, used wherever the workspace needs a stable
//! fingerprint of serialized output — the property runner derives per-test
//! seeds from it, and the fault-scenario harness publishes FNVs of
//! serialized `SessionOutcome`s so CI can compare runs across thread counts
//! and commits with a single integer.
//!
//! Like everything in `volcast-util`, the function is frozen: the same
//! bytes hash to the same value on every platform and in every future
//! version. [`Fnv1a`] is the same chain fed in pieces, and [`fnv1a_each`]
//! the same chain run over four inputs at a time.
//!
//! ```
//! use volcast_util::hash::fnv1a;
//!
//! assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
//! assert_eq!(fnv1a(b"volcast"), fnv1a(b"volcast"));
//! assert_ne!(fnv1a(b"volcast"), fnv1a(b"volcasT"));
//! ```

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// 64-bit FNV-1a hash of `bytes` (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// An [`fnv1a`] chain fed in pieces: writing `a` then `b` hashes `a ‖ b`,
/// so a digest over many fields needs no staging buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The chain over no bytes.
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// Extends the chain by `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = step(self.0, b);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[inline(always)]
fn step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(PRIME)
}

/// One chain of [`fnv1a_each`]: an input, and how far its hash has got.
#[derive(Clone, Copy)]
struct Lane<'a> {
    index: usize,
    h: u64,
    rest: &'a [u8],
}

/// Hashes every input with [`fnv1a`], four at a time, and hands each
/// `(index, hash)` to `done` — in completion order, not input order.
///
/// One FNV-1a chain is a serial xor → multiply dependency (≈ 4 cycles a
/// byte); four independent chains in one loop keep the multiplier busy
/// every cycle, so a batch of comparable inputs hashes about four times
/// faster than one after another. A lane that finishes its input takes the
/// next one; once fewer than four inputs remain each finishes on its own.
pub fn fnv1a_each<'a>(
    inputs: impl IntoIterator<Item = &'a [u8]>,
    mut done: impl FnMut(usize, u64),
) {
    let mut inputs = inputs.into_iter().enumerate().map(|(index, rest)| Lane {
        index,
        h: OFFSET_BASIS,
        rest,
    });
    let idle = Lane {
        index: 0,
        h: OFFSET_BASIS,
        rest: &[],
    };
    let mut lanes = [idle; 4];
    // Lanes `..live` hold an input.
    let mut live = 0;
    while live < 4 {
        match inputs.next() {
            Some(lane) => lanes[live] = lane,
            None => break,
        }
        live += 1;
    }
    while live == 4 {
        let [a, b, c, d] = &mut lanes;
        let m = (a.rest.len().min(b.rest.len())).min(c.rest.len().min(d.rest.len()));
        let (a_now, a_rest) = a.rest.split_at(m);
        let (b_now, b_rest) = b.rest.split_at(m);
        let (c_now, c_rest) = c.rest.split_at(m);
        let (d_now, d_rest) = d.rest.split_at(m);
        let (mut ha, mut hb, mut hc, mut hd) = (a.h, b.h, c.h, d.h);
        for (((&x, &y), &z), &w) in a_now.iter().zip(b_now).zip(c_now).zip(d_now) {
            ha = step(ha, x);
            hb = step(hb, y);
            hc = step(hc, z);
            hd = step(hd, w);
        }
        (a.h, b.h, c.h, d.h) = (ha, hb, hc, hd);
        (a.rest, b.rest, c.rest, d.rest) = (a_rest, b_rest, c_rest, d_rest);
        // Every lane that ran dry reports and refills; a refill (or the
        // lane swapped in once the inputs are gone) may be empty too, so
        // the same slot is looked at again.
        let mut l = 0;
        while l < live {
            if !lanes[l].rest.is_empty() {
                l += 1;
                continue;
            }
            done(lanes[l].index, lanes[l].h);
            match inputs.next() {
                Some(lane) => lanes[l] = lane,
                None => {
                    live -= 1;
                    lanes.swap(l, live);
                }
            }
        }
    }
    for lane in &lanes[..live] {
        let mut h = Fnv1a(lane.h);
        h.write(lane.rest);
        done(lane.index, h.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sensitive_to_every_byte() {
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        assert_ne!(fnv1a(b"x"), fnv1a(b"x\0"));
    }

    #[test]
    fn pieces_hash_like_the_whole() {
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), fnv1a(b""));
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn lanes_hash_every_input_once_like_fnv1a() {
        crate::prop::run_cases_n("lanes_hash_every_input_once_like_fnv1a", 256, |rng| {
            // 0..=9 inputs: empty, a few bytes, or thousands — lanes refill
            // at different times and the tail runs with 1 to 3 lanes.
            let inputs: Vec<Vec<u8>> = (0..rng.gen_range(0..10usize))
                .map(|_| {
                    let len = match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => rng.gen_range(1..8usize),
                        2 => rng.gen_range(8..200usize),
                        _ => rng.gen_range(200..5_000usize),
                    };
                    (0..len).map(|_| rng.gen::<u64>() as u8).collect()
                })
                .collect();
            let mut got: Vec<Option<u64>> = vec![None; inputs.len()];
            fnv1a_each(inputs.iter().map(Vec::as_slice), |i, h| {
                assert!(got[i].replace(h).is_none(), "input {i} reported twice");
            });
            let want: Vec<Option<u64>> = inputs.iter().map(|b| Some(fnv1a(b))).collect();
            assert_eq!(got, want);
        });
    }
}
