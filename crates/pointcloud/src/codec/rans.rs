//! The entropy stage of the wire layout: static frequency tables and a
//! byte-wise rANS coder, one symbol per octree node and one per color
//! channel of a voxel.
//!
//! Every layer (`layered.rs`) ends in an **entropy block**, behind its raw
//! plane (all integers little-endian):
//!
//! ```text
//! level flags u16 | mask tables | color tables | x0 u32, x1 u32, x2 u32 | rANS bytes
//! ```
//!
//! **Symbols.** A layer carries the child masks of a span of tree levels
//! (`prev_depth..depth`; a single stream's one layer: all of them), one
//! symbol `1..=255` per node, and per color value it sends three symbols,
//! channel `c`'s high `color_bits - raw` bits, from an alphabet of
//! `A = 2^(color_bits - raw)`. An empty cloud's stream ends at its header:
//! no block at all.
//!
//! **Tables.** A table is a list of frequencies that sum to 4096. A level's
//! mask table has 255 of them, for masks `1..=255` — mask 0 has no code.
//! Bit `l` of the level flags says level `l` has a table; the tables follow
//! in ascending level order. A level without one is **raw**: each of the
//! 256 byte values has frequency 16, eight bits a mask. Color tables exist
//! iff the stream sends at least one color value, and then there are
//! `3 * A`: for channel 0, 1, 2 and, within a channel, for context
//! `0..A`, a table of `A` frequencies. A symbol's context is the symbol the
//! previous color value sent in the same channel, 0 for the first value.
//!
//! **Frequencies from counts.** With `c_s` occurrences of symbol `s` out of
//! `N`: `f_s = 0` where `c_s = 0`, else `max(1, (4096 c_s + N / 2) / N)` in
//! integer division. Let *top* be the lowest symbol holding the largest
//! `f`. If the sum falls short of 4096, top takes the difference. If it
//! exceeds 4096, top gives up `min(excess, f_top - 1)`, top is found again,
//! until nothing is left over. A context under which nothing was sent gets
//! `f_0 = 4096`.
//!
//! **Table bytes**, in symbol order: a frequency `1..=127` is one byte; one
//! in `128..=4096` is two, `0x80 | f >> 8` then `f & 0xFF`, and no smaller
//! one may be spelled that way; a maximal run of `z` zero frequencies is
//! `0x00` then `z - 1`.
//!
//! **Raw-level rule.** A symbol of frequency `f` is priced at
//! `ceil(256 log2(4096 / f))` 256ths of a bit. A level gets a table iff
//! `2048 * table bytes + sum of c_s * price(f_s) < 2048 * nodes`, that is,
//! iff table and coded masks together undercut eight bits a mask.
//!
//! **rANS.** Three 32-bit states in `[2^23, 2^31)` share one byte stream.
//! The stream's `i`-th mask, counting from 0 in wire order, is decoded by
//! state `i mod 3`, and channel `c` of a color value by state `c`, so three
//! consecutive symbols are three independent chains. With
//! `start_s` the sum of the frequencies below `s`, decoding one symbol from
//! state `x` is: `slot = x mod 4096`; `s` is the symbol with `start_s <=
//! slot < start_s + f_s`; `x = f_s * (x >> 12) + slot - start_s`; while `x <
//! 2^23`, `x = x << 8 | next byte`. The stream opens with the three states;
//! the symbols come in wire order, masks first (level by level, each in
//! ascending Morton order), then channel 0, 1, 2 of each color value. The encoder runs this
//! backwards: states start at `2^23`, symbols are taken last to first, each
//! one as: while `x >= f_s << 19`, emit `x & 0xFF` and `x >>= 8`; then `x =
//! (x / f_s) << 12 | x mod f_s + start_s`; the final states are written and
//! the emitted bytes follow in reverse. The decoder takes that order three
//! symbols per window (three nodes' masks, or one color value): it reads
//! the eight bytes at the stream position once, shifts each symbol's refill
//! out of them and moves the position once — the same bytes, in the same
//! order, as one symbol at a time. So a decoder that has taken every
//! symbol must find all three states back at `2^23` and the input consumed
//! to the byte — anything else is [`CodecError::CorruptPayload`], which is
//! how a damaged payload gets *reported* instead of rendering as different
//! geometry. It is a witness, not a checksum: the raw plane is outside it,
//! and so is a flip that trades a symbol for another of the same frequency
//! at the same offset (every mask of a raw level has such twins).

use super::octree::{CodecError, MAX_DEPTH};
use std::ops::Range;

const SCALE_BITS: u32 = 12;
const SCALE: u32 = 1 << SCALE_BITS;
/// The bottom of a state's interval: where every state starts in the
/// encoder and must end in the decoder.
const SEED: u32 = 1 << 23;

/// `PRICE[f]`: what a symbol of frequency `f` costs, `ceil(256 log2(4096 /
/// f))` 256ths of a bit, computed without floats: the integer part of
/// `log2 f`, then eight squarings of the mantissa for the fraction.
static PRICE: [u16; SCALE as usize + 1] = {
    let mut table = [0u16; SCALE as usize + 1];
    let mut f = 1u32;
    while f <= SCALE {
        let int = f.ilog2();
        let mut mantissa = (f as u128) << (60 - int); // Q60, in [1, 2)
        let mut frac = 0u32;
        let mut bit = 0;
        while bit < 8 {
            mantissa = (mantissa * mantissa) >> 60;
            frac <<= 1;
            if mantissa >= 1 << 61 {
                mantissa >>= 1;
                frac |= 1;
            }
            bit += 1;
        }
        table[f as usize] = (256 * SCALE_BITS - (256 * int + frac)) as u16;
        f += 1;
    }
    table
};

/// Scales `counts` to frequencies summing to 4096 (module docs).
fn normalize(counts: &[u32], freqs: &mut [u16]) {
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    if total == 0 {
        freqs.fill(0);
        freqs[0] = SCALE as u16;
        return;
    }
    let mut sum = 0u32;
    for (f, &c) in freqs.iter_mut().zip(counts) {
        let scaled = (c as u64 * SCALE as u64 + total / 2) / total;
        *f = if c == 0 { 0 } else { scaled.max(1) as u16 };
        sum += *f as u32;
    }
    // `max_by_key` keeps the last of equals: walked backwards, the lowest.
    let top = |freqs: &[u16]| {
        (0..freqs.len())
            .rev()
            .max_by_key(|&s| freqs[s])
            .unwrap_or(0)
    };
    if sum <= SCALE {
        freqs[top(freqs)] += (SCALE - sum) as u16;
    }
    let mut excess = sum.saturating_sub(SCALE);
    while excess > 0 {
        let t = top(freqs);
        let take = excess.min(freqs[t] as u32 - 1);
        freqs[t] -= take as u16;
        excess -= take;
    }
}

fn write_freqs(freqs: &[u16], out: &mut Vec<u8>) {
    let mut s = 0;
    while s < freqs.len() {
        let f = freqs[s];
        if f == 0 {
            let run = freqs[s..].iter().take_while(|&&f| f == 0).count();
            out.extend_from_slice(&[0, (run - 1) as u8]);
            s += run;
            continue;
        }
        if f < 0x80 {
            out.push(f as u8);
        } else {
            out.extend_from_slice(&[0x80 | (f >> 8) as u8, f as u8]);
        }
        s += 1;
    }
}

/// Reads one table of `freqs.len()` frequencies off the front of `input`.
/// Everything a hostile stream can get wrong is an error here: the bytes
/// running out, a zero run longer than the table has symbols left, a
/// frequency spelled in two bytes that fits one, a sum other than 4096.
fn read_freqs(input: &mut &[u8], freqs: &mut [u16]) -> Result<(), CodecError> {
    let mut next = || {
        let (&byte, rest) = input
            .split_first()
            .ok_or(CodecError::CorruptPayload("frequency table is truncated"))?;
        *input = rest;
        Ok(byte)
    };
    let (mut s, mut sum) = (0usize, 0u32);
    while s < freqs.len() {
        let byte = next()?;
        if byte == 0 {
            let run = next()? as usize + 1;
            if run > freqs.len() - s {
                return Err(CodecError::CorruptPayload(
                    "zero run overruns its frequency table",
                ));
            }
            freqs[s..s + run].fill(0);
            s += run;
            continue;
        }
        freqs[s] = match byte {
            0x80.. => ((byte & 0x7F) as u16) << 8 | next()? as u16,
            _ => byte as u16,
        };
        if byte >= 0x80 && freqs[s] < 0x80 {
            return Err(CodecError::CorruptPayload(
                "frequency is not in its shortest form",
            ));
        }
        sum += freqs[s] as u32;
        s += 1;
    }
    if sum != SCALE {
        return Err(CodecError::CorruptPayload("frequencies do not sum to 4096"));
    }
    Ok(())
}

/// One symbol as the encoder needs it: its frequency, and the division by
/// it as a multiplication by the reciprocal.
#[derive(Debug, Clone, Copy, Default)]
struct EncSymbol {
    rcp_freq: u32,
    bias: u32,
    freq: u16,
    rcp_shift: u16,
}

impl EncSymbol {
    /// `freq` in `1..=4096`. With `q = x / freq` the step `(x / freq) << 12
    /// | x % freq + start` is `x + start + q * (4096 - freq)`, and `q` is the
    /// high half of `x * ceil(2^(31 + k) / freq)` shifted down `k - 1`, `k
    /// = ceil(log2 freq)` — exact for every 31-bit `x`
    /// (`reciprocal_step_equals_the_division_for_every_frequency`). `freq =
    /// 1` has no such reciprocal in 32 bits; there `rcp = 2^32 - 1` gives
    /// `q = x - 1` and the bias makes up the missing 4095.
    fn new(start: u32, freq: u32) -> Self {
        let (rcp_freq, rcp_shift, bias) = if freq < 2 {
            (u32::MAX, 0, start + SCALE - 1)
        } else {
            let k = (freq - 1).ilog2() + 1;
            let rcp = (1u64 << (k + 31)).div_ceil(freq as u64);
            (rcp as u32, k - 1, start)
        };
        EncSymbol {
            rcp_freq,
            bias,
            freq: freq as u16,
            rcp_shift: rcp_shift as u16,
        }
    }

    /// The state must be below this before the symbol goes in.
    #[inline(always)]
    fn x_max(&self) -> u32 {
        (self.freq as u32) << (23 - SCALE_BITS + 8)
    }
}

/// The encoder half of the three states. Symbols go in last to first
/// ([`RansEncoder::put`]); [`RansEncoder::finish_into`] appends the stream
/// and leaves the encoder ready for the next one, byte buffer retained.
pub(super) struct RansEncoder {
    x: [u32; 3],
    /// The stream's bytes, filled from the end towards `pos`.
    buf: Vec<u8>,
    pos: usize,
}

impl RansEncoder {
    pub(super) fn new() -> Self {
        RansEncoder {
            x: [SEED; 3],
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Branch-free renormalization: whether zero, one or two low bytes
    /// leave the state is a coin toss the predictor loses, so both are
    /// always written where they would go and `pos` moves past the ones
    /// that count.
    #[inline(always)]
    fn put(&mut self, lane: usize, sym: &EncSymbol) {
        if self.pos < 2 {
            self.grow();
        }
        let (x, x_max) = (self.x[lane], sym.x_max());
        let n = (x >= x_max) as usize + (x >> 8 >= x_max) as usize;
        self.buf[self.pos - 2..self.pos].copy_from_slice(&(x as u16).to_be_bytes());
        self.pos -= n;
        let x = x >> (8 * n);
        let q = ((x as u64 * sym.rcp_freq as u64) >> 32) as u32 >> sym.rcp_shift;
        self.x[lane] = x + sym.bias + q * (SCALE - sym.freq as u32);
    }

    /// Doubles the buffer, the bytes written so far staying at its end.
    #[cold]
    fn grow(&mut self) {
        let written = self.buf.len() - self.pos;
        let mut bigger = vec![0; (2 * self.buf.len()).max(1 << 10)];
        self.pos = bigger.len() - written;
        bigger[self.pos..].copy_from_slice(&self.buf[self.buf.len() - written..]);
        self.buf = bigger;
    }

    pub(super) fn finish_into(&mut self, out: &mut Vec<u8>) {
        for x in self.x {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.extend_from_slice(&self.buf[self.pos..]);
        self.x = [SEED; 3];
        self.pos = self.buf.len();
    }
}

/// The decoder half, three symbols per window ([`DecModel::expand_level`],
/// [`DecModel::colors`]). A window past the end of `input` is zero-padded:
/// reads there yield zeros, never a panic; [`RansDecoder::is_exhausted`] and
/// [`RansDecoder::is_clean_end`] say whether what came out can be trusted.
pub(super) struct RansDecoder<'a> {
    x: [u32; 3],
    input: &'a [u8],
    pos: usize,
}

impl<'a> RansDecoder<'a> {
    /// Takes the three states off the front of `input`. One outside `[2^23,
    /// 2^31)` is refused: no encoder leaves it, and with it in range every
    /// later state stays there.
    pub(super) fn new(input: &'a [u8]) -> Result<Self, CodecError> {
        let mut head = [0u8; 12];
        let given = input.len().min(12);
        head[..given].copy_from_slice(&input[..given]);
        let x = [0, 4, 8].map(|at| u32::from_le_bytes([0, 1, 2, 3].map(|i| head[at + i])));
        if x.iter().any(|x| !(SEED..SEED << 8).contains(x)) {
            return Err(CodecError::CorruptPayload("rANS state out of range"));
        }
        Ok(RansDecoder { x, input, pos: 12 })
    }

    /// The eight bytes at `pos`, big-endian: a group's window.
    #[inline(always)]
    fn window(&self, pos: usize) -> u64 {
        if let Some(bytes) = self.input.get(pos..pos + 8) {
            return u64::from_be_bytes(bytes.try_into().unwrap());
        }
        let mut bytes = [0u8; 8];
        let tail = self.input.get(pos..).unwrap_or(&[]);
        bytes[..tail.len()].copy_from_slice(tail);
        u64::from_be_bytes(bytes)
    }

    /// True once a read went past the end of the input: the payload was
    /// truncated or corrupted and the symbols since are garbage.
    pub(super) fn is_exhausted(&self) -> bool {
        self.pos > self.input.len()
    }

    /// Whether the stream ended the way its encoder began: every state at
    /// the seed and every byte consumed. Ask after the last symbol.
    pub(super) fn is_clean_end(&self) -> bool {
        self.x == [SEED; 3] && self.pos == self.input.len()
    }
}

/// Removes from state `x` the symbol at its slot, `freq` wide with the slot
/// `bias` above its start, and refills it without a branch, like the
/// encoder: at most two bytes, from offset `used` of the group's `window`.
#[inline(always)]
fn step(x: u32, freq: u32, bias: u32, window: u64, used: &mut u32) -> u32 {
    let x = freq * (x >> SCALE_BITS) + bias;
    let n = (x < SEED) as u32 + (x < SEED >> 8) as u32;
    let next = (window << (8 * *used) >> 48) as u32;
    *used += n;
    let x = x << (8 * n) | next >> (16 - 8 * n);
    debug_assert!((SEED..SEED << 8).contains(&x));
    x
}

/// `CHILDREN[mask]`: its set bits ascending, then zeros (never read: the
/// next node's children start at this one's count).
static CHILDREN: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut i = 0;
    while i < 256 * 8 {
        let (mask, bit) = (i / 8, i % 8);
        if mask >> bit & 1 == 1 {
            table[mask][(mask & ((1 << bit) - 1)).count_ones() as usize] = bit as u8;
        }
        i += 1;
    }
    table
};

/// Tables are addressed as pages of 256 entries: three for the colors
/// (`[channel][context * 16 + symbol]`), one for the raw level's uniform
/// code, then one per tree level (`[mask]`) — every level for the counts,
/// only those that earn a table for the symbols.
const PAGE: usize = 256;
const UNIFORM_PAGE: usize = 3 * PAGE;
const LEVEL_PAGES: usize = 4 * PAGE;
const fn color_at(ch: usize, ctx: u8) -> usize {
    ch * PAGE + ctx as usize * 16
}

/// The encoder's model of one stream: counts while the symbols are
/// gathered, then ([`EncModel::write_tables`]) the tables on the wire and
/// every symbol's [`EncSymbol`].
pub(super) struct EncModel {
    counts: Vec<u32>,
    syms: Vec<EncSymbol>,
    /// Where each level's symbols are: its own page or the uniform one.
    mask_page: [usize; MAX_DEPTH as usize],
}

impl EncModel {
    pub(super) fn new() -> Self {
        let mut syms = vec![EncSymbol::default(); UNIFORM_PAGE + PAGE];
        for (mask, sym) in syms[UNIFORM_PAGE..].iter_mut().enumerate() {
            *sym = EncSymbol::new(mask as u32 * (SCALE / 256), SCALE / 256);
        }
        EncModel {
            counts: Vec::new(),
            syms,
            mask_page: [UNIFORM_PAGE; MAX_DEPTH as usize],
        }
    }

    /// Starts a stream over the levels below `depth`: every count to zero,
    /// no level with a table yet.
    pub(super) fn begin(&mut self, depth: u32) {
        self.counts.clear();
        self.counts.resize(LEVEL_PAGES + depth as usize * PAGE, 0);
        self.syms.truncate(LEVEL_PAGES);
    }

    pub(super) fn count_masks(&mut self, level: u32, masks: &[u8]) {
        let counts = &mut self.counts[LEVEL_PAGES + level as usize * PAGE..][..PAGE];
        for &m in masks {
            counts[m as usize] += 1;
        }
    }

    #[inline(always)]
    pub(super) fn count_color(&mut self, ch: usize, ctx: u8, sym: u8) {
        self.counts[color_at(ch, ctx) + sym as usize] += 1;
    }

    /// Appends the level flags, the mask tables of the `levels` that earn
    /// one and, given the color alphabet, its tables; afterwards
    /// [`EncModel::put_mask`] and [`EncModel::put_color`] code under them.
    pub(super) fn write_tables(
        &mut self,
        levels: Range<u32>,
        alphabet: Option<usize>,
        out: &mut Vec<u8>,
    ) {
        let flags_at = out.len();
        out.extend_from_slice(&[0; 2]);
        let mut flags = 0u16;
        let mut freqs = [0u16; PAGE];
        for level in levels {
            let page = LEVEL_PAGES + level as usize * PAGE;
            let counts = &self.counts[page + 1..page + PAGE];
            let freqs = &mut freqs[..PAGE - 1];
            normalize(counts, freqs);
            let mark = out.len();
            write_freqs(freqs, out);
            let (mut nodes, mut price) = (0u64, 2048 * (out.len() - mark) as u64);
            for (&c, &f) in counts.iter().zip(freqs.iter()) {
                nodes += c as u64;
                price += c as u64 * PRICE[f as usize] as u64;
            }
            if price < 2048 * nodes {
                flags |= 1 << level;
                let page = self.syms.len();
                self.syms.resize(page + PAGE, EncSymbol::default());
                self.mask_page[level as usize] = page;
                self.fill(page + 1, freqs);
            } else {
                out.truncate(mark);
                self.mask_page[level as usize] = UNIFORM_PAGE;
            }
        }
        out[flags_at..][..2].copy_from_slice(&flags.to_le_bytes());
        let freqs = &mut freqs[..alphabet.unwrap_or(0)];
        for ch in 0..3 {
            for ctx in 0..freqs.len() {
                let at = color_at(ch, ctx as u8);
                normalize(&self.counts[at..at + freqs.len()], freqs);
                write_freqs(freqs, out);
                self.fill(at, freqs);
            }
        }
    }

    fn fill(&mut self, at: usize, freqs: &[u16]) {
        let mut start = 0;
        for (sym, &f) in self.syms[at..].iter_mut().zip(freqs) {
            if f > 0 {
                *sym = EncSymbol::new(start, f as u32);
            }
            start += f as u32;
        }
    }

    /// `lane` is the mask's index in the stream, mod 3.
    #[inline(always)]
    pub(super) fn put_mask(&self, rans: &mut RansEncoder, lane: usize, level: u32, mask: u8) {
        rans.put(
            lane,
            &self.syms[self.mask_page[level as usize] + mask as usize],
        );
    }

    #[inline(always)]
    pub(super) fn put_color(&self, rans: &mut RansEncoder, ch: usize, ctx: u8, sym: u8) {
        rans.put(ch, &self.syms[color_at(ch, ctx) + sym as usize]);
    }
}

/// One slot of a mask decode table, packed: mask in bits 0..8, `freq - 1`
/// in 8..20, `slot - start` in 20..32.
fn fill_slots(freqs: &[u16], first: u32, slots: &mut [u32]) {
    let mut start = 0;
    for (sym, &f) in (first..).zip(freqs) {
        let head = sym | (f as u32).wrapping_sub(1) << 8;
        for (bias, slot) in slots[start..start + f as usize].iter_mut().enumerate() {
            *slot = head | (bias as u32) << 20;
        }
        start += f as usize;
    }
}

/// The decoder's model of one stream, parsed off its table block. Nothing
/// here is sized by the stream: mask tables are pages of 4096 slots, at
/// most one per level the format allows, color tables a fixed array.
pub(super) struct DecModel {
    /// Page 0 is the raw level's uniform code, page `1 + l` level `l`'s.
    slots: Vec<u32>,
    mask_page: [usize; MAX_DEPTH as usize],
    /// `[channel][context]`: each symbol's start, then 4096 to the end.
    cum: [[[u16; 17]; 16]; 3],
    /// `[channel][context][slot >> 4]`: the symbol the bucket's first slot
    /// falls in, where the search for the slot's own symbol starts.
    coarse: [[[u8; 256]; 16]; 3],
}

impl DecModel {
    pub(super) fn new() -> Self {
        let mut slots = vec![0; SCALE as usize];
        fill_slots(&[(SCALE / 256) as u16; 256], 0, &mut slots);
        DecModel {
            slots,
            mask_page: [0; MAX_DEPTH as usize],
            cum: [[[0; 17]; 16]; 3],
            coarse: [[[0; 256]; 16]; 3],
        }
    }

    /// Reads the table block of a stream carrying `levels` off the front of
    /// `input`, color tables included iff `alphabet` is given.
    pub(super) fn parse(
        &mut self,
        input: &mut &[u8],
        levels: Range<u32>,
        alphabet: Option<usize>,
    ) -> Result<(), CodecError> {
        let Some((flags, rest)) = input.split_first_chunk::<2>() else {
            return Err(CodecError::CorruptPayload("level flags are truncated"));
        };
        *input = rest;
        let flags = u16::from_le_bytes(*flags);
        let span = ((1u32 << levels.end) - (1u32 << levels.start)) as u16;
        if flags & !span != 0 {
            return Err(CodecError::CorruptPayload(
                "a table for a level the stream does not carry",
            ));
        }
        let mut freqs = [0u16; PAGE];
        for level in levels {
            self.mask_page[level as usize] = 0;
            if flags & 1 << level != 0 {
                let page = (1 + level as usize) * SCALE as usize;
                read_freqs(input, &mut freqs[..PAGE - 1])?;
                if self.slots.len() < page + SCALE as usize {
                    self.slots.resize(page + SCALE as usize, 0);
                }
                fill_slots(
                    &freqs[..PAGE - 1],
                    1,
                    &mut self.slots[page..][..SCALE as usize],
                );
                self.mask_page[level as usize] = page;
            }
        }
        let alphabet = alphabet.unwrap_or(0);
        for ch in 0..3 {
            for ctx in 0..alphabet {
                let freqs = &mut freqs[..alphabet];
                read_freqs(input, freqs)?;
                let cum = &mut self.cum[ch][ctx];
                let mut start = 0;
                for (c, &f) in cum.iter_mut().zip(freqs.iter()) {
                    *c = start;
                    start += f;
                }
                cum[alphabet..].fill(SCALE as u16);
                let mut sym = 0;
                for (bucket, first) in self.coarse[ch][ctx].iter_mut().enumerate() {
                    while cum[sym + 1] as usize <= bucket << 4 {
                        sym += 1;
                    }
                    *first = sym as u8;
                }
            }
        }
        Ok(())
    }

    /// Decodes level `level`, one mask per code of `parents`: each parent
    /// writes eight slots from [`CHILDREN`] at the running count, returned.
    /// `children` is `min(count, 8 * parents.len()) + 8` long, so a count
    /// past its length less 8 is past the layer's `count` (refused after
    /// mask 0). `lane` (masks so far, mod 3) rotates the states into locals:
    /// three parents per window, then a 1- or 2-parent tail.
    pub(super) fn expand_level(
        &self,
        dec: &mut RansDecoder,
        lane: &mut usize,
        level: u32,
        parents: &[u64],
        children: &mut [u64],
    ) -> Result<usize, CodecError> {
        let slots = &self.slots[self.mask_page[level as usize]..][..SCALE as usize];
        let mask = |x: &mut u32, w: u64, at: &mut u32| {
            let slot = slots[(*x & (SCALE - 1)) as usize];
            *x = step(*x, (slot >> 8 & (SCALE - 1)) + 1, slot >> 20, w, at);
            slot & 0xFF
        };
        let mut n = 0;
        let mut put = |code: u64, mask: u32| {
            let kids = mask.count_ones() as usize;
            if mask == 0 || n + kids + 8 > children.len() {
                return Err(CodecError::CorruptPayload(match mask {
                    0 => "a node without children",
                    _ => "layer expands beyond the declared count",
                }));
            }
            for (slot, &child) in children[n..n + 8].iter_mut().zip(&CHILDREN[mask as usize]) {
                *slot = code << 3 | child as u64;
            }
            n += kids;
            Ok(())
        };
        let [mut a, mut b, mut c] = [0, 1, 2].map(|k| dec.x[(*lane + k) % 3]);
        let mut pos = dec.pos;
        let mut chunks = parents.chunks_exact(3);
        for chunk in &mut chunks {
            let (w, mut at) = (dec.window(pos), 0);
            let m = [
                mask(&mut a, w, &mut at),
                mask(&mut b, w, &mut at),
                mask(&mut c, w, &mut at),
            ];
            pos += at as usize;
            for (&code, mask) in chunk.iter().zip(m) {
                put(code, mask)?;
            }
        }
        let (mut x, w, mut at) = ([a, b, c], dec.window(pos), 0);
        for (k, &code) in chunks.remainder().iter().enumerate() {
            put(code, mask(&mut x[k], w, &mut at))?;
        }
        for (k, x) in x.into_iter().enumerate() {
            dec.x[(*lane + k) % 3] = x;
        }
        dec.pos = pos + at as usize;
        *lane = (*lane + parents.len()) % 3;
        Ok(n)
    }

    /// Decodes a stream's color values into `out`, one window a value:
    /// channel `c` on state `c` under the symbol sent there before, found
    /// from its coarse bucket; `value` makes the three into what a slot holds.
    #[inline(always)]
    pub(super) fn colors(
        &self,
        dec: &mut RansDecoder,
        out: &mut [[u8; 3]],
        mut value: impl FnMut([u8; 3]) -> [u8; 3],
    ) {
        let symbol = |ch: usize, ctx: &mut u8, x: &mut u32, w: u64, at: &mut u32| {
            let c = *ctx as usize & 15;
            let cum = &self.cum[ch][c];
            let slot = *x & (SCALE - 1);
            let mut sym = self.coarse[ch][c][slot as usize >> 4] as usize;
            while slot >= cum[sym + 1] as u32 {
                sym += 1;
            }
            let start = cum[sym] as u32;
            *x = step(*x, cum[sym + 1] as u32 - start, slot - start, w, at);
            *ctx = sym as u8;
        };
        let ([mut x0, mut x1, mut x2], [mut c0, mut c1, mut c2]) = (dec.x, [0; 3]);
        let mut pos = dec.pos;
        for slot in out {
            let (w, mut at) = (dec.window(pos), 0);
            symbol(0, &mut c0, &mut x0, w, &mut at);
            symbol(1, &mut c1, &mut x1, w, &mut at);
            symbol(2, &mut c2, &mut x2, w, &mut at);
            pos += at as usize;
            *slot = value([c0, c1, c2]);
        }
        (dec.x, dec.pos) = ([x0, x1, x2], pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_util::rng::Rng;

    #[test]
    fn reciprocal_step_equals_the_division_for_every_frequency() {
        let mut rng = Rng::seed_from_u64(0x5eed_a115);
        for freq in 1..=SCALE {
            let start = rng.gen_range(0..=(SCALE - freq) as u64) as u32;
            let sym = EncSymbol::new(start, freq);
            // Renormalized for this symbol a state is in `[x_max >> 8,
            // x_max)`: the ends of that range, the multiples of `freq`
            // around them, random ones.
            let (low, top) = (sym.x_max() >> 8, sym.x_max() - 1);
            let mut states = vec![low, low + 1, top, top - 1, top / freq * freq];
            states.extend([low.next_multiple_of(freq), low.next_multiple_of(freq) - 1]);
            states.extend((0..32).map(|_| rng.gen_range(low as u64..=top as u64) as u32));
            for x in states.into_iter().filter(|x| (low..=top).contains(x)) {
                let mut rans = RansEncoder::new();
                rans.x[0] = x;
                rans.put(0, &sym);
                let want = ((x / freq) << SCALE_BITS) + x % freq + start;
                assert_eq!(rans.x[0], want, "freq {freq} start {start} x {x}");
            }
        }
    }

    #[test]
    fn price_table_is_the_rounded_up_logarithm() {
        assert_eq!(PRICE[0], 0);
        for f in 1..=SCALE {
            let want = if f.is_power_of_two() {
                256 * (SCALE_BITS - f.ilog2())
            } else {
                (256.0 * (SCALE as f64 / f as f64).log2()).ceil() as u32
            };
            assert_eq!(PRICE[f as usize] as u32, want, "f = {f}");
        }
    }

    fn random_counts(rng: &mut Rng, n: usize) -> Vec<u32> {
        let shape = rng.gen_range(0..4u32);
        (0..n)
            .map(|_| match shape {
                0 => rng.gen_range(0..3u64) as u32,       // sparse and flat
                1 => rng.gen_range(0..100_000u64) as u32, // dense
                2 => (rng.gen_range(0..40u64) == 0) as u32 * 500_000, // a few giants
                _ => 1 << rng.gen_range(0..20u32),        // many orders of magnitude
            })
            .collect()
    }

    #[test]
    fn normalized_frequencies_sum_to_the_scale_and_keep_every_seen_symbol() {
        let mut rng = Rng::seed_from_u64(0x7ab1e5);
        let mut freqs = [0u16; 255];
        for trial in 0..2_000 {
            let n = [2, 8, 16, 255][trial % 4];
            let mut counts = random_counts(&mut rng, n);
            if trial % 7 == 0 {
                // One giant among singletons: the bumps to 1 overshoot and
                // the giant pays them back.
                counts.fill(1);
                counts[n / 2] = 10_000_000;
            }
            let freqs = &mut freqs[..n];
            normalize(&counts, freqs);
            assert_eq!(freqs.iter().map(|&f| f as u32).sum::<u32>(), SCALE);
            if counts.iter().any(|&c| c > 0) {
                for (s, (&c, &f)) in counts.iter().zip(freqs.iter()).enumerate() {
                    assert_eq!(c == 0, f == 0, "trial {trial} symbol {s}: {c} -> {f}");
                }
            } else {
                assert_eq!(freqs[0] as u32, SCALE, "nothing counted: symbol 0");
            }
        }
    }

    #[test]
    fn tables_round_trip_and_every_malformed_one_is_refused() {
        let mut rng = Rng::seed_from_u64(0x7ab1e);
        let (mut freqs, mut back) = ([0u16; 255], [0u16; 255]);
        for trial in 0..500 {
            let n = [2, 8, 16, 255][trial % 4];
            normalize(&random_counts(&mut rng, n), &mut freqs[..n]);
            let mut bytes = Vec::new();
            write_freqs(&freqs[..n], &mut bytes);
            bytes.push(0xAB); // the next table's first byte stays unread
            let mut input = &bytes[..];
            read_freqs(&mut input, &mut back[..n]).unwrap();
            assert_eq!(back[..n], freqs[..n]);
            assert_eq!(input, [0xAB]);
            // Every proper prefix is a truncation.
            for cut in 0..bytes.len() - 1 {
                assert_eq!(
                    read_freqs(&mut &bytes[..cut], &mut back[..n]),
                    Err(CodecError::CorruptPayload("frequency table is truncated"))
                );
            }
        }
        let refused = |bytes: &[u8], n: usize| read_freqs(&mut &bytes[..], &mut [0u16; 16][..n]);
        // 4095 and 4097: the sum is checked, not assumed.
        for short_or_long in [&[0x8F, 0xFF, 0, 2][..], &[0x90, 0x00, 1, 0, 1]] {
            assert_eq!(
                refused(short_or_long, 4),
                Err(CodecError::CorruptPayload("frequencies do not sum to 4096"))
            );
        }
        assert_eq!(refused(&[0x90, 0x00, 0, 2], 4), Ok(()));
        assert_eq!(
            refused(&[0x90, 0x00, 0x80, 0x00, 0, 1], 4),
            Err(CodecError::CorruptPayload(
                "frequency is not in its shortest form"
            ))
        );
        // A zero run past the table's last symbol writes nowhere.
        for overrun in [(&[0x90, 0x00, 0, 3][..], 4), (&[0, 255], 16)] {
            assert_eq!(
                refused(overrun.0, overrun.1),
                Err(CodecError::CorruptPayload(
                    "zero run overruns its frequency table"
                ))
            );
        }
    }

    /// A stream over levels 3..6 — level 3's masks uniform, level 4 empty,
    /// level 5's skewed — and color values under an alphabet of 8. Masks
    /// are level-major, the only order the format has.
    type Stream = (Vec<(u32, u8)>, Vec<[u8; 3]>);

    fn random_stream(rng: &mut Rng, masks: usize, colors: usize) -> Stream {
        let skewed = |rng: &mut Rng| (rng.gen_range(0..8u64) * rng.gen_range(0..8u64) / 8) as u8;
        let mut masks: Vec<_> = (0..masks)
            .map(|i| match i % 4 {
                0 => (3, rng.gen_range(1..256u64) as u8),
                _ => (5, 1 << skewed(rng)),
            })
            .collect();
        masks.sort_by_key(|&(level, _)| level);
        (
            masks,
            (0..colors).map(|_| [0; 3].map(|_| skewed(rng))).collect(),
        )
    }

    fn encode_stream((masks, colors): &Stream, out: &mut Vec<u8>) {
        let mut model = EncModel::new();
        let mut rans = RansEncoder::new();
        model.begin(6);
        for level in [3, 5] {
            let of_level = masks.iter().filter(|m| m.0 == level).map(|m| m.1);
            model.count_masks(level, &Vec::from_iter(of_level));
        }
        let mut ctx = [0; 3];
        for value in colors {
            for ch in 0..3 {
                model.count_color(ch, ctx[ch], value[ch]);
            }
            ctx = *value;
        }
        model.write_tables(3..6, (!colors.is_empty()).then_some(8), out);
        for i in (0..colors.len()).rev() {
            let ctx = if i == 0 { [0; 3] } else { colors[i - 1] };
            for ch in (0..3).rev() {
                model.put_color(&mut rans, ch, ctx[ch], colors[i][ch]);
            }
        }
        for (i, &(level, mask)) in masks.iter().enumerate().rev() {
            model.put_mask(&mut rans, i % 3, level, mask);
        }
        rans.finish_into(out);
    }

    /// What decoding a block as `stream`'s shape comes to.
    #[derive(Debug, Clone, PartialEq)]
    struct Decoded {
        same_symbols: bool,
        exhausted: bool,
        clean_end: bool,
    }

    fn decode_stream(
        model: &mut DecModel,
        mut block: &[u8],
        (masks, colors): &Stream,
    ) -> Result<Decoded, CodecError> {
        model.parse(&mut block, 3..6, (!colors.is_empty()).then_some(8))?;
        let mut dec = RansDecoder::new(block)?;
        let mut same_symbols = true;
        let mut lane = 0;
        for level in [3, 5] {
            // Parent `k` is code `k`, so its children `k << 3 | bit` spell
            // its mask back.
            let want: Vec<u8> = masks.iter().filter(|m| m.0 == level).map(|m| m.1).collect();
            let parents: Vec<u64> = (0..want.len() as u64).collect();
            let mut children = vec![0; 8 * want.len() + 8];
            let n = model.expand_level(&mut dec, &mut lane, level, &parents, &mut children)?;
            let mut got = vec![0u8; want.len()];
            for &child in &children[..n] {
                got[(child >> 3) as usize] |= 1 << (child & 7);
            }
            same_symbols &= got == want;
        }
        let mut got = vec![[0; 3]; colors.len()];
        model.colors(&mut dec, &mut got, |syms| syms);
        same_symbols &= got == *colors;
        Ok(Decoded {
            same_symbols,
            exhausted: dec.is_exhausted(),
            clean_end: dec.is_clean_end(),
        })
    }

    #[test]
    fn streams_round_trip_and_end_clean() {
        let mut rng = Rng::seed_from_u64(0x2a25);
        let mut model = DecModel::new();
        for (masks, colors) in [(0, 1), (1, 0), (2, 2), (800, 0), (0, 500), (4_000, 3_000)] {
            let stream = random_stream(&mut rng, masks, colors);
            let mut block = Vec::new();
            encode_stream(&stream, &mut block);
            assert_eq!(
                decode_stream(&mut model, &block, &stream),
                Ok(Decoded {
                    same_symbols: true,
                    exhausted: false,
                    clean_end: true
                }),
                "{masks} masks, {colors} colors"
            );
            // Level 5's skewed masks earn a table once there are enough of
            // them; level 3's uniform ones never do, nor does empty level 4.
            let flags = u16::from_le_bytes([block[0], block[1]]);
            assert_eq!(
                flags,
                if masks >= 800 { 1 << 5 } else { 0 },
                "{masks} masks"
            );
        }
    }

    #[test]
    fn every_truncation_and_all_but_a_sliver_of_flipped_bits_are_noticed() {
        let mut rng = Rng::seed_from_u64(0xf11b);
        let stream = random_stream(&mut rng, 900, 200);
        let mut block = Vec::new();
        encode_stream(&stream, &mut block);
        let mut model = DecModel::new();
        let noticed = |got: &Result<Decoded, CodecError>| match got {
            Err(CodecError::CorruptPayload(_)) => true,
            Ok(decoded) => !decoded.clean_end,
            Err(other) => panic!("{other}"),
        };
        for cut in 0..block.len() {
            let got = decode_stream(&mut model, &block[..cut], &stream);
            assert!(noticed(&got), "cut at {cut}: {got:?}");
            assert!(got.map_or(true, |d| d.exhausted), "cut at {cut}");
        }
        // Tables, states, bytes: wherever the bit is, the parse refuses or
        // the states do not come home — unless the flip moves a slot from
        // one symbol to the same offset in another of equal frequency (a
        // raw level's masks, all 16 wide, are the extreme case and are left
        // out here): that one symbol changes, the state after it does not,
        // and nothing downstream can tell. A sliver, counted.
        let mut stream = stream;
        stream.0.retain(|&(level, _)| level == 5);
        block.clear();
        encode_stream(&stream, &mut block);
        let unnoticed = (0..8 * block.len())
            .filter(|bit| {
                let mut mutant = block.clone();
                mutant[bit / 8] ^= 1 << (bit % 8);
                !noticed(&decode_stream(&mut model, &mutant, &stream))
            })
            .count();
        assert!(
            unnoticed * 1000 < 8 * block.len(),
            "{unnoticed} of {} flips decoded to a clean end",
            8 * block.len()
        );
    }

    /// The last group's window always runs past the end of a stream, and
    /// reads zeros there: a stream cut one to eight bytes short reads them
    /// where its last bytes were, runs past its end, and — by the rule
    /// `LayeredDecoder` applies, an exhausted or unclean stream is corrupt
    /// — is refused. Level 5 carries `masks - ceil(masks / 4)` masks, so the
    /// last group is three masks, a tail of one or two, or a color value,
    /// and the cuts reach back through all six bytes a group can take.
    #[test]
    fn a_stream_cut_inside_its_last_window_is_corrupt() {
        let mut rng = Rng::seed_from_u64(0xc07);
        let mut model = DecModel::new();
        for (masks, colors) in [(700, 0), (702, 0), (703, 0), (900, 301)] {
            let stream = random_stream(&mut rng, masks, colors);
            let mut block = Vec::new();
            encode_stream(&stream, &mut block);
            let clean = decode_stream(&mut model, &block, &stream);
            assert!(clean.is_ok_and(|d| d.same_symbols && d.clean_end));
            for cut in 1..=8 {
                let got = decode_stream(&mut model, &block[..block.len() - cut], &stream);
                let verdict = got.and_then(|d| match d.exhausted || !d.clean_end {
                    true => Err(CodecError::CorruptPayload("unclean end")),
                    false => Ok(d),
                });
                assert!(
                    matches!(verdict, Err(CodecError::CorruptPayload(_))),
                    "{masks} masks, {colors} colors, cut {cut}: {verdict:?}"
                );
            }
        }
    }

    #[test]
    fn blocks_with_tables_out_of_span_or_states_out_of_range_are_refused() {
        let mut model = DecModel::new();
        let parse = |model: &mut DecModel, flags: u16, levels: Range<u32>| {
            model.parse(&mut &flags.to_le_bytes()[..], levels, None)
        };
        assert_eq!(parse(&mut model, 0, 0..16), Ok(()));
        for (flags, levels) in [(0b1000, 1..3), (0b0001, 1..3), (1 << 15, 0..15)] {
            assert_eq!(
                parse(&mut model, flags, levels.clone()),
                Err(CodecError::CorruptPayload(
                    "a table for a level the stream does not carry"
                )),
                "flags {flags:#b} over {levels:?}"
            );
        }
        // In span, but the table itself never comes.
        assert_eq!(
            parse(&mut model, 0b0110, 1..3),
            Err(CodecError::CorruptPayload("frequency table is truncated"))
        );
        assert_eq!(
            model.parse(&mut &[0u8][..], 0..4, None),
            Err(CodecError::CorruptPayload("level flags are truncated"))
        );
        // States outside [2^23, 2^31) are no encoder's.
        for bad in [0u32, SEED - 1, SEED << 8, u32::MAX] {
            let mut bytes = SEED.to_le_bytes().repeat(3);
            bytes[4..8].copy_from_slice(&bad.to_le_bytes());
            assert!(RansDecoder::new(&bytes).is_err(), "state {bad:#x}");
        }
    }
}
