//! Reference check for the wire layout: a deliberately naive encoder
//! written from the prose in the `codec::layered`, `codec::octree` and
//! `codec::rans` module docs — frequency tables as `Vec<Vec<_>>`, a
//! symbol's start summed from its table every time, rANS with plain `/` and
//! `%` over a list of symbols built forwards and walked backwards, per-bit
//! Morton loop, comparison sort, `BTreeMap`s for every per-node and
//! per-anchor question, one `Vec<bool>` per raw plane, a fresh allocation
//! for every intermediate — sharing no helper with `src/`. The optimized
//! [`LayeredEncoder`] must emit its bytes exactly, and [`Encoder`] those of
//! its one-layer frame: on the bitmap-dedup path (depth <= 8), the packed
//! radix-sort path (depth 9..=13) and the pair path beyond, at every color
//! width. The last test pins six streams outright.
//!
//! Its decoding half, written from the same prose, reads the stream one
//! byte and one symbol at a time, finds each symbol by a linear walk over
//! its table, and keeps anchors and voxels in `BTreeMap`s. Every stream the
//! naive encoder writes must decode through [`LayeredDecoder`] (after every
//! prefix of layers) and [`Decoder`] to exactly the points it decodes to;
//! on truncated and bit-flipped layers, both must accept with the same
//! points or both refuse.

use volcast_pointcloud::codec::{
    CodecConfig, Decoder, EncodedCloud, Encoder, LayeredConfig, LayeredDecoder, LayeredEncoder,
    LayeredFrame,
};
use volcast_pointcloud::{Point, PointCloud, SyntheticBody};
use volcast_util::hash::fnv1a;
use volcast_util::rng::Rng;

// Fixed-size index loops over the three color channels read plainest.
#[allow(clippy::needless_range_loop)]
mod naive {
    use std::collections::BTreeMap;
    use volcast_geom::{Aabb, Vec3};
    use volcast_pointcloud::codec::CodecError::{
        self, CorruptPayload as Corrupt, InvalidHeader as Invalid,
    };
    use volcast_pointcloud::{Point, PointCloud};

    /// Frequencies summing to 4096 from occurrence counts.
    fn frequencies(counts: &[u64]) -> Vec<u64> {
        let n: u64 = counts.iter().sum();
        if n == 0 {
            let mut f = vec![0; counts.len()];
            f[0] = 4096;
            return f;
        }
        let mut f: Vec<u64> = counts
            .iter()
            .map(|&c| match c {
                0 => 0,
                _ => ((4096 * c + n / 2) / n).max(1),
            })
            .collect();
        // The lowest symbol holding the largest frequency.
        let top = |f: &[u64]| f.iter().position(|v| v == f.iter().max().unwrap()).unwrap();
        let sum: u64 = f.iter().sum();
        if sum <= 4096 {
            let t = top(&f);
            f[t] += 4096 - sum;
        } else {
            let mut excess = sum - 4096;
            while excess > 0 {
                let t = top(&f);
                let take = excess.min(f[t] - 1);
                f[t] -= take;
                excess -= take;
            }
        }
        f
    }

    /// A table on the wire.
    fn table_bytes(f: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut s = 0;
        while s < f.len() {
            if f[s] == 0 {
                let mut z = 0;
                while s + z < f.len() && f[s + z] == 0 {
                    z += 1;
                }
                out.push(0);
                out.push((z - 1) as u8);
                s += z;
            } else {
                if f[s] <= 127 {
                    out.push(f[s] as u8);
                } else {
                    out.push(0x80 | (f[s] >> 8) as u8);
                    out.push((f[s] & 0xFF) as u8);
                }
                s += 1;
            }
        }
        out
    }

    /// What a symbol of frequency `f` is priced at, in 256ths of a bit. (The
    /// epsilon keeps the powers of two, where the product is a whole
    /// number, from being rounded up by a float's last bit.)
    fn price(f: u64) -> u64 {
        (256.0 * (4096.0 / f as f64).log2() - 1e-9).ceil() as u64
    }

    /// One symbol as the coder sees it: which state codes it, and its
    /// interval in its table.
    struct Symbol {
        state: usize,
        start: u64,
        freq: u64,
    }

    fn symbol(state: usize, table: &[u64], s: usize) -> Symbol {
        Symbol {
            state,
            start: table[..s].iter().sum(),
            freq: table[s],
        }
    }

    /// The three states and the bytes, for `symbols` in wire order.
    fn rans(symbols: &[Symbol]) -> Vec<u8> {
        let mut states = [1u64 << 23; 3];
        let mut emitted = Vec::new();
        for sym in symbols.iter().rev() {
            let x = &mut states[sym.state];
            while *x >= sym.freq << 19 {
                emitted.push((*x & 0xFF) as u8);
                *x >>= 8;
            }
            *x = ((*x / sym.freq) << 12) + *x % sym.freq + sym.start;
        }
        let mut out = Vec::new();
        for x in states {
            out.extend_from_slice(&(x as u32).to_le_bytes());
        }
        emitted.reverse();
        out.extend_from_slice(&emitted);
        out
    }

    /// The entropy block of a stream that carries the levels `first..depth`:
    /// `masks` are its nodes in wire order as (level, child mask), `colors`
    /// the high bits of its color values in wire order, from an alphabet of
    /// `alphabet` symbols.
    fn entropy_block(
        first: u32,
        depth: u32,
        masks: &[(u32, u8)],
        colors: &[[u32; 3]],
        alphabet: usize,
    ) -> Vec<u8> {
        let mut flags = 0u16;
        let mut tables = Vec::new();
        // Per level, the frequency of each of the 256 byte values.
        let mut level_tables: Vec<Vec<u64>> = vec![Vec::new(); depth as usize];
        for level in first..depth {
            let mut counts = vec![0u64; 255];
            for &(l, mask) in masks {
                if l == level {
                    counts[mask as usize - 1] += 1;
                }
            }
            let f = frequencies(&counts);
            let bytes = table_bytes(&f);
            let nodes: u64 = counts.iter().sum();
            let coded: u64 = (0..255)
                .filter(|&s| counts[s] > 0)
                .map(|s| counts[s] * price(f[s]))
                .sum();
            if 2048 * bytes.len() as u64 + coded < 2048 * nodes {
                flags |= 1 << level;
                tables.extend_from_slice(&bytes);
                level_tables[level as usize] = [vec![0], f].concat();
            } else {
                level_tables[level as usize] = vec![16; 256]; // raw
            }
        }
        // Color tables per channel and context, if any color is sent.
        let mut color_tables: Vec<Vec<Vec<u64>>> = Vec::new();
        if !colors.is_empty() {
            for ch in 0..3 {
                let mut counts = vec![vec![0u64; alphabet]; alphabet];
                let mut ctx = 0;
                for value in colors {
                    counts[ctx][value[ch] as usize] += 1;
                    ctx = value[ch] as usize;
                }
                let per_ctx: Vec<Vec<u64>> = counts.iter().map(|c| frequencies(c)).collect();
                for f in &per_ctx {
                    tables.extend_from_slice(&table_bytes(f));
                }
                color_tables.push(per_ctx);
            }
        }

        let mut symbols = Vec::new();
        for (i, &(level, mask)) in masks.iter().enumerate() {
            symbols.push(symbol(i % 3, &level_tables[level as usize], mask as usize));
        }
        let mut ctx = [0usize; 3];
        for value in colors {
            for ch in 0..3 {
                let s = value[ch] as usize;
                symbols.push(symbol(ch, &color_tables[ch][ctx[ch]], s));
                ctx[ch] = s;
            }
        }

        let mut block = flags.to_le_bytes().to_vec();
        block.extend_from_slice(&tables);
        block.extend_from_slice(&rans(&symbols));
        block
    }

    /// A raw plane, one `bool` per bit in wire order.
    struct Plane {
        bits: Vec<bool>,
    }
    impl Plane {
        /// The low `raw` bits of `value`, least significant first.
        fn push(&mut self, value: u32, raw: u32) {
            for i in 0..raw {
                self.bits.push((value >> i) & 1 == 1);
            }
        }
        /// Bit `i` of the plane is bit `i % 8` of byte `i / 8`.
        fn bytes(&self) -> Vec<u8> {
            let mut out = vec![0u8; self.bits.len().div_ceil(8)];
            for (i, &bit) in self.bits.iter().enumerate() {
                out[i / 8] |= (bit as u8) << (i % 8);
            }
            out
        }
    }

    /// Splits one color value: low bits onto the plane, channel by
    /// channel; the high bits are the value's three symbols.
    fn split_color(plane: &mut Plane, value: [u32; 3], color_bits: u32) -> [u32; 3] {
        let raw = color_bits / 2;
        for ch in 0..3 {
            plane.push(value[ch], raw);
        }
        value.map(|v| v >> raw)
    }

    fn morton_encode(x: u32, y: u32, z: u32, depth: u32) -> u64 {
        let mut code = 0u64;
        for i in (0..depth).rev() {
            code = (code << 3)
                | (((x >> i) & 1) as u64) << 2
                | (((y >> i) & 1) as u64) << 1
                | ((z >> i) & 1) as u64;
        }
        code
    }

    /// Per voxel code: channel sums and merged point count.
    type Voxels = BTreeMap<u64, ([u64; 3], u64)>;

    fn bounds_of(cloud: &PointCloud) -> (Aabb, f64) {
        let bounds = if cloud.is_empty() {
            Aabb::new(Vec3::ZERO, Vec3::ZERO)
        } else {
            cloud.bounds()
        };
        (bounds, bounds.extent().max_component().max(1e-6))
    }

    fn voxelize(cloud: &PointCloud, depth: u32) -> Voxels {
        let (bounds, extent) = bounds_of(cloud);
        let levels = 1u32 << depth;
        let scale = levels as f64 / extent;
        let mut voxels = Voxels::new();
        for p in &cloud.points {
            let rel = (p.position() - bounds.min) * scale;
            let q = |v: f64| (v.floor() as i64).clamp(0, (levels - 1) as i64) as u32;
            let v = voxels
                .entry(morton_encode(q(rel.x), q(rel.y), q(rel.z), depth))
                .or_default();
            for ch in 0..3 {
                v.0[ch] += p.color[ch] as u64;
            }
            v.1 += 1;
        }
        voxels
    }

    /// The voxels `levels` levels up: children merge into their prefix.
    fn coarsen(voxels: &Voxels, levels: u32) -> Voxels {
        let mut out = Voxels::new();
        for (&code, &(sums, count)) in voxels {
            let v = out.entry(code >> (3 * levels)).or_default();
            for ch in 0..3 {
                v.0[ch] += sums[ch];
            }
            v.1 += count;
        }
        out
    }

    /// Floor-average per channel, top `color_bits` bits.
    fn quantized(&(sums, count): &([u64; 3], u64), color_bits: u32) -> [u32; 3] {
        sums.map(|s| (s / count) as u32 >> (8 - color_bits))
    }

    fn push_bounds(data: &mut Vec<u8>, cloud: &PointCloud) {
        let (bounds, extent) = bounds_of(cloud);
        for v in [bounds.min.x, bounds.min.y, bounds.min.z, extent, 0.0, 0.0] {
            data.extend_from_slice(&(v as f32).to_le_bytes());
        }
    }

    /// Level `level`'s nodes of a depth-`depth` voxel set: prefix → mask.
    fn nodes_at(voxels: &Voxels, depth: u32, level: u32) -> BTreeMap<u64, u8> {
        let below = 3 * (depth - level);
        let mut nodes = BTreeMap::new();
        for &code in voxels.keys() {
            *nodes.entry(code >> below).or_default() |= 1u8 << ((code >> (below - 3)) & 0b111);
        }
        nodes
    }

    /// The layer stack, base first.
    pub fn encode_layers(cloud: &PointCloud, depths: &[u32], color_bits: u32) -> Vec<Vec<u8>> {
        let full_depth = *depths.last().unwrap();
        let full = voxelize(cloud, full_depth);
        let cmask = (1u32 << color_bits) - 1;
        let mut layers = Vec::new();
        let mut prev_depth = 0u32;
        let mut prev = Voxels::new();
        for (k, &depth) in depths.iter().enumerate() {
            let voxels = coarsen(&full, full_depth - depth);
            // How many of this layer's voxels descend from each anchor.
            let mut children = BTreeMap::<u64, usize>::new();
            for &code in voxels.keys() {
                *children
                    .entry(code >> (3 * (depth - prev_depth)))
                    .or_default() += 1;
            }

            // Level-major: each level of the span as it lies.
            let mut masks = Vec::new();
            if !voxels.is_empty() {
                for level in prev_depth..depth {
                    for &mask in nodes_at(&voxels, depth, level).values() {
                        masks.push((level, mask));
                    }
                }
            }
            let mut plane = Plane { bits: Vec::new() };
            let mut colors = Vec::new();
            for (&code, v) in &voxels {
                let anchor_code = code >> (3 * (depth - prev_depth));
                let anchor = if k == 0 {
                    [0; 3] // the virtual root
                } else if children[&anchor_code] == 1 {
                    continue; // an only child: nothing is sent
                } else {
                    quantized(&prev[&anchor_code], color_bits)
                };
                let q = quantized(v, color_bits);
                let residual = [0, 1, 2].map(|ch| q[ch].wrapping_sub(anchor[ch]) & cmask);
                colors.push(split_color(&mut plane, residual, color_bits));
            }

            let mut data = Vec::new();
            data.extend_from_slice(b"VLY3");
            data.push(k as u8);
            data.push(depths.len() as u8);
            data.push(depth as u8);
            data.push(color_bits as u8);
            data.extend_from_slice(&(voxels.len() as u32).to_le_bytes());
            data.extend_from_slice(&(colors.len() as u32).to_le_bytes());
            data.push(prev_depth as u8);
            data.extend_from_slice(&(prev.len() as u32).to_le_bytes());
            if k == 0 {
                push_bounds(&mut data, cloud);
            }
            if !voxels.is_empty() {
                let alphabet = 1usize << (color_bits - color_bits / 2);
                data.extend_from_slice(&plane.bytes());
                data.extend_from_slice(&entropy_block(
                    prev_depth, depth, &masks, &colors, alphabet,
                ));
            }
            layers.push(data);
            prev_depth = depth;
            prev = voxels;
        }
        layers
    }

    /// What a decoder holds after the layers it accepted so far.
    pub struct Accepted {
        depth: u32,
        color_bits: u32,
        total: u8,
        next_layer: u8,
        min: [f64; 3],
        extent: f64,
        /// Voxel code → quantized color.
        voxels: BTreeMap<u64, [u32; 3]>,
    }

    /// A byte stream read one byte at a time; past its end it yields zeros
    /// and keeps counting, so the caller can tell.
    struct Bytes<'a> {
        data: &'a [u8],
        pos: usize,
    }
    impl Bytes<'_> {
        fn next(&mut self) -> u8 {
            let byte = if self.pos < self.data.len() {
                self.data[self.pos]
            } else {
                0
            };
            self.pos += 1;
            byte
        }
        /// The next byte of a table block, which must be there.
        fn table_byte(&mut self, why: &'static str) -> Result<u8, CodecError> {
            if self.pos >= self.data.len() {
                return Err(Corrupt(why));
            }
            Ok(self.next())
        }
    }

    /// `n` frequencies off the front of `bytes`, summing to 4096.
    fn read_table(bytes: &mut Bytes, n: usize) -> Result<Vec<u64>, CodecError> {
        let truncated = "frequency table is truncated";
        let mut f: Vec<u64> = Vec::new();
        while f.len() < n {
            let b = bytes.table_byte(truncated)?;
            if b == 0 {
                let z = bytes.table_byte(truncated)? as usize + 1;
                if f.len() + z > n {
                    return Err(Corrupt("zero run overruns its frequency table"));
                }
                f.resize(f.len() + z, 0);
            } else if b <= 127 {
                f.push(b as u64);
            } else {
                let v = ((b & 0x7F) as u64) * 256 + bytes.table_byte(truncated)? as u64;
                if v <= 127 {
                    return Err(Corrupt("frequency is not in its shortest form"));
                }
                f.push(v);
            }
        }
        if f.iter().sum::<u64>() != 4096 {
            return Err(Corrupt("frequencies do not sum to 4096"));
        }
        Ok(f)
    }

    /// The rANS side of a stream: three states over the bytes behind them.
    struct Rans<'a> {
        states: [u64; 3],
        bytes: Bytes<'a>,
    }
    impl Rans<'_> {
        /// Takes the symbol under `state`'s slot in `table`.
        fn decode(&mut self, state: usize, table: &[u64]) -> usize {
            let x = self.states[state];
            let slot = x % 4096;
            let mut start = 0;
            let mut s = 0;
            while !(start <= slot && slot < start + table[s]) {
                start += table[s];
                s += 1;
            }
            let mut x = table[s] * (x / 4096) + slot - start;
            while x < 1 << 23 {
                x = x * 256 + self.bytes.next() as u64;
            }
            self.states[state] = x;
            s
        }
    }

    fn morton_decode(code: u64, depth: u32) -> [u64; 3] {
        let mut xyz = [0u64; 3];
        for i in 0..depth {
            for axis in 0..3 {
                xyz[axis] |= ((code >> (3 * i + 2 - axis as u32)) & 1) << i;
            }
        }
        xyz
    }

    /// Takes one layer on top of `below` (none: no layer accepted, or the
    /// frame was refused). Its checks, and the errors they report, come in
    /// the order the decoders make them.
    pub fn decode_layer(below: Option<&Accepted>, data: &[u8]) -> Result<Accepted, CodecError> {
        if data.len() < 21 {
            return Err(CodecError::TruncatedHeader);
        }
        if &data[0..4] != b"VLY3" {
            return Err(CodecError::BadMagic);
        }
        let (layer, total) = (data[4], data[5]);
        let (depth, color_bits) = (data[6] as u32, data[7] as u32);
        let u32_at = |at: usize| {
            data[at] as u64
                | (data[at + 1] as u64) << 8
                | (data[at + 2] as u64) << 16
                | (data[at + 3] as u64) << 24
        };
        let (count, coded) = (u32_at(8) as usize, u32_at(12) as usize);
        let (prev_depth, prev_count) = (data[16] as u32, u32_at(17) as usize);
        if depth == 0 || depth > 16 {
            return Err(Invalid("depth out of range"));
        }
        if color_bits == 0 || color_bits > 8 {
            return Err(Invalid("color_bits out of range"));
        }
        if depth < 11 && count as u64 > 1u64 << (3 * depth) {
            return Err(Invalid("count exceeds tree capacity"));
        }
        if total == 0 || total > 4 || layer >= total {
            return Err(Invalid("layer index out of range"));
        }
        let mut at = 21;
        let (min, extent);
        let mut anchors = BTreeMap::new();
        if layer == 0 {
            if data.len() < 45 {
                return Err(CodecError::TruncatedHeader);
            }
            if prev_depth != 0 || prev_count != 0 {
                return Err(Invalid("base layer with a parent"));
            }
            if coded != count {
                return Err(Invalid("a base layer codes every voxel"));
            }
            let f32_at = |at: usize| f32::from_le_bytes(data[at..at + 4].try_into().unwrap());
            min = [f32_at(21) as f64, f32_at(25) as f64, f32_at(29) as f64];
            extent = f32_at(33) as f64;
            if count > 0 && !(extent.is_finite() && extent > 0.0) {
                return Err(Invalid("bad extent"));
            }
            at = 45;
            anchors.insert(0u64, [0u32; 3]); // the virtual root
        } else {
            let Some(below) = below else {
                return Err(Invalid("enhancement without a base"));
            };
            if layer != below.next_layer || total != below.total {
                return Err(Invalid("layer out of sequence"));
            }
            if depth <= below.depth || prev_depth != below.depth {
                return Err(Invalid("layer depth not increasing"));
            }
            if color_bits != below.color_bits {
                return Err(Invalid("color_bits changed mid-frame"));
            }
            if prev_count != below.voxels.len() {
                return Err(Invalid("parent count mismatch"));
            }
            if count < prev_count || (prev_count == 0 && count != 0) {
                return Err(Invalid("count not monotone"));
            }
            if coded > count {
                return Err(Invalid("more residuals than voxels"));
            }
            (min, extent) = (below.min, below.extent);
            anchors = below.voxels.clone();
        }
        let mut accepted = Accepted {
            depth,
            color_bits,
            total,
            next_layer: layer + 1,
            min,
            extent,
            voxels: BTreeMap::new(),
        };
        if count == 0 {
            return Ok(accepted);
        }

        // The raw plane, one bool per bit.
        let raw = color_bits / 2;
        let plane_len = (coded * 3 * raw as usize).div_ceil(8);
        if plane_len > data.len() - at {
            return Err(Corrupt("raw color plane is truncated"));
        }
        let mut plane = Vec::new();
        for &byte in &data[at..at + plane_len] {
            for i in 0..8 {
                plane.push((byte >> i) & 1 == 1);
            }
        }
        let mut bytes = Bytes {
            data: &data[at + plane_len..],
            pos: 0,
        };

        // Tables: level flags, mask tables, color tables.
        if bytes.data.len() < 2 {
            return Err(Corrupt("level flags are truncated"));
        }
        let flags = bytes.next() as u32 | (bytes.next() as u32) << 8;
        for level in 0..16 {
            if flags >> level & 1 == 1 && !(prev_depth..depth).contains(&level) {
                return Err(Corrupt("a table for a level the stream does not carry"));
            }
        }
        let mut mask_tables: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for level in prev_depth..depth {
            let table = if flags >> level & 1 == 1 {
                [vec![0], read_table(&mut bytes, 255)?].concat()
            } else {
                vec![16; 256] // raw
            };
            mask_tables.insert(level, table);
        }
        let alphabet = 1usize << (color_bits - raw);
        let mut color_tables = vec![Vec::new(); 3];
        if coded > 0 {
            for tables in color_tables.iter_mut() {
                for _ in 0..alphabet {
                    tables.push(read_table(&mut bytes, alphabet)?);
                }
            }
        }

        // The states.
        let mut rans = Rans {
            states: [0; 3],
            bytes,
        };
        for state in 0..3 {
            let mut x = 0u64;
            for i in 0..4 {
                x |= (rans.bytes.next() as u64) << (8 * i);
            }
            rans.states[state] = x;
        }
        if rans
            .states
            .iter()
            .any(|x| !((1 << 23)..(1 << 31)).contains(x))
        {
            return Err(Corrupt("rANS state out of range"));
        }

        // Occupancy, level by level; mask `i` of the stream on state i % 3.
        let mut nodes: Vec<u64> = anchors.keys().copied().collect();
        let mut i = 0;
        for level in prev_depth..depth {
            let mut next = Vec::new();
            for &node in &nodes {
                let mask = rans.decode(i % 3, &mask_tables[&level]);
                i += 1;
                if mask == 0 {
                    return Err(Corrupt("a node without children"));
                }
                for child in 0..8 {
                    if mask >> child & 1 == 1 {
                        next.push(node * 8 + child as u64);
                    }
                }
                if next.len() > count {
                    return Err(Corrupt("layer expands beyond the declared count"));
                }
            }
            nodes = next;
        }
        if nodes.len() != count {
            return Err(Corrupt("layer decodes fewer voxels than declared"));
        }
        if rans.bytes.pos > rans.bytes.data.len() {
            return Err(Corrupt(
                "rANS decoder ran past the end of the occupancy stream",
            ));
        }

        // Colors: one residual per voxel that is not an only child (every
        // voxel of a base layer), channel c on state c.
        let pshift = 3 * (depth - prev_depth);
        let mut children = BTreeMap::<u64, usize>::new();
        for &code in &nodes {
            *children.entry(code >> pshift).or_default() += 1;
        }
        let sent = |code: u64| layer == 0 || children[&(code >> pshift)] > 1;
        if nodes.iter().filter(|&&c| sent(c)).count() != coded {
            return Err(Corrupt(
                "coded residuals disagree with the decoded occupancy",
            ));
        }
        let cmask = (1u32 << color_bits) - 1;
        let (mut ctx, mut bit) = ([0usize; 3], 0);
        for &code in &nodes {
            let anchor = anchors[&(code >> pshift)];
            if !sent(code) {
                accepted.voxels.insert(code, anchor);
                continue;
            }
            let mut q = [0u32; 3];
            for ch in 0..3 {
                let s = rans.decode(ch, &color_tables[ch][ctx[ch]]);
                ctx[ch] = s;
                let mut low = 0u32;
                for b in 0..raw {
                    low |= (plane[bit] as u32) << b;
                    bit += 1;
                }
                q[ch] = (anchor[ch] + ((s as u32) << raw | low)) & cmask;
            }
            accepted.voxels.insert(code, q);
        }
        if rans.states != [1 << 23; 3] || rans.bytes.pos != rans.bytes.data.len() {
            return Err(Corrupt(
                "rANS states did not return to their seed at the end of the stream",
            ));
        }
        Ok(accepted)
    }

    /// The points `a` reconstructs to, in code order.
    pub fn points(a: &Accepted) -> Vec<Point> {
        let voxel = a.extent / (1u64 << a.depth) as f64;
        let shift = 8 - a.color_bits;
        let mut points = Vec::new();
        for (&code, q) in &a.voxels {
            let xyz = morton_decode(code, a.depth);
            let pos = [0, 1, 2].map(|axis| (a.min[axis] + (xyz[axis] as f64 + 0.5) * voxel) as f32);
            let color = q.map(|v| ((v << shift) + (1 << shift) / 2).min(255) as u8);
            points.push(Point::new(pos, color));
        }
        points
    }
}

/// `LayeredDecoder`, fed `layers` one at a time, and `Decoder`, fed the
/// first, against the naive decoder on the same prefix: the same points,
/// or the same error. A refused layer leaves nothing accepted, and the
/// next is decoded from there, as the decoders do. Returns whether the
/// whole frame decoded.
fn assert_decoders_match_naive(layers: &[&[u8]], what: &str) -> bool {
    let mut dec = LayeredDecoder::new();
    let mut got = PointCloud::new();
    let mut below = None;
    let mut base = None;
    for (k, layer) in layers.iter().enumerate() {
        let accepted = naive::decode_layer(below.as_ref(), layer);
        let want = accepted.as_ref().map(naive::points).map_err(Clone::clone);
        let real = dec
            .push_layer(layer)
            .and_then(|()| dec.reconstruct_into(&mut got))
            .map(|_| got.points.clone());
        assert!(
            want == real,
            "{what}, {} layers: naive {:?}, optimized {:?}",
            k + 1,
            want.as_ref().err(),
            real.as_ref().err()
        );
        if k == 0 {
            base = Some(want);
        }
        below = accepted.ok();
    }
    let single = EncodedCloud {
        data: layers[0].to_vec(),
    };
    let single = Decoder::new()
        .decode_into(&single, &mut got)
        .map(|_| got.points);
    assert!(
        Some(single) == base,
        "{what}: the base layer through Decoder"
    );
    below.is_some()
}

fn assert_matches_naive(enc: &mut Encoder, cloud: &PointCloud, cfg: &CodecConfig) {
    let mut stream = Vec::new();
    enc.encode_into(cloud, cfg, &mut stream);
    let want = naive::encode_layers(cloud, &[cfg.depth], cfg.color_bits);
    let what = format!(
        "depth {} color_bits {} ({} points)",
        cfg.depth,
        cfg.color_bits,
        cloud.len()
    );
    assert!(
        want == [stream],
        "naive and arena encoders diverged at {what}"
    );
    assert!(assert_decoders_match_naive(&[&want[0]], &what));
}

/// The frame of one layer that `cfg`'s single stream is.
fn one_layer(cfg: &CodecConfig) -> LayeredConfig {
    LayeredConfig {
        depths: vec![cfg.depth],
        color_bits: cfg.color_bits,
    }
}

fn assert_layers_match_naive(enc: &mut LayeredEncoder, cloud: &PointCloud, cfg: &LayeredConfig) {
    let mut frame = LayeredFrame::new();
    enc.encode_into(cloud, cfg, &mut frame);
    let want = naive::encode_layers(cloud, &cfg.depths, cfg.color_bits);
    let what = format!(
        "depths {:?} color_bits {} ({} points)",
        cfg.depths,
        cfg.color_bits,
        cloud.len()
    );
    assert_eq!(frame.layers().len(), want.len());
    for (k, (got, want)) in frame.layers().iter().zip(&want).enumerate() {
        assert!(got == want, "naive and arena layer {k} diverged at {what}");
    }
    let layers: Vec<&[u8]> = want.iter().map(|l| &l[..]).collect();
    assert!(assert_decoders_match_naive(&layers, &what));
}

/// Every depth the format allows: depths 1..=8 take the bitmap, 9..=13 the
/// packed radix sort, 14..=16 the `(code, rgb)` pair path.
#[test]
fn single_stream_matches_the_naive_encoder_at_every_depth() {
    let body = SyntheticBody::default();
    for depth in 1..=16u32 {
        let cloud = body.frame(depth as u64, if depth <= 10 { 12_000 } else { 5_000 });
        let cfg = CodecConfig {
            depth,
            color_bits: 6,
        };
        assert_matches_naive(&mut Encoder::new(), &cloud, &cfg);
        assert_layers_match_naive(&mut LayeredEncoder::new(), &cloud, &one_layer(&cfg));
    }
}

/// Every color width: `raw` runs 0, 1, 1, 2, 2, 3, 3, 4, so width 1 has no
/// plane at all and width 8 the widest values.
#[test]
fn both_formats_match_the_naive_encoder_at_every_color_width() {
    let cloud = SyntheticBody::default().frame(2, 6_000);
    for color_bits in 1..=8 {
        for depth in [5, 10, 14] {
            let cfg = CodecConfig { depth, color_bits };
            assert_matches_naive(&mut Encoder::new(), &cloud, &cfg);
            assert_layers_match_naive(&mut LayeredEncoder::new(), &cloud, &one_layer(&cfg));
        }
        for depths in [vec![4, 7, 9], vec![3, 14]] {
            assert_layers_match_naive(
                &mut LayeredEncoder::new(),
                &cloud,
                &LayeredConfig { depths, color_bits },
            );
        }
    }
}

/// Layer shapes: the ladder, one layer, adjacent depths at the top and the
/// bottom of the tree, a wide span, the full four — on a dense cloud and
/// on one so sparse that nearly every deep voxel is an only child.
#[test]
fn layered_stream_matches_the_naive_encoder_on_every_layer_shape() {
    let body = SyntheticBody::default();
    let dense = body.frame(0, 40_000);
    let sparse = body.frame(1, 300);
    for depths in [
        vec![8, 9, 10],
        vec![6],
        vec![1, 2],
        vec![15, 16],
        vec![2, 11],
        vec![3, 6, 8, 10],
    ] {
        let cfg = LayeredConfig {
            depths,
            color_bits: 6,
        };
        assert_layers_match_naive(&mut LayeredEncoder::new(), &dense, &cfg);
        assert_layers_match_naive(&mut LayeredEncoder::new(), &sparse, &cfg);
    }
}

#[test]
fn both_formats_match_the_naive_encoder_on_degenerate_clouds() {
    let one_point = SyntheticBody::default().frame(3, 1);
    let p = Point::new([0.25, -1.0, 3.5], [90, 200, 17]);
    let stacked = PointCloud::from_points(vec![p, p, Point::new(p.pos, [91, 3, 255])]);
    for cloud in [PointCloud::new(), one_point, stacked] {
        let cfg = CodecConfig::default();
        assert_matches_naive(&mut Encoder::new(), &cloud, &cfg);
        for lcfg in [LayeredConfig::default(), one_layer(&cfg)] {
            assert_layers_match_naive(&mut LayeredEncoder::new(), &cloud, &lcfg);
        }
    }
}

/// Reused encoders must agree with the reference on every frame, not only
/// the first. The bitmap is carried across calls, all-zero only if every
/// frame clears what it set, so one encoder of each kind crosses every
/// dedup path (an empty cloud takes the radix path) and grows and shrinks
/// the key space: a stale bit would show up as a voxel no point made.
#[test]
fn reused_encoders_match_the_naive_encoder_across_frames() {
    let body = SyntheticBody::default();
    let mut enc = Encoder::new();
    let mut lenc = LayeredEncoder::new();
    let schedule = [
        (8, 41_000),
        (3, 500),
        (8, 0),
        (1, 1),
        (10, 20_000),
        (7, 35_000),
        (8, 5_000),
        (13, 3_000),
        (15, 2_000),
        (8, 20_000),
    ];
    for (frame, (depth, points)) in schedule.into_iter().enumerate() {
        let cloud = body.frame(frame as u64, points);
        let cfg = CodecConfig {
            depth,
            color_bits: 6,
        };
        assert_matches_naive(&mut enc, &cloud, &cfg);
        let lcfg = LayeredConfig {
            depths: if depth > 2 {
                vec![depth - 2, depth]
            } else {
                vec![depth]
            },
            color_bits: 5,
        };
        assert_layers_match_naive(&mut lenc, &cloud, &lcfg);
    }
}

fn ladder_frame(seed: u64, points: usize) -> Vec<Vec<u8>> {
    let cloud = SyntheticBody::default().frame(seed, points);
    naive::encode_layers(&cloud, &LayeredConfig::default().depths, 6)
}

/// Every cut of every layer of a ladder frame, behind the intact layers
/// below it: the naive decoder refuses each, and so do the optimized ones.
#[test]
fn every_truncation_is_refused_by_the_naive_decoder_and_the_optimized_ones() {
    for (seed, points) in [(2, 400), (5, 700)] {
        let frame = ladder_frame(seed, points);
        for (k, layer) in frame.iter().enumerate() {
            for cut in 0..layer.len() {
                let mut layers: Vec<&[u8]> = frame[..k].iter().map(|l| &l[..]).collect();
                layers.push(&layer[..cut]);
                let what = format!("seed {seed}, layer {k} cut at {cut}");
                assert!(!assert_decoders_match_naive(&layers, &what), "{what}");
            }
        }
    }
}

/// Seeded single-bit flips anywhere in a ladder frame's layers — header,
/// plane, tables, states, rANS bytes: the naive decoder and the optimized
/// ones accept the same mutants with the same points and refuse the rest.
#[test]
fn bit_flipped_layers_decode_as_the_naive_decoder_says() {
    let frame = ladder_frame(2, 3_000);
    let mut rng = Rng::seed_from_u64(0xb17_f11b);
    let mut accepted = 0;
    for trial in 0..500 {
        let k = trial % frame.len();
        let mut mutant = frame[k].clone();
        let byte = rng.gen_range(0..mutant.len() as u64) as usize;
        mutant[byte] ^= 1 << rng.gen_range(0..8u64);
        let mut layers: Vec<&[u8]> = frame[..k].iter().map(|l| &l[..]).collect();
        layers.push(&mutant);
        let what = format!("trial {trial}: layer {k}, byte {byte}");
        accepted += assert_decoders_match_naive(&layers, &what) as usize;
    }
    // Flips in a raw plane decode, to other colors; nearly all the others
    // are refused. Both kinds must have been exercised.
    assert!(0 < accepted && accepted < 250, "{accepted} of 500 accepted");
}

/// Golden bytes: the single stream at the ladder's depths and the three
/// default layers of one frame, by FNV-1a.
#[test]
fn both_wire_formats_hash_to_their_pinned_values() {
    let cloud = SyntheticBody::default().frame(0, 20_000);
    let mut stream = Vec::new();
    for (depth, want) in [
        (8, 0x75fc22b65003b733_u64),
        (9, 0x80c951eef4f90d59),
        (10, 0x53e036409049b091),
    ] {
        let cfg = CodecConfig {
            depth,
            color_bits: 6,
        };
        Encoder::new().encode_into(&cloud, &cfg, &mut stream);
        assert_eq!(fnv1a(&stream), want, "single stream, depth {depth}");
    }
    let mut frame = LayeredFrame::new();
    LayeredEncoder::new().encode_into(&cloud, &LayeredConfig::default(), &mut frame);
    let got: Vec<u64> = frame.layers().iter().map(|l| fnv1a(l)).collect();
    let want = [0x5326fac26a5fdea1, 0xcbe596e1e49dfb88, 0x594bfc3e63f4419b];
    assert_eq!(got, want, "layers");
}
