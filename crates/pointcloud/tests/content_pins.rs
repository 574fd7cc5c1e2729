//! Content pins: the *decoded clouds* of both codecs, by FNV-1a, and the
//! sizes of their streams, both recorded at `808808e` — the last commit of
//! the wire layouts that range-coded every color bit and every enhancement
//! residual. A layout change may move every encoded byte
//! (`seed_reference.rs` pins those) but must leave what a receiver
//! reconstructs untouched — same voxels, same order, same positions, same
//! colors — and may not pay for speed with bytes beyond the stated gate.

use volcast_geom::Vec3;
use volcast_pointcloud::codec::{
    CodecConfig, Decoder, EncodedCloud, Encoder, LayeredConfig, LayeredDecoder, LayeredEncoder,
    LayeredFrame,
};
use volcast_pointcloud::{Ladder, PointCloud, QualityLevel, SyntheticBody};
use volcast_util::hash::Fnv1a;

/// The benchmark's densities: the ladder's point counts over eight.
const DENSITY_DIVISOR: usize = 8;

fn cloud_hash(cloud: &PointCloud) -> u64 {
    let mut h = Fnv1a::new();
    for p in &cloud.points {
        for v in p.pos {
            h.write(&v.to_le_bytes());
        }
        h.write(&p.color);
    }
    h.finish()
}

/// Animation frame `frame` of `seed`'s body at `level`'s density, and that
/// level's config.
fn rung(seed: u64, level: QualityLevel, frame: u64) -> (PointCloud, CodecConfig) {
    let ladder = Ladder::paper();
    let points = ladder.quality(level).points_per_frame / DENSITY_DIVISOR;
    let cfg = CodecConfig {
        depth: ladder.depth(level),
        color_bits: CodecConfig::default().color_bits,
    };
    (
        SyntheticBody::new(seed, Vec3::ZERO).frame(frame, points),
        cfg,
    )
}

const LEVELS: [QualityLevel; 3] = [QualityLevel::Low, QualityLevel::Medium, QualityLevel::High];

/// Per seed: the `Decoder` output at depths 8 / 9 / 10 (each rung at its
/// own density), then the `LayeredDecoder` output after 1 / 2 / 3 layers of
/// the High-density frame.
const PINS: [(u64, [u64; 3], [u64; 3]); 2] = [
    (
        42,
        [0xea8a838dbdf5718a, 0x6f88a0e79c9b13d8, 0x3549dfb27b9f9f20],
        [0xe487b12559ff13c7, 0xf503811771c25beb, 0x3549dfb27b9f9f20],
    ),
    (
        7,
        [0x0342b5bf376ff03f, 0xeb50348ced2a7612, 0x8e6cd9b862c156c8],
        [0x20e805acb8fc360a, 0xf2a171a7c21d589b, 0x8e6cd9b862c156c8],
    ),
];

#[test]
fn decoded_clouds_hash_to_the_values_recorded_before_the_format_moved() {
    for (seed, want_single, want_layered) in PINS {
        let mut stream = EncodedCloud { data: Vec::new() };
        let mut decoded = PointCloud::new();
        for (level, want) in LEVELS.into_iter().zip(want_single) {
            let (cloud, cfg) = rung(seed, level, 0);
            Encoder::new().encode_into(&cloud, &cfg, &mut stream.data);
            Decoder::new().decode_into(&stream, &mut decoded).unwrap();
            let got = cloud_hash(&decoded);
            assert_eq!(got, want, "seed {seed} depth {}: {got:#x}", cfg.depth);
        }

        let (cloud, _) = rung(seed, QualityLevel::High, 0);
        let mut frame = LayeredFrame::new();
        LayeredEncoder::new().encode_into(&cloud, &LayeredConfig::default(), &mut frame);
        let mut dec = LayeredDecoder::new();
        for (k, want) in want_layered.into_iter().enumerate() {
            dec.push_layer(&frame.layers()[k]).unwrap();
            dec.reconstruct_into(&mut decoded).unwrap();
            let got = cloud_hash(&decoded);
            assert_eq!(
                got,
                want,
                "seed {seed} prefix of {} layers: {got:#x}",
                k + 1
            );
        }
    }
}

/// Per seed, in bytes at `808808e`, summed over the eight frames the codec
/// workloads cycle (animation frames 0, 3, .. 21): the single stream at
/// depths 8 / 9 / 10, then the base layer and the three layers together.
const PARENT_BYTES: [(u64, [usize; 3], usize, usize); 2] = [
    (42, [459_440, 881_192, 1_426_357], 574_697, 2_446_145),
    (7, [459_249, 882_547, 1_424_799], 573_540, 2_446_181),
];

/// The size gate. Raw low color bits cost what the adaptive model charged
/// for them, give or take its learning: a stream that carries every voxel's
/// full color may grow 1.5 %, no more. The layered frame as a whole must
/// shrink (only children send no residual), to within 1.4x the single
/// stream it refines into.
#[test]
fn streams_stay_within_the_size_gate_against_the_parent_layout() {
    for (seed, parent_single, parent_base, parent_total) in PARENT_BYTES {
        let mut single = [0usize; 3];
        let (mut base, mut total) = (0usize, 0usize);
        let mut stream = Vec::new();
        let mut frame = LayeredFrame::new();
        for k in 0..8 {
            for (bytes, level) in single.iter_mut().zip(LEVELS) {
                let (cloud, cfg) = rung(seed, level, 3 * k);
                Encoder::new().encode_into(&cloud, &cfg, &mut stream);
                *bytes += stream.len();
            }
            let (cloud, _) = rung(seed, QualityLevel::High, 3 * k);
            LayeredEncoder::new().encode_into(&cloud, &LayeredConfig::default(), &mut frame);
            base += frame.layers()[0].len();
            total += frame.total_bytes();
        }
        let grown = |now: usize, parent: usize| now as f64 / parent as f64;
        for ((now, parent), depth) in single.into_iter().zip(parent_single).zip([8, 9, 10]) {
            assert!(
                grown(now, parent) <= 1.015,
                "seed {seed} depth {depth}: {now} bytes, parent {parent}"
            );
        }
        assert!(
            grown(base, parent_base) <= 1.015,
            "seed {seed}: base layers {base} bytes, parent {parent_base}"
        );
        assert!(
            total <= parent_total && grown(total, single[2]) <= 1.4,
            "seed {seed}: {total} bytes layered, parent {parent_total}, single {}",
            single[2]
        );
    }
}

/// The ladder's layered shares are the codec's: per seed, summed over the
/// eight frames the codec workloads cycle, the layers a receiver holds at a
/// level (cut from the High-density frame) over the High level's single
/// stream. A constant more than 2 % off what the codec now measures fails;
/// so does a codec change that moves the ratio that far. Each level's own
/// single stream costs no more than the layers held for it.
#[test]
fn the_ladders_layered_shares_are_what_the_codec_measures() {
    const DRIFT: f64 = 0.02;
    let ladder = Ladder::paper();
    let mut stream = Vec::new();
    let mut frame = LayeredFrame::new();
    for seed in [42, 7] {
        let (mut single, mut held) = ([0usize; 3], [0usize; 3]);
        for k in 0..8 {
            for (bytes, level) in single.iter_mut().zip(LEVELS) {
                let (cloud, cfg) = rung(seed, level, 3 * k);
                Encoder::new().encode_into(&cloud, &cfg, &mut stream);
                *bytes += stream.len();
            }
            let (cloud, _) = rung(seed, QualityLevel::High, 3 * k);
            LayeredEncoder::new().encode_into(&cloud, &LayeredConfig::default(), &mut frame);
            for (bytes, level) in held.iter_mut().zip(LEVELS) {
                let layers = 1 + ladder.enhancement_layers(level);
                *bytes += frame.layers()[..layers].iter().map(Vec::len).sum::<usize>();
            }
        }
        let top = single[2] as f64;
        for (level, (held, single)) in LEVELS.into_iter().zip(held.into_iter().zip(single)) {
            let measured = held as f64 / top;
            let constant = ladder.quality(level).layered_share;
            assert!(
                held >= single,
                "seed {seed} {level:?}: {held} held < {single} single"
            );
            assert!(
                (constant / measured - 1.0).abs() <= DRIFT,
                "seed {seed} {level:?}: the codec measures {measured:.4}, the ladder says {constant}"
            );
        }
    }
}
