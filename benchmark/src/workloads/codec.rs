//! `codec_ladder` and `codec_layered`: one video frame per step through
//! the single-stream data path at the ladder's bottom and top rungs, or
//! through the layered path plus FEC. No simulator layer runs.

use super::{steps, Digest};
use crate::harness::{Metrics, RoundSummary, RunConfig, TracedRound, Workload};
use crate::trace::Recorder;
use volcast_geom::Vec3;
use volcast_net::fec;
use volcast_pointcloud::codec::{
    CodecConfig, CodecStats, Decoder, EncodedCloud, Encoder, LayeredConfig, LayeredDecoder,
    LayeredEncoder, LayeredFrame,
};
use volcast_pointcloud::{Ladder, PointCloud, QualityLevel, SyntheticBody};
use volcast_util::hash::fnv1a;

/// Walk-cycle frames pre-generated per density and cycled by the steps.
const FRAMES: usize = 8;
/// Animation frames between two of them: eight frames span one gait cycle.
const FRAME_STRIDE: u64 = 3;
/// The workloads run the ladder's depths at a quarter of its point counts
/// (82.5K / 107.5K / 137.5K points), so a 100-step round fits the run's
/// time cap. `pointcloud.codec.frame_budget_ratio` alone is measured at
/// the full High rung.
const DENSITY_DIVISOR: usize = 8;
const SMOKE_POINTS: usize = 10_000;
/// One frame interval at 30 fps, the budget encode + decode must fit in.
const FRAME_BUDGET_MS: f64 = 1e3 / 30.0;

/// One rung: its depth, its point count here and at the full ladder.
#[derive(Clone, Copy)]
struct Rung {
    cfg: CodecConfig,
    points: usize,
    full_points: usize,
}

fn rung(level: QualityLevel, smoke: bool) -> Rung {
    let ladder = Ladder::paper();
    let full = ladder.quality(level).points_per_frame;
    let (points, full_points) = if smoke {
        (SMOKE_POINTS, SMOKE_POINTS)
    } else {
        (full / DENSITY_DIVISOR, full)
    };
    Rung {
        cfg: CodecConfig {
            depth: ladder.depth(level),
            color_bits: CodecConfig::default().color_bits,
        },
        points,
        full_points,
    }
}

fn frames(body: &SyntheticBody, points: usize) -> Vec<PointCloud> {
    (0..FRAMES as u64)
        .map(|k| body.frame(k * FRAME_STRIDE, points))
        .collect()
}

/// Encoder, decoder and their buffers, reused across steps like a
/// streaming sender and receiver would.
struct Codec {
    enc: Encoder,
    dec: Decoder,
    stream: EncodedCloud,
    decoded: PointCloud,
}

impl Codec {
    fn new() -> Codec {
        Codec {
            enc: Encoder::new(),
            dec: Decoder::new(),
            stream: EncodedCloud { data: Vec::new() },
            decoded: PointCloud::new(),
        }
    }

    /// Encodes then decodes `cloud` inside the two named spans and checks
    /// the round trip: the decoder returns exactly the encoder's voxels.
    fn round_trip(
        &mut self,
        cloud: &PointCloud,
        cfg: &CodecConfig,
        spans: [&'static str; 2],
        rec: &mut Recorder,
    ) -> Result<CodecStats, String> {
        let stats = rec.scope(spans[0], |_| {
            self.enc.encode_into(cloud, cfg, &mut self.stream.data)
        });
        let decoded = rec
            .scope(spans[1], |_| {
                self.dec.decode_into(&self.stream, &mut self.decoded)
            })
            .map_err(|e| format!("depth {} decode: {e}", cfg.depth))?;
        if decoded != stats.voxels || self.decoded.points.len() != stats.voxels {
            return Err(format!(
                "depth {}: decoded {decoded} points, the encoder reported {} voxels",
                cfg.depth, stats.voxels
            ));
        }
        Ok(stats)
    }
}

pub struct LadderInputs {
    body: SyntheticBody,
    low: Rung,
    medium: Rung,
    high: Rung,
    low_frames: Vec<PointCloud>,
    high_frames: Vec<PointCloud>,
    steps: usize,
}

impl LadderInputs {
    pub fn build(cfg: &RunConfig) -> Result<LadderInputs, String> {
        let body = SyntheticBody::new(cfg.seed, Vec3::ZERO);
        let low = rung(QualityLevel::Low, cfg.smoke);
        let high = rung(QualityLevel::High, cfg.smoke);
        Ok(LadderInputs {
            low_frames: frames(&body, low.points),
            high_frames: frames(&body, high.points),
            body,
            low,
            medium: rung(QualityLevel::Medium, cfg.smoke),
            high,
            steps: steps(cfg),
        })
    }
}

#[derive(Default)]
struct LadderAcc {
    input_points: u64,
    decoded_points: u64,
    bytes_low: u64,
    bytes_high: u64,
    voxels_high: u64,
}

pub struct LadderCodec<'a> {
    inp: &'a LadderInputs,
    codec: Codec,
    acc: LadderAcc,
    /// Kept apart from `acc` so a new round reuses its buffer: steady-state
    /// steps of this workload allocate nothing, the benchmark included.
    digest: Digest,
}

impl<'a> LadderCodec<'a> {
    pub fn new(inp: &'a LadderInputs) -> LadderCodec<'a> {
        LadderCodec {
            inp,
            codec: Codec::new(),
            acc: LadderAcc::default(),
            digest: Digest::default(),
        }
    }
}

impl Workload for LadderCodec<'_> {
    fn steps(&self) -> usize {
        self.inp.steps
    }

    /// One frame at the bottom rung, one at the top.
    fn ops_per_step(&self) -> u64 {
        2
    }

    fn input_of(&self, i: usize) -> usize {
        i % FRAMES
    }

    fn begin_round(&mut self) {
        self.acc = LadderAcc::default();
        self.digest.clear();
    }

    fn step(&mut self, i: usize, rec: &mut Recorder) -> Result<(), String> {
        let inp = self.inp;
        let k = i % FRAMES;
        let low = self.codec.round_trip(
            &inp.low_frames[k],
            &inp.low.cfg,
            ["pointcloud.codec.encode_d8", "pointcloud.codec.decode_d8"],
            rec,
        )?;
        self.digest.push(fnv1a(&self.codec.stream.data));
        let high = self.codec.round_trip(
            &inp.high_frames[k],
            &inp.high.cfg,
            ["pointcloud.codec.encode_d10", "pointcloud.codec.decode_d10"],
            rec,
        )?;
        self.digest.push(fnv1a(&self.codec.stream.data));
        let acc = &mut self.acc;
        acc.input_points += (low.input_points + high.input_points) as u64;
        acc.decoded_points += (low.voxels + high.voxels) as u64;
        acc.bytes_low += low.bytes as u64;
        acc.bytes_high += high.bytes as u64;
        acc.voxels_high += high.voxels as u64;
        Ok(())
    }

    fn end_round(&mut self) -> Result<RoundSummary, String> {
        let acc = &self.acc;
        let n = self.steps() as f64;
        Ok(RoundSummary {
            attempted: self.steps() as u64 * self.ops_per_step(),
            on_time: self.steps() as u64 * self.ops_per_step(),
            quality: acc.decoded_points as f64 / acc.input_points.max(1) as f64,
            outcome_hash: self.digest.finish(),
            layer: vec![
                ("pointcloud.codec.bytes_d8", acc.bytes_low as f64 / n),
                ("pointcloud.codec.bytes_d10", acc.bytes_high as f64 / n),
                ("pointcloud.codec.voxels_d10", acc.voxels_high as f64 / n),
            ],
        })
    }

    fn first_step_hash(&mut self) -> Result<u64, String> {
        let mut fresh = LadderCodec::new(self.inp);
        fresh.step(0, &mut Recorder::new(false))?;
        Ok(fresh.digest.finish())
    }

    fn layer_metrics(&self, r: &TracedRound<'_>, m: &mut Metrics) {
        for (metric, span) in [
            (
                "pointcloud.codec.encode_d8_ms",
                "pointcloud.codec.encode_d8",
            ),
            (
                "pointcloud.codec.decode_d8_ms",
                "pointcloud.codec.decode_d8",
            ),
            (
                "pointcloud.codec.encode_d10_ms",
                "pointcloud.codec.encode_d10",
            ),
            (
                "pointcloud.codec.decode_d10_ms",
                "pointcloud.codec.decode_d10",
            ),
        ] {
            m.set(metric, r.span_ms(span));
        }
    }

    fn probes(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        let inp = self.inp;
        let mut idx = 0u64;
        m.set(
            "pointcloud.synthetic.frame_ms",
            rec.probe("pointcloud.synthetic.frame", 1, || {
                idx += 1;
                inp.body.frame(idx, inp.high.points)
            }) / 1e6,
        );
        // The Medium rung is off the timed path: measured here only.
        let medium = inp.body.frame(0, inp.medium.points);
        let (encode_ns, decode_ns, stats) = probe_rung(
            rec,
            &medium,
            &inp.medium.cfg,
            ["pointcloud.codec.encode_d9", "pointcloud.codec.decode_d9"],
        );
        m.set("pointcloud.codec.encode_d9_ms", encode_ns / 1e6);
        m.set("pointcloud.codec.decode_d9_ms", decode_ns / 1e6);
        m.set("pointcloud.codec.bytes_d9", stats.bytes as f64);
        // The frame budget is a statement about the real top rung, so
        // this one probe runs a full-density High frame.
        let full = inp.body.frame(0, inp.high.full_points);
        let (encode_ns, decode_ns, _) = probe_rung(
            rec,
            &full,
            &inp.high.cfg,
            [
                "pointcloud.codec.encode_d10_full",
                "pointcloud.codec.decode_d10_full",
            ],
        );
        m.set(
            "pointcloud.codec.frame_budget_ratio",
            (encode_ns + decode_ns) / 1e6 / FRAME_BUDGET_MS,
        );
    }
}

/// Probes encode and decode of one cloud at one rung: median nanoseconds
/// of each, and the encoder's statistics.
fn probe_rung(
    rec: &mut Recorder,
    cloud: &PointCloud,
    cfg: &CodecConfig,
    spans: [&'static str; 2],
) -> (f64, f64, CodecStats) {
    let mut codec = Codec::new();
    let mut stats = None;
    let encode_ns = rec.probe(spans[0], 1, || {
        stats = Some(codec.enc.encode_into(cloud, cfg, &mut codec.stream.data));
    });
    let decode_ns = rec.probe(spans[1], 1, || {
        codec.dec.decode_into(&codec.stream, &mut codec.decoded)
    });
    (
        encode_ns,
        decode_ns,
        stats.expect("a probe calls at least once"),
    )
}

pub struct LayeredInputs {
    body: SyntheticBody,
    cfg: LayeredConfig,
    points: usize,
    frames: Vec<PointCloud>,
    /// Per frame: the point count of its single-stream decode at the base
    /// depth, which the layered base-only decode must match.
    base_counts: Vec<usize>,
    steps: usize,
}

impl LayeredInputs {
    pub fn build(cfg: &RunConfig) -> Result<LayeredInputs, String> {
        let body = SyntheticBody::new(cfg.seed, Vec3::ZERO);
        let high = rung(QualityLevel::High, cfg.smoke);
        let layers = LayeredConfig::default();
        let frames = frames(&body, high.points);
        let base_cfg = CodecConfig {
            depth: layers.depths[0],
            color_bits: layers.color_bits,
        };
        let mut codec = Codec::new();
        let base_counts = frames
            .iter()
            .map(|f| {
                codec
                    .round_trip(f, &base_cfg, ["", ""], &mut Recorder::new(false))
                    .map(|s| s.voxels)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(LayeredInputs {
            body,
            cfg: layers,
            points: high.points,
            frames,
            base_counts,
            steps: steps(cfg),
        })
    }
}

#[derive(Default)]
struct LayeredAcc {
    input_points: u64,
    decoded_points: u64,
    bytes_base: u64,
    bytes_total: u64,
    parity_bytes: u64,
}

pub struct LayeredCodec<'a> {
    inp: &'a LayeredInputs,
    enc: LayeredEncoder,
    dec: LayeredDecoder,
    frame: LayeredFrame,
    parity: Vec<u8>,
    recovered: Vec<u8>,
    decoded: PointCloud,
    acc: LayeredAcc,
    digest: Digest,
}

impl<'a> LayeredCodec<'a> {
    pub fn new(inp: &'a LayeredInputs) -> LayeredCodec<'a> {
        LayeredCodec {
            inp,
            enc: LayeredEncoder::new(),
            dec: LayeredDecoder::new(),
            frame: LayeredFrame::new(),
            parity: Vec::new(),
            recovered: Vec::new(),
            decoded: PointCloud::new(),
            acc: LayeredAcc::default(),
            digest: Digest::default(),
        }
    }
}

impl Workload for LayeredCodec<'_> {
    fn steps(&self) -> usize {
        self.inp.steps
    }

    fn ops_per_step(&self) -> u64 {
        1
    }

    fn input_of(&self, i: usize) -> usize {
        i % FRAMES
    }

    fn begin_round(&mut self) {
        self.acc = LayeredAcc::default();
        self.digest.clear();
    }

    fn step(&mut self, i: usize, rec: &mut Recorder) -> Result<(), String> {
        let inp = self.inp;
        let k = i % FRAMES;
        let stats = rec.scope("pointcloud.layered.encode", |_| {
            self.enc
                .encode_into(&inp.frames[k], &inp.cfg, &mut self.frame)
        });
        // The ladder has three layers; they ride one quarter-rung parity
        // group (up to four chunks, one parity chunk).
        let [l0, l1, l2]: [&[u8]; 3] = match self.frame.layers() {
            [a, b, c] => [a, b, c],
            other => {
                return Err(format!(
                    "step {i}: {} layers, the ladder has 3",
                    other.len()
                ))
            }
        };
        let layers = [l0, l1, l2];
        rec.scope("net.fec.parity", |_| {
            fec::parity_into(&layers, &mut self.parity)
        });
        let lost = i % layers.len();
        let survivors = [layers[(lost + 1) % 3], layers[(lost + 2) % 3]];
        let repaired = rec.scope("net.fec.recover", |_| {
            fec::recover_into(
                &survivors,
                &self.parity,
                layers[lost].len(),
                &mut self.recovered,
            )
        });
        if !repaired || self.recovered != layers[lost] {
            return Err(format!(
                "step {i}: layer {lost} was not recovered byte for byte"
            ));
        }
        let mut received = layers;
        received[lost] = &self.recovered;
        let full = rec
            .scope("pointcloud.layered.decode_full", |_| {
                self.dec.decode_frame_into(&received, &mut self.decoded)
            })
            .map_err(|e| format!("step {i} full decode: {e}"))?;
        if full != stats.voxels {
            return Err(format!(
                "step {i}: full decode has {full} points, the encoder reported {} voxels",
                stats.voxels
            ));
        }
        let base = rec
            .scope("pointcloud.layered.decode_base", |_| {
                self.dec
                    .decode_frame_into(&received[..1], &mut self.decoded)
            })
            .map_err(|e| format!("step {i} base decode: {e}"))?;
        if base != inp.base_counts[k] {
            return Err(format!(
                "step {i}: base-only decode has {base} points, the single-stream decode {}",
                inp.base_counts[k]
            ));
        }
        let acc = &mut self.acc;
        acc.input_points += stats.input_points as u64;
        acc.decoded_points += full as u64;
        acc.bytes_base += l0.len() as u64;
        acc.bytes_total += stats.total_bytes as u64;
        acc.parity_bytes += self.parity.len() as u64;
        for chunk in layers.iter().chain([&self.parity.as_slice()]) {
            self.digest.push(fnv1a(chunk));
        }
        Ok(())
    }

    fn end_round(&mut self) -> Result<RoundSummary, String> {
        let acc = &self.acc;
        let n = self.steps() as f64;
        Ok(RoundSummary {
            attempted: self.steps() as u64,
            on_time: self.steps() as u64,
            quality: acc.decoded_points as f64 / acc.input_points.max(1) as f64,
            outcome_hash: self.digest.finish(),
            layer: vec![
                ("pointcloud.layered.bytes_base", acc.bytes_base as f64 / n),
                ("pointcloud.layered.bytes_total", acc.bytes_total as f64 / n),
                ("net.fec.parity_bytes", acc.parity_bytes as f64 / n),
            ],
        })
    }

    fn first_step_hash(&mut self) -> Result<u64, String> {
        let mut fresh = LayeredCodec::new(self.inp);
        fresh.step(0, &mut Recorder::new(false))?;
        Ok(fresh.digest.finish())
    }

    fn layer_metrics(&self, r: &TracedRound<'_>, m: &mut Metrics) {
        m.set(
            "pointcloud.layered.encode_ms",
            r.span_ms("pointcloud.layered.encode"),
        );
        m.set(
            "pointcloud.layered.decode_full_ms",
            r.span_ms("pointcloud.layered.decode_full"),
        );
        m.set(
            "pointcloud.layered.decode_base_ms",
            r.span_ms("pointcloud.layered.decode_base"),
        );
        m.set("net.fec.parity_us", r.span_ms("net.fec.parity") * 1e3);
        m.set("net.fec.recover_us", r.span_ms("net.fec.recover") * 1e3);
    }

    fn probes(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        let inp = self.inp;
        let mut idx = 0u64;
        m.set(
            "pointcloud.synthetic.frame_ms",
            rec.probe("pointcloud.synthetic.frame", 1, || {
                idx += 1;
                inp.body.frame(idx, inp.points)
            }) / 1e6,
        );
    }
}
