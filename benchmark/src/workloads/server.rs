//! `server`: one step serves the same content twice through
//! `SessionServer`, once as a legacy `VWSM` stream and once as a layered
//! stream, so the step-time distribution stays unimodal.

use super::{distinct, steps, Digest, DISTINCT_INPUTS};
use crate::harness::{step_seed, Metrics, RoundSummary, RunConfig, TracedRound, Workload};
use crate::trace::Recorder;
use volcast_core::{ServerOutcome, ServerParams, SessionServer};
use volcast_geom::Vec3;
use volcast_net::{FaultConfig, FaultPlan, StreamReader, StreamWriter, WireCursor};
use volcast_pointcloud::codec::{
    CodecConfig, GopEncoder, LayeredConfig, LayeredEncoder, LayeredFrame,
};
use volcast_pointcloud::{PointCloud, SyntheticBody};
use volcast_viewport::{Trace, UserStudy};

const FAULT_SPEC: &str = "outage=0.01:3,loss=0.02,stall=0.005:2,decode=0.01";

pub struct Inputs {
    clients: usize,
    admit_cap: usize,
    frames: usize,
    points: usize,
    seed: u64,
    body: SyntheticBody,
    clouds: Vec<PointCloud>,
    /// Single-stream payloads, one per frame (what the legacy stream wraps).
    payloads: Vec<Vec<u8>>,
    legacy: Vec<u8>,
    layered: Vec<u8>,
    traces: Vec<Trace>,
    /// Per distinct input: server seed and fault schedule.
    seeds: Vec<(u64, FaultConfig)>,
    /// Steps in a round; step `i` uses `seeds[i % seeds.len()]`.
    steps: usize,
}

impl Inputs {
    pub fn build(cfg: &RunConfig) -> Result<Inputs, String> {
        // A quarter of the issue's 600 clients, half its 120 frames: a step
        // serves 2 x 150 x 60 = 18,000 offered client-frames.
        let (clients, admit_cap, frames, points): (usize, usize, usize, usize) = if cfg.smoke {
            (12, 8, 10, 1_000)
        } else {
            (150, 128, 60, 4_000)
        };
        let codec = CodecConfig::default();
        let body = SyntheticBody::new(cfg.seed, Vec3::ZERO);
        let clouds: Vec<PointCloud> = (0..frames).map(|f| body.frame(f as u64, points)).collect();

        let mut gop = GopEncoder::new();
        gop.encode_gop_into(&clouds, &codec);
        let payloads: Vec<Vec<u8>> = (0..frames).map(|f| gop.frame_data(f).to_vec()).collect();
        let legacy = write_legacy(&codec, &payloads);

        let layers = LayeredConfig::default();
        let mut encoder = LayeredEncoder::new();
        let mut frame = LayeredFrame::new();
        let mut writer = StreamWriter::new_layered(
            codec.depth as u8,
            codec.color_bits as u8,
            frames as u32,
            layers.layers() as u8,
        );
        for cloud in &clouds {
            encoder.encode_into(cloud, &layers, &mut frame);
            writer.push_layered_frame(frame.layers());
        }
        let layered = writer.finish();

        let traces =
            UserStudy::generate_with(cfg.seed, frames, clients.div_ceil(2), clients / 2).traces;
        let seeds = (0..distinct(cfg, DISTINCT_INPUTS))
            .map(|i| {
                let seed = step_seed(cfg.seed, i);
                FaultConfig::from_spec(&format!("seed={seed},{FAULT_SPEC}"))
                    .map(|faults| (seed, faults))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        // Wire check: both containers validate end to end.
        for (name, stream) in [("legacy", &legacy), ("layered", &layered)] {
            StreamReader::parse(stream)
                .and_then(|r| r.validate_all())
                .map_err(|e| format!("{name} stream: {e}"))?;
        }
        Ok(Inputs {
            clients,
            admit_cap,
            frames,
            points,
            seed: cfg.seed,
            body,
            clouds,
            payloads,
            legacy,
            layered,
            traces,
            seeds,
            steps: steps(cfg),
        })
    }

    fn serve(
        &self,
        i: usize,
        stream: &[u8],
        run_span: &'static str,
        rec: &mut Recorder,
    ) -> Result<ServerOutcome, String> {
        let (seed, faults) = self.seeds[i % self.seeds.len()];
        let params = ServerParams {
            clients: self.clients,
            admit_cap: self.admit_cap,
            seed,
            faults,
            ..ServerParams::default()
        };
        let server = rec
            .scope("core.server.new", |_| {
                SessionServer::new(params, stream.to_vec(), self.traces.clone())
            })
            .map_err(|e| format!("step {i}: {e}"))?;
        let out = rec
            .scope(run_span, |_| server.run())
            .map_err(|e| format!("step {i}: {e}"))?;
        // Conservation. A client joins live, so it is owed at most every
        // frame: the accounted frames never exceed the admitted clients'.
        if out.admitted + out.rejected != out.offered || out.offered != self.clients {
            return Err(format!(
                "step {i}: {} admitted + {} rejected != {} offered",
                out.admitted, out.rejected, out.offered
            ));
        }
        let accounted = out.delivered_frames + out.dropped_frames + out.undelivered_frames;
        if accounted > (out.admitted * self.frames) as u64
            || out.partial_frames > out.delivered_frames
        {
            return Err(format!(
                "step {i}: {accounted} frames accounted for {} admitted clients x {} frames",
                out.admitted, self.frames
            ));
        }
        Ok(out)
    }

    fn run_step(&self, i: usize, rec: &mut Recorder) -> Result<[ServerOutcome; 2], String> {
        Ok([
            self.serve(i, &self.legacy, "core.server.run_legacy", rec)?,
            self.serve(i, &self.layered, "core.server.run_layered", rec)?,
        ])
    }
}

fn write_legacy(codec: &CodecConfig, payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut writer = StreamWriter::new(
        codec.depth as u8,
        codec.color_bits as u8,
        payloads.len() as u32,
    );
    for payload in payloads {
        writer.push_frame(payload);
    }
    writer.finish()
}

#[derive(Default)]
struct Acc {
    delivered: u64,
    partial: u64,
    dropped: u64,
    reconnects: u64,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    digest: Digest,
}

pub struct Server<'a> {
    inp: &'a Inputs,
    acc: Acc,
}

impl<'a> Server<'a> {
    pub fn new(inp: &'a Inputs) -> Server<'a> {
        Server {
            inp,
            acc: Acc::default(),
        }
    }
}

impl Workload for Server<'_> {
    fn steps(&self) -> usize {
        self.inp.steps
    }

    fn input_of(&self, i: usize) -> usize {
        i % self.inp.seeds.len()
    }

    /// Offered client-frames of the two runs.
    fn ops_per_step(&self) -> u64 {
        2 * (self.inp.clients * self.inp.frames) as u64
    }

    fn begin_round(&mut self) {
        self.acc = Acc::default();
    }

    fn step(&mut self, i: usize, rec: &mut Recorder) -> Result<(), String> {
        for out in self.inp.run_step(i, rec)? {
            let acc = &mut self.acc;
            acc.delivered += out.delivered_frames;
            acc.partial += out.partial_frames;
            acc.dropped += out.dropped_frames;
            acc.reconnects += out.reconnects;
            acc.latency_p50_ms += out.p50_latency_ms as f64;
            acc.latency_p99_ms += out.p99_latency_ms as f64;
            acc.digest.push(out.outcome_hash);
        }
        Ok(())
    }

    fn end_round(&mut self) -> Result<RoundSummary, String> {
        let acc = &self.acc;
        let runs = 2.0 * self.steps() as f64;
        Ok(RoundSummary {
            attempted: self.steps() as u64 * self.ops_per_step(),
            on_time: acc.delivered,
            quality: (acc.delivered - acc.partial) as f64 / acc.delivered.max(1) as f64,
            outcome_hash: acc.digest.finish(),
            layer: vec![
                ("core.server.sim_latency_p50_ms", acc.latency_p50_ms / runs),
                ("core.server.sim_latency_p99_ms", acc.latency_p99_ms / runs),
                ("core.server.reconnects", acc.reconnects as f64),
                ("core.server.dropped_frames", acc.dropped as f64),
                ("core.server.partial_frames", acc.partial as f64),
            ],
        })
    }

    fn first_step_hash(&mut self) -> Result<u64, String> {
        let mut digest = Digest::default();
        for out in self.inp.run_step(0, &mut Recorder::new(false))? {
            digest.push(out.outcome_hash);
        }
        Ok(digest.finish())
    }

    fn layer_metrics(&self, r: &TracedRound<'_>, m: &mut Metrics) {
        m.set("core.server.new_ms", r.span_ms("core.server.new"));
        m.set(
            "core.server.run_legacy_ms",
            r.span_ms("core.server.run_legacy"),
        );
        m.set(
            "core.server.run_layered_ms",
            r.span_ms("core.server.run_layered"),
        );
    }

    fn probes(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        let inp = self.inp;
        let codec = CodecConfig::default();
        // Set-up stages.
        let mut idx = 0u64;
        m.set(
            "pointcloud.synthetic.frame_ms",
            rec.probe("pointcloud.synthetic.frame", 4, || {
                idx += 1;
                inp.body.frame(idx % inp.frames as u64, inp.points)
            }) / 1e6,
        );
        let mut gop = GopEncoder::new();
        m.set(
            "pointcloud.gop.encode_gop_ms",
            rec.probe("pointcloud.gop.encode_gop", 1, || {
                gop.encode_gop_into(&inp.clouds, &codec)
            }) / 1e6,
        );
        m.set(
            "viewport.traces.generate_ms",
            rec.probe("viewport.traces.generate", 1, || {
                UserStudy::generate_with(
                    inp.seed,
                    inp.frames,
                    inp.clients.div_ceil(2),
                    inp.clients / 2,
                )
            }) / 1e6,
        );
        m.set(
            "net.wire.write_ms",
            rec.probe("net.wire.write", 1, || write_legacy(&codec, &inp.payloads)) / 1e6,
        );
        // Reader paths the server takes per client or per run.
        m.set(
            "net.wire.parse_us",
            rec.probe("net.wire.parse", 4, || {
                StreamReader::parse(&inp.legacy).map(|r| r.manifest().frame_count)
            }) / 1e3,
        );
        let reader = StreamReader::parse(&inp.legacy).expect("validated in set-up");
        m.set(
            "net.wire.validate_all_ms",
            rec.probe("net.wire.validate_all", 1, || reader.validate_all()) / 1e6,
        );
        // One call drains the whole stream: manifest plus one event a frame.
        let events = (inp.frames + 1) as f64;
        m.set(
            "net.wire.cursor_poll_us",
            rec.probe("net.wire.cursor_drain", 1, || {
                let mut cursor = WireCursor::new();
                cursor.feed(&inp.legacy);
                let mut seen = 0usize;
                while let Ok(Some(_)) = cursor.poll() {
                    seen += 1;
                }
                seen
            }) / events
                / 1e3,
        );
        let payload: usize = inp.payloads.iter().map(Vec::len).sum();
        m.set(
            "net.wire.overhead_bytes_per_frame",
            (inp.legacy.len() - payload) as f64 / inp.frames as f64,
        );
        let faults = inp.seeds[0].1;
        m.set(
            "net.faults.generate_us",
            rec.probe("net.faults.generate", 1, || {
                FaultPlan::generate(faults, inp.frames, inp.clients)
            }) / 1e3,
        );
    }
}
