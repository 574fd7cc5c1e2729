//! Session server: per-client connection state machines streaming the
//! wire-format container to thousands of simulated clients.
//!
//! The batch pipeline (encode → group → schedule) answers *what* to send;
//! this module answers *how a server survives sending it*: admission
//! control when more clients arrive than the AP can carry, per-client
//! send queues with a hard backpressure bound, mid-chunk disconnects that
//! restart the interrupted chunk, and loss/stall/decode faults riding the
//! same deterministic [`FaultPlan`] machinery the batch session uses —
//! reinterpreted here as *network* faults.
//!
//! Layered wire streams (`STREAM_FLAG_LAYERED`) are served progressively:
//! each video frame's dequeue runs [`RateAdapter::plan_delivery`] to pick
//! how many of the frame's layer chunks to send (queue headroom is the
//! buffer signal) and how much XOR parity rides along (accumulated
//! distress picks the FEC rung). Legacy single-layer streams bypass every
//! layered branch and keep byte-identical outcomes, including the
//! determinism hash.
//!
//! ## Time and transport model
//!
//! Time is discrete: 1 tick = 1 ms. The server publishes frame `f` of the
//! wire stream at tick `f * frame_interval_ticks` (33 ms ≈ 30 fps). Each
//! admitted client owns an independent simulated transport: a per-tick
//! byte budget derived from a base rate, a per-client speed multiplier
//! (a deterministic draw; a small fraction are *slow clients*), and a
//! viewport factor replayed from the client's [`Trace`] — clients whose
//! viewpoint wanders far from the subject are modeled as weaker links.
//!
//! ## Connection state machine
//!
//! ```text
//!  arrival        handshake done      manifest done
//! ────────▶ Handshake ────────▶ Manifest ────────▶ Streaming ──▶ Closed
//!                                   ▲                │  ▲           (stream
//!                                   └───── outage ───┘  │            fully
//!                                      Reconnecting ────┘            drained)
//! ```
//!
//! An outage fault disconnects the client mid-chunk; the partially sent
//! chunk restarts from byte zero after `reconnect_ticks` (the wire format
//! is length-prefixed, not resumable mid-chunk — see DESIGN.md §5). Loss
//! faults burn the tick's bytes without crediting progress (reorder-free
//! loss: the bytes are re-sent). An AP stall freezes every transfer. A
//! decode-overrun fault defers a delivered frame's completion to the next
//! frame boundary — bytes arrived on time, the decoder missed its slot.
//!
//! ## Determinism
//!
//! Admission is a serial pass; after it the population is fixed and every
//! client evolves independently from its own `Rng::for_stream(seed, id)`
//! stream, so clients are simulated with [`par_map_indexed`] and the
//! outcome — including the FNV-1a hash over every per-client counter —
//! is byte-identical at any `VOLCAST_THREADS`.

use std::collections::VecDeque;

use crate::bandwidth::CrossLayerInputs;
use crate::error::VolcastError;
use crate::rate_adapt::{AbrPolicy, Distress, FecRung, GroupState, RateAdapter};
use volcast_net::wire::{StreamReader, CHUNK_HEADER_LEN, STREAM_HEADER_LEN};
use volcast_net::{FaultConfig, FaultPlan, FrameFaults};
use volcast_util::hash::fnv1a;
use volcast_util::obs;
use volcast_util::par::par_map_indexed;
use volcast_util::rng::Rng;
use volcast_viewport::Trace;

/// Configuration for one server run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerParams {
    /// Clients that try to connect (offered load).
    pub clients: usize,
    /// Admission-control cap: sessions admitted concurrently; arrivals
    /// beyond the cap are rejected at handshake.
    pub admit_cap: usize,
    /// Ticks between frame publishes (1 tick = 1 ms; 33 ≈ 30 fps).
    pub frame_interval_ticks: u32,
    /// Client arrivals are spread uniformly over this many ticks.
    pub arrival_window_ticks: u32,
    /// Ticks a handshake occupies before the manifest transfer starts.
    pub handshake_ticks: u32,
    /// Ticks a disconnected client takes to reconnect.
    pub reconnect_ticks: u32,
    /// Backpressure bound: queued frames beyond this drop the *oldest*
    /// queued frame (live streaming favors freshness over completeness).
    pub queue_cap_frames: usize,
    /// Base transport rate, bytes per tick, before the per-client speed
    /// multiplier and the viewport factor.
    pub base_bytes_per_tick: u32,
    /// Fraction of clients drawn as pathologically slow.
    pub slow_fraction: f64,
    /// Speed multiplier applied to slow clients.
    pub slow_multiplier: f64,
    /// Extra ticks simulated after the last publish so in-flight chunks
    /// can drain.
    pub drain_ticks: u32,
    /// Seed for arrival jitter and per-client speed draws.
    pub seed: u64,
    /// Network-fault schedule (outage = disconnect, loss = burned bytes,
    /// stall = frozen AP, decode = deferred completion).
    pub faults: FaultConfig,
}

impl Default for ServerParams {
    fn default() -> Self {
        ServerParams {
            clients: 64,
            admit_cap: 64,
            frame_interval_ticks: 33,
            arrival_window_ticks: 128,
            handshake_ticks: 4,
            reconnect_ticks: 25,
            queue_cap_frames: 8,
            base_bytes_per_tick: 2_048,
            slow_fraction: 0.05,
            slow_multiplier: 0.2,
            drain_ticks: 330,
            seed: 1,
            faults: FaultConfig::default(),
        }
    }
}

impl ServerParams {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), VolcastError> {
        let bad = |msg: &str| Err(VolcastError::InvalidParams(msg.into()));
        if self.clients == 0 {
            return bad("clients = 0");
        }
        if self.admit_cap == 0 {
            return bad("admit_cap = 0");
        }
        if self.frame_interval_ticks == 0 {
            return bad("frame_interval_ticks = 0");
        }
        if self.queue_cap_frames == 0 {
            return bad("queue_cap_frames = 0");
        }
        if self.base_bytes_per_tick == 0 {
            return bad("base_bytes_per_tick = 0");
        }
        if !(0.0..=1.0).contains(&self.slow_fraction) {
            return bad("slow_fraction outside [0, 1]");
        }
        if !(self.slow_multiplier > 0.0 && self.slow_multiplier.is_finite()) {
            return bad("slow_multiplier must be positive and finite");
        }
        Ok(())
    }
}

/// Connection state of one client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Arrived, performing the connection handshake.
    Handshake,
    /// Receiving the stream header + manifest.
    Manifest,
    /// Receiving frame chunks.
    Streaming,
    /// Disconnected by an outage; waiting out the reconnect timer.
    Reconnecting,
    /// Stream fully drained.
    Closed,
}

/// What one simulated client experienced.
#[derive(Debug, Clone, Default)]
pub struct ClientOutcome {
    /// Client id (its index in arrival order).
    pub id: usize,
    /// Frames fully delivered.
    pub delivered: u64,
    /// Frames dropped by the backpressure bound.
    pub dropped: u64,
    /// Frames still queued or in flight when the simulation ended.
    pub undelivered: u64,
    /// Mid-chunk disconnects survived.
    pub reconnects: u64,
    /// Transport bytes sent to this client (including burned re-sends).
    pub bytes_sent: u64,
    /// Layered streams only: frames delivered with fewer than all layers
    /// (the per-frame delivery decision shed enhancements to catch up).
    pub partial_frames: u64,
    /// Layered streams only: XOR-parity bytes sent alongside payloads.
    pub fec_parity_bytes: u64,
    /// Layered streams only: loss ticks absorbed by the parity shield
    /// (progress credited instead of burned).
    pub fec_absorbed_ticks: u64,
    /// Per-delivered-frame latency, ticks (= ms) from publish to
    /// completion, in delivery order.
    pub latencies_ms: Vec<u32>,
}

/// Aggregate outcome of a server run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerOutcome {
    /// Clients that tried to connect.
    pub offered: usize,
    /// Clients admitted (≤ `admit_cap`).
    pub admitted: usize,
    /// Clients rejected by admission control.
    pub rejected: usize,
    /// Frames fully delivered across all clients.
    pub delivered_frames: u64,
    /// Frames dropped by backpressure across all clients.
    pub dropped_frames: u64,
    /// Frames never delivered before the simulation ended.
    pub undelivered_frames: u64,
    /// Mid-chunk disconnects survived across all clients.
    pub reconnects: u64,
    /// Total transport bytes sent.
    pub bytes_sent: u64,
    /// Layered streams only: frames delivered without all enhancements.
    pub partial_frames: u64,
    /// Layered streams only: total XOR-parity bytes sent.
    pub fec_parity_bytes: u64,
    /// Layered streams only: loss ticks absorbed by the parity shield.
    pub fec_absorbed_ticks: u64,
    /// Median frame-delivery latency, ms (0 when nothing was delivered).
    pub p50_latency_ms: u32,
    /// 99th-percentile frame-delivery latency, ms.
    pub p99_latency_ms: u32,
    /// Mean frame-delivery latency, ms.
    pub mean_latency_ms: f64,
    /// FNV-1a hash over every per-client counter and latency sequence,
    /// in client order — the thread-count-independence witness.
    pub outcome_hash: u64,
}

/// The session server: one wire stream, many simulated clients.
#[derive(Debug)]
pub struct SessionServer {
    params: ServerParams,
    stream: Vec<u8>,
    traces: Vec<Trace>,
}

impl SessionServer {
    /// Creates a server for `stream` (an encoded wire container, see
    /// [`volcast_net::wire`]) serving clients that replay `traces`.
    ///
    /// The stream is parsed and fully validated (structure + checksums)
    /// up front: a server must reject a malformed stream at load time,
    /// not crash mid-broadcast.
    pub fn new(
        params: ServerParams,
        stream: Vec<u8>,
        traces: Vec<Trace>,
    ) -> Result<SessionServer, VolcastError> {
        params.validate()?;
        if traces.is_empty() {
            return Err(VolcastError::InvalidTraces("no traces".into()));
        }
        if traces.iter().any(|t| t.poses.is_empty()) {
            return Err(VolcastError::InvalidTraces("empty trace".into()));
        }
        let reader = StreamReader::parse(&stream)?;
        if reader.manifest().frame_count == 0 {
            return Err(VolcastError::InvalidParams("stream has no frames".into()));
        }
        reader.validate_all()?;
        Ok(SessionServer {
            params,
            stream,
            traces,
        })
    }

    /// Runs the simulation to completion.
    pub fn run(&self) -> Result<ServerOutcome, VolcastError> {
        let p = &self.params;
        let reader = StreamReader::parse(&self.stream)?;
        let manifest = reader.manifest();
        let layers = (manifest.layers_per_frame.max(1)) as usize;
        let video_frames = manifest.video_frame_count() as usize;

        // Wire cost of each chunk (chunk header + payload) and of the
        // stream preamble the Manifest phase transfers. A layered stream
        // holds `layers` consecutive chunks (base first) per video frame;
        // publishing and fault scheduling run on *video* frames.
        let chunk_bytes: Vec<u64> = manifest
            .entries
            .iter()
            .map(|e| CHUNK_HEADER_LEN as u64 + e.len as u64)
            .collect();
        let manifest_bytes = (STREAM_HEADER_LEN + manifest.encoded_len()) as u64;

        let plan = FaultPlan::generate(p.faults, video_frames, p.clients)?;

        // Admission control: a serial arrival pass. Clients are admitted
        // in arrival order until the cap; the rest are rejected at
        // handshake. A fixed post-admission population is what makes the
        // per-client simulations independent (and therefore parallel).
        let admitted = p.clients.min(p.admit_cap);
        let ids: Vec<usize> = (0..admitted).collect();

        let outcomes: Vec<ClientOutcome> = par_map_indexed(&ids, |_, &id| {
            self.simulate_client(id, &plan, &chunk_bytes, manifest_bytes, layers)
        });

        // Serial merge in client order: counters, the latency population,
        // and the determinism witness.
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        let mut undelivered = 0u64;
        let mut reconnects = 0u64;
        let mut bytes_sent = 0u64;
        let mut partial_frames = 0u64;
        let mut fec_parity_bytes = 0u64;
        let mut fec_absorbed_ticks = 0u64;
        let mut latencies: Vec<u32> = Vec::new();
        let mut digest: Vec<u8> = Vec::with_capacity(outcomes.len() * 56);
        for c in &outcomes {
            delivered += c.delivered;
            dropped += c.dropped;
            undelivered += c.undelivered;
            reconnects += c.reconnects;
            bytes_sent += c.bytes_sent;
            partial_frames += c.partial_frames;
            fec_parity_bytes += c.fec_parity_bytes;
            fec_absorbed_ticks += c.fec_absorbed_ticks;
            latencies.extend_from_slice(&c.latencies_ms);
            for v in [
                c.id as u64,
                c.delivered,
                c.dropped,
                c.undelivered,
                c.reconnects,
                c.bytes_sent,
            ] {
                digest.extend_from_slice(&v.to_le_bytes());
            }
            // Layered-only counters join the witness only for layered
            // streams so legacy outcome hashes are unchanged.
            if layers > 1 {
                for v in [c.partial_frames, c.fec_parity_bytes, c.fec_absorbed_ticks] {
                    digest.extend_from_slice(&v.to_le_bytes());
                }
            }
            let mut lat_bytes = Vec::with_capacity(c.latencies_ms.len() * 4);
            for &l in &c.latencies_ms {
                lat_bytes.extend_from_slice(&l.to_le_bytes());
            }
            digest.extend_from_slice(&fnv1a(&lat_bytes).to_le_bytes());
        }

        latencies.sort_unstable();
        let pct = |q: usize| -> u32 {
            if latencies.is_empty() {
                0
            } else {
                latencies[(latencies.len() - 1) * q / 100]
            }
        };
        let mean = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().map(|&l| l as u64).sum::<u64>() as f64 / latencies.len() as f64
        };

        if obs::enabled() {
            obs::add("server.clients_admitted", admitted as u64);
            obs::add("server.frames_delivered", delivered);
            obs::add("server.frames_dropped", dropped);
            obs::add("server.reconnects", reconnects);
            if layers > 1 {
                obs::add("server.layered.partial_frames", partial_frames);
                obs::add("server.layered.fec_parity_bytes", fec_parity_bytes);
                obs::add("server.layered.fec_absorbed_ticks", fec_absorbed_ticks);
            }
        }

        Ok(ServerOutcome {
            offered: p.clients,
            admitted,
            rejected: p.clients - admitted,
            delivered_frames: delivered,
            dropped_frames: dropped,
            undelivered_frames: undelivered,
            reconnects,
            bytes_sent,
            partial_frames,
            fec_parity_bytes,
            fec_absorbed_ticks,
            p50_latency_ms: pct(50),
            p99_latency_ms: pct(99),
            mean_latency_ms: mean,
            outcome_hash: fnv1a(&digest),
        })
    }

    /// Simulates one client session tick by tick. Pure function of
    /// `(params, stream, traces, plan, id)` — the determinism contract.
    ///
    /// For layered streams (`layers > 1`) each dequeue runs the unified
    /// delivery policy ([`RateAdapter::plan_delivery`]) with the client's
    /// queue headroom as the buffer signal: a backlogged client sheds
    /// enhancement layers to catch up, and a distressed client's payload
    /// rides with XOR parity whose *shield* forgives one loss tick per
    /// in-flight frame. Legacy streams take none of these branches, so
    /// their byte budgets, rng draws, and outcome hashes are unchanged.
    fn simulate_client(
        &self,
        id: usize,
        plan: &FaultPlan,
        chunk_bytes: &[u64],
        manifest_bytes: u64,
        layers: usize,
    ) -> ClientOutcome {
        let p = &self.params;
        let fi = p.frame_interval_ticks as u64;
        let frames = chunk_bytes.len() / layers.max(1);
        let sim_ticks = frames as u64 * fi + p.drain_ticks as u64;
        let trace = &self.traces[id % self.traces.len()];
        let adapter = RateAdapter::new(AbrPolicy::BufferOnly, 1);

        let mut rng = Rng::for_stream(p.seed, id as u64);
        let arrival = if p.arrival_window_ticks > 1 {
            rng.gen_range(0..p.arrival_window_ticks as u64)
        } else {
            0
        };
        let speed = if rng.gen::<f64>() < p.slow_fraction {
            p.slow_multiplier
        } else {
            0.75 + 0.5 * rng.gen::<f64>()
        };

        let mut out = ClientOutcome {
            id,
            ..ClientOutcome::default()
        };
        let mut phase = Phase::Handshake;
        let mut phase_timer = p.handshake_ticks as u64;
        let mut manifest_left = manifest_bytes;
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut in_flight: Option<(usize, u64)> = None; // (frame, bytes left)
        let mut in_flight_total: u64 = 0; // wire size incl. parity (restart size)
        let mut in_flight_layers: usize = 1;
        let mut in_flight_parity: u64 = 0;
        let mut fec_shield = false;
        let mut distress = Distress::calm();
        let mut subscribed = false;

        for t in arrival..sim_ticks {
            let frame_now = (t / fi) as usize;
            let faults: &FrameFaults = if frame_now < frames {
                plan.at(frame_now)
            } else {
                FrameFaults::quiet()
            };

            // Publish: the server enqueues each new frame for every
            // subscribed session, connected or not — a reconnecting
            // client's backlog keeps growing, which is exactly what the
            // backpressure bound is for.
            if subscribed && t % fi == 0 && frame_now < frames {
                queue.push_back(frame_now);
                if queue.len() > p.queue_cap_frames {
                    queue.pop_front();
                    out.dropped += 1;
                }
            }

            // Outage: a mid-transfer disconnect. The interrupted chunk
            // (or manifest) restarts from byte zero after the reconnect.
            if faults.outage_for(id) && matches!(phase, Phase::Manifest | Phase::Streaming) {
                if let Some((frame, left)) = in_flight {
                    if left < in_flight_total {
                        in_flight = Some((frame, in_flight_total));
                        // The restart resends the parity too: the shield
                        // comes back with it.
                        fec_shield = in_flight_parity > 0;
                    }
                }
                distress.raise(2);
                if phase == Phase::Manifest {
                    manifest_left = manifest_bytes;
                }
                phase = Phase::Reconnecting;
                phase_timer = p.reconnect_ticks as u64;
                out.reconnects += 1;
                continue;
            }

            // Per-tick byte budget: base rate × client speed × viewport
            // factor from the replayed trace (far viewpoints ≈ weak link).
            let dist = trace.pose(frame_now.min(frames - 1)).position.norm();
            let viewport = (1.25 / (1.0 + 0.25 * dist)).clamp(0.25, 1.25);
            let budget = ((p.base_bytes_per_tick as f64 * speed * viewport) as u64).max(1);

            match phase {
                Phase::Handshake => {
                    if phase_timer == 0 {
                        phase = Phase::Manifest;
                    } else {
                        phase_timer -= 1;
                    }
                }
                Phase::Manifest => {
                    if faults.ap_stall {
                        continue;
                    }
                    let sent = budget.min(manifest_left);
                    out.bytes_sent += sent;
                    if !faults.loss_for(id) {
                        manifest_left -= sent;
                    }
                    if manifest_left == 0 {
                        phase = Phase::Streaming;
                        subscribed = true;
                    }
                }
                Phase::Streaming => {
                    if in_flight.is_none() {
                        if let Some(frame) = queue.pop_front() {
                            if layers > 1 {
                                // Unified delivery policy: queue headroom
                                // is the buffer signal (an empty queue =
                                // comfortable client = all layers; a full
                                // queue = backlogged = base only), and
                                // accumulated distress picks the parity
                                // rung.
                                let headroom =
                                    p.queue_cap_frames.saturating_sub(queue.len()) as f64;
                                let inputs = CrossLayerInputs {
                                    measured_throughput_mbps: 0.0,
                                    buffer_frames: headroom,
                                    blockage_forecast: false,
                                    predicted_phy_rate_mbps: 0.0,
                                    current_phy_rate_mbps: 0.0,
                                };
                                let d = adapter.plan_delivery(
                                    &GroupState {
                                        user: 0,
                                        inputs: &inputs,
                                        share: 1.0,
                                        needed_fraction: 1.0,
                                        layered: true,
                                        fixed: None,
                                    },
                                    &distress,
                                );
                                let send = 1 + (d.enhancements as usize).min(layers - 1);
                                let payload: u64 =
                                    (0..send).map(|l| chunk_bytes[frame * layers + l]).sum();
                                let parity = (payload as f64 * d.fec.overhead()) as u64;
                                out.fec_parity_bytes += parity;
                                in_flight_total = payload + parity;
                                in_flight_layers = send;
                                in_flight_parity = parity;
                                fec_shield = d.fec != FecRung::Off;
                            } else {
                                in_flight_total = chunk_bytes[frame];
                                in_flight_layers = 1;
                                in_flight_parity = 0;
                                fec_shield = false;
                            }
                            in_flight = Some((frame, in_flight_total));
                        }
                    }
                    if faults.ap_stall {
                        continue;
                    }
                    if let Some((frame, left)) = in_flight {
                        let sent = budget.min(left);
                        out.bytes_sent += sent;
                        // Reorder-free loss: the bytes are transmitted
                        // (airtime burned) but not credited — re-sent on
                        // a later tick. With a parity shield (layered
                        // delivery under distress), the first loss tick of
                        // the in-flight frame repairs locally: progress is
                        // credited and the shield is consumed.
                        let left = if faults.loss_for(id) {
                            if fec_shield {
                                fec_shield = false;
                                out.fec_absorbed_ticks += 1;
                                distress.raise(1);
                                left - sent
                            } else {
                                distress.raise(2);
                                left
                            }
                        } else {
                            left - sent
                        };
                        if left == 0 {
                            // Decode-deadline overrun: bytes arrived, the
                            // decoder missed its slot; completion lands on
                            // the next frame boundary.
                            let done = if faults.decode_overrun_for(id) {
                                (t / fi + 1) * fi
                            } else {
                                t
                            };
                            let published = frame as u64 * fi;
                            out.delivered += 1;
                            out.latencies_ms.push((done - published) as u32);
                            if in_flight_layers < layers {
                                out.partial_frames += 1;
                            }
                            distress.relax();
                            in_flight = None;
                        } else {
                            in_flight = Some((frame, left));
                        }
                    } else if frame_now >= frames && queue.is_empty() {
                        // Stream drained; the Closed arm exits the loop on
                        // the next tick.
                        phase = Phase::Closed;
                    }
                }
                Phase::Reconnecting => {
                    if phase_timer > 0 {
                        phase_timer -= 1;
                    } else if !faults.outage_for(id) {
                        // Session resume: the manifest (if it completed)
                        // is cached client-side; otherwise restart it.
                        phase = if subscribed {
                            Phase::Streaming
                        } else {
                            Phase::Manifest
                        };
                    }
                }
                Phase::Closed => break,
            }
        }

        out.undelivered = queue.len() as u64 + u64::from(in_flight.is_some());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_net::StreamWriter;
    use volcast_util::par::set_thread_count;
    use volcast_viewport::UserStudy;

    fn tiny_stream(frames: usize, payload: usize) -> Vec<u8> {
        let mut w = StreamWriter::new(10, 6, 30);
        for f in 0..frames {
            let bytes: Vec<u8> = (0..payload).map(|i| (f * 31 + i) as u8).collect();
            w.push_frame(&bytes);
        }
        w.finish()
    }

    fn layered_stream(frames: usize, payload: usize, layers: u8) -> Vec<u8> {
        let mut w = StreamWriter::new_layered(10, 6, 30, layers);
        for f in 0..frames {
            let chunks: Vec<Vec<u8>> = (0..layers as usize)
                .map(|l| {
                    (0..payload.max(1))
                        .map(|i| (f * 31 + l * 7 + i) as u8)
                        .collect()
                })
                .collect();
            w.push_layered_frame(&chunks);
        }
        w.finish()
    }

    fn tiny_params() -> ServerParams {
        ServerParams {
            clients: 24,
            admit_cap: 16,
            arrival_window_ticks: 40,
            seed: 7,
            ..ServerParams::default()
        }
    }

    #[test]
    fn quiet_run_delivers_everything_fast() {
        let stream = tiny_stream(20, 3_000);
        let traces = UserStudy::generate_with(3, 20, 2, 2).traces;
        let srv = SessionServer::new(tiny_params(), stream, traces).unwrap();
        let out = srv.run().unwrap();
        assert_eq!(out.admitted, 16);
        assert_eq!(out.rejected, 8);
        // Live join: a client only receives frames published after its
        // manifest completes. Arrival (≤ 40 ticks) + handshake + manifest
        // spans at most two publish ticks, so each client sees ≥ 18 of
        // the 20 frames — and 3 KB frames at ~2 KB/tick all deliver.
        let seen = out.delivered_frames + out.undelivered_frames;
        assert!((16 * 18..=16 * 20).contains(&seen), "{out:?}");
        assert_eq!(out.dropped_frames, 0);
        assert!(out.p50_latency_ms > 0);
        assert!(out.p99_latency_ms >= out.p50_latency_ms);
    }

    #[test]
    fn outcome_is_thread_count_independent() {
        let stream = tiny_stream(16, 2_000);
        let traces = UserStudy::generate_with(5, 16, 2, 2).traces;
        let params = ServerParams {
            faults: FaultConfig::from_spec(
                "seed=9,outage=0.05:3,loss=0.1,stall=0.02:2,decode=0.05",
            )
            .unwrap(),
            ..tiny_params()
        };
        let srv = SessionServer::new(params, stream, traces).unwrap();
        set_thread_count(1);
        let serial = srv.run().unwrap();
        set_thread_count(8);
        let parallel = srv.run().unwrap();
        set_thread_count(4);
        assert_eq!(serial, parallel);
        assert_ne!(serial.outcome_hash, 0);
    }

    #[test]
    fn backpressure_drops_instead_of_growing_without_bound() {
        // A crawling client cannot keep up: the queue must cap and drop.
        let stream = tiny_stream(40, 8_000);
        let traces = UserStudy::generate_with(1, 40, 1, 1).traces;
        let params = ServerParams {
            clients: 8,
            admit_cap: 8,
            slow_fraction: 1.0,
            slow_multiplier: 0.02,
            queue_cap_frames: 4,
            ..ServerParams::default()
        };
        let srv = SessionServer::new(params, stream, traces).unwrap();
        let out = srv.run().unwrap();
        assert!(out.dropped_frames > 0, "no backpressure drops: {out:?}");
        assert!(
            out.undelivered_frames <= 8 * (4 + 1),
            "queues grew past the cap: {out:?}"
        );
    }

    #[test]
    fn outages_reconnect_and_still_deliver() {
        let stream = tiny_stream(30, 2_000);
        let traces = UserStudy::generate_with(2, 30, 2, 2).traces;
        let params = ServerParams {
            faults: FaultConfig::from_spec("seed=3,outage=0.2:2").unwrap(),
            ..tiny_params()
        };
        let srv = SessionServer::new(params, stream, traces).unwrap();
        let out = srv.run().unwrap();
        assert!(out.reconnects > 0);
        assert!(out.delivered_frames > 0);
    }

    #[test]
    fn layered_quiet_run_sends_all_layers_without_parity() {
        // 3 layers x 1 KB fit comfortably: every frame should go out with
        // all layers (no partials) and a calm client never buys parity.
        let stream = layered_stream(20, 1_000, 3);
        let traces = UserStudy::generate_with(3, 20, 2, 2).traces;
        let srv = SessionServer::new(tiny_params(), stream, traces).unwrap();
        let out = srv.run().unwrap();
        assert!(out.delivered_frames > 0, "{out:?}");
        assert_eq!(out.fec_parity_bytes, 0, "{out:?}");
        assert_eq!(out.fec_absorbed_ticks, 0, "{out:?}");
        assert_eq!(out.partial_frames, 0, "{out:?}");
    }

    #[test]
    fn layered_backlog_sheds_enhancement_layers() {
        // A crawling client with 3 fat layers per frame must fall back to
        // base-only deliveries instead of only dropping frames.
        let stream = layered_stream(40, 4_000, 3);
        let traces = UserStudy::generate_with(1, 40, 1, 1).traces;
        let params = ServerParams {
            clients: 8,
            admit_cap: 8,
            slow_fraction: 1.0,
            slow_multiplier: 0.1,
            queue_cap_frames: 4,
            ..ServerParams::default()
        };
        let srv = SessionServer::new(params, stream, traces).unwrap();
        let out = srv.run().unwrap();
        assert!(out.delivered_frames > 0, "{out:?}");
        assert!(out.partial_frames > 0, "no layers shed: {out:?}");
    }

    #[test]
    fn layered_fec_shield_absorbs_loss_ticks() {
        let stream = layered_stream(24, 2_000, 3);
        let traces = UserStudy::generate_with(2, 24, 2, 2).traces;
        let params = ServerParams {
            faults: FaultConfig::from_spec("seed=11,loss=0.3").unwrap(),
            ..tiny_params()
        };
        let srv = SessionServer::new(params, stream, traces).unwrap();
        let out = srv.run().unwrap();
        // Losses raise distress, distress buys parity, parity absorbs
        // later loss ticks.
        assert!(out.fec_parity_bytes > 0, "{out:?}");
        assert!(out.fec_absorbed_ticks > 0, "{out:?}");
        assert!(out.delivered_frames > 0, "{out:?}");
    }

    #[test]
    fn layered_outcome_is_thread_count_independent() {
        let stream = layered_stream(16, 1_500, 2);
        let traces = UserStudy::generate_with(5, 16, 2, 2).traces;
        let params = ServerParams {
            faults: FaultConfig::from_spec(
                "seed=9,outage=0.05:3,loss=0.1,stall=0.02:2,decode=0.05",
            )
            .unwrap(),
            ..tiny_params()
        };
        let srv = SessionServer::new(params, stream, traces).unwrap();
        set_thread_count(1);
        let serial = srv.run().unwrap();
        set_thread_count(8);
        let parallel = srv.run().unwrap();
        set_thread_count(4);
        assert_eq!(serial, parallel);
        assert_ne!(serial.outcome_hash, 0);
    }

    #[test]
    fn server_outcome_hashes_are_pinned() {
        // One legacy and one 3-layer stream under every fault class, both
        // hashes taken at 9988f78: `simulate_client` cannot drift unseen.
        let traces = UserStudy::generate_with(5, 16, 2, 2).traces;
        let params = ServerParams {
            faults: FaultConfig::from_spec(
                "seed=9,outage=0.05:3,loss=0.1,stall=0.02:2,decode=0.05",
            )
            .unwrap(),
            ..tiny_params()
        };
        for (stream, want) in [
            (tiny_stream(16, 2_000), 0x68af_35c8_cd65_fbdc_u64),
            (layered_stream(16, 1_500, 3), 0x4484_2c14_7496_d42e_u64),
        ] {
            let srv = SessionServer::new(params, stream, traces.clone()).unwrap();
            for threads in [1, 8] {
                set_thread_count(threads);
                let got = srv.run().unwrap().outcome_hash;
                assert_eq!(got, want, "{got:#018x} at {threads} threads");
            }
        }
        set_thread_count(4);
    }

    #[test]
    fn legacy_streams_never_take_layered_branches() {
        // The layered counters must stay zero on a single-layer stream
        // even under heavy loss — the legacy transport model is unchanged.
        let stream = tiny_stream(16, 2_000);
        let traces = UserStudy::generate_with(5, 16, 2, 2).traces;
        let params = ServerParams {
            faults: FaultConfig::from_spec("seed=11,loss=0.3").unwrap(),
            ..tiny_params()
        };
        let srv = SessionServer::new(params, stream, traces).unwrap();
        let out = srv.run().unwrap();
        assert_eq!(out.partial_frames, 0);
        assert_eq!(out.fec_parity_bytes, 0);
        assert_eq!(out.fec_absorbed_ticks, 0);
    }

    #[test]
    fn malformed_streams_are_rejected_at_load() {
        let traces = UserStudy::generate_with(1, 4, 1, 1).traces;
        let mut stream = tiny_stream(4, 500);
        // Flip a payload byte: checksum validation must catch it.
        let n = stream.len();
        stream[n - 3] ^= 0x40;
        let err = SessionServer::new(tiny_params(), stream, traces.clone()).unwrap_err();
        assert!(matches!(err, VolcastError::Wire(_)), "{err}");
        // Truncated container.
        let short = tiny_stream(4, 500)[..40].to_vec();
        assert!(SessionServer::new(tiny_params(), short, traces).is_err());
    }

    #[test]
    fn params_are_validated() {
        let traces = UserStudy::generate_with(1, 4, 1, 1).traces;
        let stream = tiny_stream(4, 500);
        for bad in [
            ServerParams {
                clients: 0,
                ..ServerParams::default()
            },
            ServerParams {
                admit_cap: 0,
                ..ServerParams::default()
            },
            ServerParams {
                frame_interval_ticks: 0,
                ..ServerParams::default()
            },
            ServerParams {
                queue_cap_frames: 0,
                ..ServerParams::default()
            },
            ServerParams {
                base_bytes_per_tick: 0,
                ..ServerParams::default()
            },
            ServerParams {
                slow_fraction: 1.5,
                ..ServerParams::default()
            },
            ServerParams {
                slow_multiplier: 0.0,
                ..ServerParams::default()
            },
        ] {
            assert!(
                SessionServer::new(bad, stream.clone(), traces.clone()).is_err(),
                "{bad:?}"
            );
        }
    }
}
