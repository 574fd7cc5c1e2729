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
//! The model is defined tick by tick, but nothing a client's machine reads
//! changes inside a frame interval: the fault bits, the byte budget (the
//! pose is per frame) and the publish all belong to the interval's first
//! tick. `simulate_client` therefore jumps from event to event inside
//! each interval in closed form — same integers, same order — and the tick
//! loop survives as the test-side referee (DESIGN.md §4).
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
//! stream, so clients are simulated in blocks under [`par_for_each_mut`]
//! and the outcome — including the FNV-1a hash over every per-client
//! counter — is byte-identical at any `VOLCAST_THREADS`.

use std::ops::Range;

use crate::bandwidth::CrossLayerInputs;
use crate::error::VolcastError;
use crate::rate_adapt::{AbrPolicy, Distress, FecRung, GroupState, RateAdapter};
use volcast_net::wire::{StreamReader, CHUNK_HEADER_LEN, STREAM_HEADER_LEN};
use volcast_net::{Fault, FaultConfig, FaultPlan};
use volcast_util::hash::Fnv1a;
use volcast_util::obs;
use volcast_util::par::par_for_each_mut;
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientOutcome {
    /// Client id (its index in arrival order).
    pub id: usize,
    /// Frames fully delivered. Their latencies — ticks (= ms) from publish
    /// to completion, in delivery order — are the first `delivered` entries
    /// of the client's slots in the run's latency buffer.
    pub delivered: u64,
    /// Frames dropped by the backpressure bound.
    pub dropped: u64,
    /// Frames still queued or in flight when the simulation ended.
    pub undelivered: u64,
    /// Frames published before this client subscribed (a live join owes
    /// it none of them). Every frame of the video is exactly one of
    /// delivered, dropped, undelivered or never queued. Not part of
    /// [`ServerOutcome::outcome_hash`].
    pub never_queued: u64,
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
    /// Frames published before their client subscribed, across all
    /// admitted clients: with the three counters above it accounts for
    /// every `admitted × video frames` exactly once.
    pub never_queued_frames: u64,
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

/// The frame a client is receiving.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    frame: usize,
    /// Bytes still to credit.
    left: u64,
    /// Wire size including parity: what a mid-chunk disconnect restarts.
    total: u64,
    /// Layer chunks riding in this transfer (1 on a legacy stream).
    layers: usize,
    parity: u64,
    /// Parity that has not yet absorbed a loss tick.
    shield: bool,
}

/// The session server: one wire stream, many simulated clients.
#[derive(Debug)]
pub struct SessionServer {
    params: ServerParams,
    traces: Vec<Trace>,
    /// Wire cost of each chunk (chunk header + payload). A layered stream
    /// holds `layers` consecutive chunks (base first) per video frame;
    /// publishing and fault scheduling run on *video* frames.
    chunk_bytes: Vec<u64>,
    /// Wire cost of the stream preamble the Manifest phase transfers.
    manifest_bytes: u64,
    layers: usize,
    /// Video frames in the stream.
    frames: usize,
}

impl SessionServer {
    /// Creates a server for `stream` (an encoded wire container, see
    /// [`volcast_net::wire`]) serving clients that replay `traces`.
    ///
    /// The stream is parsed and fully validated (structure + checksums)
    /// up front: a server must reject a malformed stream at load time,
    /// not crash mid-broadcast. The simulation moves byte *counts*, so
    /// what is kept of the stream is its chunk table.
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
        let manifest = reader.manifest();
        if manifest.frame_count == 0 {
            return Err(VolcastError::InvalidParams("stream has no frames".into()));
        }
        reader.validate_all()?;
        Ok(SessionServer {
            params,
            traces,
            chunk_bytes: manifest
                .entries
                .iter()
                .map(|e| CHUNK_HEADER_LEN as u64 + e.len as u64)
                .collect(),
            manifest_bytes: (STREAM_HEADER_LEN + manifest.encoded_len()) as u64,
            layers: manifest.layers_per_frame.max(1) as usize,
            frames: manifest.video_frame_count() as usize,
        })
    }

    /// Runs the simulation to completion.
    pub fn run(&self) -> Result<ServerOutcome, VolcastError> {
        let p = &self.params;
        let layers = self.layers;
        let plan = FaultPlan::generate(p.faults, self.frames, p.clients)?;
        let adapter = RateAdapter::new(AbrPolicy::BufferOnly, 1);

        // Admission control: a serial arrival pass. Clients are admitted
        // in arrival order until the cap; the rest are rejected at
        // handshake. A fixed post-admission population is what makes the
        // per-client simulations independent (and therefore parallel).
        let admitted = p.clients.min(p.admit_cap);

        // One latency buffer for the run: a client is owed at most every
        // frame, so it gets `frames` slots and fills the first `delivered`.
        // Each worker takes a block of clients and their slots.
        let mut outcomes = vec![ClientOutcome::default(); admitted];
        let mut latencies = vec![0u32; admitted * self.frames];
        let mut slots: Vec<(&mut ClientOutcome, &mut [u32])> = outcomes
            .iter_mut()
            .zip(latencies.chunks_mut(self.frames))
            .collect();
        par_for_each_mut(&mut slots, |id, (out, lat)| {
            **out = self.simulate_client(id, &plan, &adapter, lat);
        });
        drop(slots);

        // Serial merge in client order: counters, the determinism witness,
        // and the latency population (the buffer, compacted in place).
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        let mut undelivered = 0u64;
        let mut never_queued = 0u64;
        let mut reconnects = 0u64;
        let mut bytes_sent = 0u64;
        let mut partial_frames = 0u64;
        let mut fec_parity_bytes = 0u64;
        let mut fec_absorbed_ticks = 0u64;
        let mut digest = Fnv1a::new();
        let mut kept = 0;
        for (i, c) in outcomes.iter().enumerate() {
            delivered += c.delivered;
            dropped += c.dropped;
            undelivered += c.undelivered;
            never_queued += c.never_queued;
            reconnects += c.reconnects;
            bytes_sent += c.bytes_sent;
            partial_frames += c.partial_frames;
            fec_parity_bytes += c.fec_parity_bytes;
            fec_absorbed_ticks += c.fec_absorbed_ticks;
            for v in [
                c.id as u64,
                c.delivered,
                c.dropped,
                c.undelivered,
                c.reconnects,
                c.bytes_sent,
            ] {
                digest.write(&v.to_le_bytes());
            }
            // Layered-only counters join the witness only for layered
            // streams so legacy outcome hashes are unchanged.
            if layers > 1 {
                for v in [c.partial_frames, c.fec_parity_bytes, c.fec_absorbed_ticks] {
                    digest.write(&v.to_le_bytes());
                }
            }
            let mine = i * self.frames..i * self.frames + c.delivered as usize;
            let mut lat_hash = Fnv1a::new();
            for l in &latencies[mine.clone()] {
                lat_hash.write(&l.to_le_bytes());
            }
            digest.write(&lat_hash.finish().to_le_bytes());
            latencies.copy_within(mine, kept);
            kept += c.delivered as usize;
        }
        latencies.truncate(kept);

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
            never_queued_frames: never_queued,
            reconnects,
            bytes_sent,
            partial_frames,
            fec_parity_bytes,
            fec_absorbed_ticks,
            p50_latency_ms: pct(50),
            p99_latency_ms: pct(99),
            mean_latency_ms: mean,
            outcome_hash: digest.finish(),
        })
    }

    /// Simulates one client session. Pure function of
    /// `(params, stream, traces, plan, id)` — the determinism contract.
    ///
    /// The model is the tick loop of the module docs; this walks it one
    /// frame interval at a time. Within an interval the fault bits, the
    /// byte budget and the queue's tail are fixed, so every stretch of
    /// ticks that repeats one action is taken in a single step with the
    /// integers the ticks would have produced: a timer counts down by
    /// `min(timer, ticks left)`, a lossy stretch burns `n × min(budget,
    /// left)` bytes, a clean transfer of `left` bytes ends on its
    /// `⌈left / budget⌉`-th tick. What changes the machine's state — an
    /// outage, the parity shield absorbing a loss, a phase change — stays
    /// a one-tick event. `simulate_client_ticks` (tests) is the referee.
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
        adapter: &RateAdapter,
        latencies: &mut [u32],
    ) -> ClientOutcome {
        let p = &self.params;
        let (frames, layers) = (self.frames, self.layers);
        let fi = p.frame_interval_ticks as u64;
        let sim_ticks = frames as u64 * fi + p.drain_ticks as u64;
        let trace = &self.traces[id % self.traces.len()];

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
        let mut manifest_left = self.manifest_bytes;
        // The send queue. A subscribed client is queued every frame from
        // then on and the bound drops from the front, so the queue is
        // always a run of consecutive frames.
        let mut queue: Range<usize> = 0..0;
        let mut queued = 0u64;
        let mut in_flight: Option<Transfer> = None;
        let mut distress = Distress::calm();
        let mut subscribed = false;

        let mut t = arrival;
        'sim: while t < sim_ticks {
            let frame_now = (t / fi) as usize;
            let live = frame_now < frames;
            let end = ((frame_now as u64 + 1) * fi).min(sim_ticks);
            let faults = plan.at(frame_now);
            let outage = faults.has(id, Fault::Outage);
            let loss = faults.has(id, Fault::Loss);
            let stall = faults.ap_stall;

            // Publish: the server enqueues each new frame for every
            // subscribed session, connected or not — a reconnecting
            // client's backlog keeps growing, which is exactly what the
            // backpressure bound is for.
            if subscribed && live && t % fi == 0 {
                if queue.is_empty() {
                    queue = frame_now..frame_now;
                }
                debug_assert_eq!(queue.end, frame_now);
                queue.end += 1;
                queued += 1;
                if queue.len() > p.queue_cap_frames {
                    queue.start += 1;
                    out.dropped += 1;
                }
            }

            // Per-tick byte budget: base rate × client speed × viewport
            // factor from the replayed trace (far viewpoints ≈ weak link).
            let dist = trace.pose(frame_now.min(frames - 1)).position.norm();
            let viewport = (1.25 / (1.0 + 0.25 * dist)).clamp(0.25, 1.25);
            let budget = ((p.base_bytes_per_tick as f64 * speed * viewport) as u64).max(1);

            while t < end {
                let n = end - t;
                match phase {
                    // Outage: a mid-transfer disconnect. The interrupted
                    // chunk (or manifest) restarts from byte zero after
                    // the reconnect.
                    Phase::Manifest | Phase::Streaming if outage => {
                        if let Some(tr) = &mut in_flight {
                            if tr.left < tr.total {
                                tr.left = tr.total;
                                // The restart resends the parity too: the
                                // shield comes back with it.
                                tr.shield = tr.parity > 0;
                            }
                        }
                        distress.raise(2);
                        if phase == Phase::Manifest {
                            manifest_left = self.manifest_bytes;
                        }
                        phase = Phase::Reconnecting;
                        phase_timer = p.reconnect_ticks as u64;
                        out.reconnects += 1;
                        t += 1;
                    }
                    Phase::Handshake => {
                        let wait = phase_timer.min(n);
                        phase_timer -= wait;
                        t += wait;
                        if t < end {
                            phase = Phase::Manifest;
                            t += 1;
                        }
                    }
                    Phase::Manifest => {
                        if stall {
                            t = end;
                        } else if loss {
                            out.bytes_sent += n * budget.min(manifest_left);
                            t = end;
                        } else {
                            let ticks = manifest_left.div_ceil(budget);
                            if ticks <= n {
                                out.bytes_sent += manifest_left;
                                manifest_left = 0;
                                phase = Phase::Streaming;
                                subscribed = true;
                                t += ticks;
                            } else {
                                out.bytes_sent += n * budget;
                                manifest_left -= n * budget;
                                t = end;
                            }
                        }
                    }
                    Phase::Streaming => {
                        if in_flight.is_none() && !queue.is_empty() {
                            let frame = queue.start;
                            queue.start += 1;
                            let tr = self.start_transfer(frame, queue.len(), &distress, adapter);
                            out.fec_parity_bytes += tr.parity;
                            in_flight = Some(tr);
                        }
                        let Some(tr) = &mut in_flight else {
                            if live {
                                // Nothing to send before the next publish.
                                t = end;
                            } else {
                                // Stream drained; the Closed arm exits the
                                // loop on the next tick.
                                phase = Phase::Closed;
                                t += 1;
                            }
                            continue;
                        };
                        // The tick a transfer's last byte is credited on,
                        // if that happens in this stretch.
                        let mut last_tick = None;
                        if stall {
                            t = end;
                        } else if loss && tr.shield {
                            // With a parity shield (layered delivery under
                            // distress), the first loss tick of the
                            // in-flight frame repairs locally: progress is
                            // credited and the shield is consumed.
                            let sent = budget.min(tr.left);
                            out.bytes_sent += sent;
                            tr.shield = false;
                            out.fec_absorbed_ticks += 1;
                            distress.raise(1);
                            tr.left -= sent;
                            if tr.left == 0 {
                                last_tick = Some(t);
                            }
                            t += 1;
                        } else if loss {
                            // Reorder-free loss: the bytes are transmitted
                            // (airtime burned) but not credited — re-sent
                            // on a later tick. `n` raises of 2 saturate
                            // where one raise of `min(2n, cap)` does.
                            out.bytes_sent += n * budget.min(tr.left);
                            distress.raise((2 * n).min(6) as u32);
                            t = end;
                        } else {
                            let ticks = tr.left.div_ceil(budget);
                            if ticks <= n {
                                out.bytes_sent += tr.left;
                                tr.left = 0;
                                t += ticks;
                                last_tick = Some(t - 1);
                            } else {
                                out.bytes_sent += n * budget;
                                tr.left -= n * budget;
                                t = end;
                            }
                        }
                        if let Some(tick) = last_tick {
                            // Decode-deadline overrun: bytes arrived, the
                            // decoder missed its slot; completion lands on
                            // the next frame boundary.
                            let done = if faults.has(id, Fault::DecodeOverrun) {
                                (frame_now as u64 + 1) * fi
                            } else {
                                tick
                            };
                            let published = tr.frame as u64 * fi;
                            latencies[out.delivered as usize] = (done - published) as u32;
                            out.delivered += 1;
                            if tr.layers < layers {
                                out.partial_frames += 1;
                            }
                            distress.relax();
                            in_flight = None;
                        }
                    }
                    Phase::Reconnecting => {
                        let wait = phase_timer.min(n);
                        phase_timer -= wait;
                        t += wait;
                        if t < end {
                            if outage {
                                // Still dark: nothing moves before the
                                // next boundary.
                                t = end;
                            } else {
                                // Session resume: the manifest (if it
                                // completed) is cached client-side;
                                // otherwise restart it.
                                phase = if subscribed {
                                    Phase::Streaming
                                } else {
                                    Phase::Manifest
                                };
                                t += 1;
                            }
                        }
                    }
                    Phase::Closed => break 'sim,
                }
            }
        }

        out.undelivered = queue.len() as u64 + u64::from(in_flight.is_some());
        out.never_queued = frames as u64 - queued;
        debug_assert_eq!(
            out.delivered + out.dropped + out.undelivered + out.never_queued,
            frames as u64,
            "client {id}: a frame is unaccounted for"
        );
        out
    }

    /// Dequeues `frame` for a client with `backlog` frames still queued
    /// behind it: what goes on the wire for it.
    fn start_transfer(
        &self,
        frame: usize,
        backlog: usize,
        distress: &Distress,
        adapter: &RateAdapter,
    ) -> Transfer {
        let layers = self.layers;
        if layers == 1 {
            let total = self.chunk_bytes[frame];
            return Transfer {
                frame,
                left: total,
                total,
                layers: 1,
                parity: 0,
                shield: false,
            };
        }
        // Unified delivery policy: queue headroom is the buffer signal (an
        // empty queue = comfortable client = all layers; a full queue =
        // backlogged = base only), and accumulated distress picks the
        // parity rung.
        let headroom = self.params.queue_cap_frames.saturating_sub(backlog) as f64;
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
            distress,
        );
        let send = 1 + adapter.ladder.enhancement_layers(d.quality).min(layers - 1);
        let payload: u64 = self.chunk_bytes[frame * layers..][..send].iter().sum();
        let parity = (payload as f64 * d.fec.overhead()) as u64;
        Transfer {
            frame,
            left: payload + parity,
            total: payload + parity,
            layers: send,
            parity,
            shield: d.fec != FecRung::Off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use volcast_net::StreamWriter;
    use volcast_util::par::set_thread_count;
    use volcast_viewport::UserStudy;

    /// The referee: the tick loop `simulate_client` was until it learned
    /// to jump between events, kept verbatim (its inputs now come from
    /// `self`, it counts what it queues, and it owns its latency list).
    /// One iteration is one millisecond; nothing is closed-form.
    impl SessionServer {
        fn simulate_client_ticks(&self, id: usize, plan: &FaultPlan) -> (ClientOutcome, Vec<u32>) {
            let p = &self.params;
            let (chunk_bytes, manifest_bytes, layers) =
                (&self.chunk_bytes, self.manifest_bytes, self.layers);
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
            let mut queued = 0u64; // the one addition: feeds `never_queued`
            let mut latencies_ms: Vec<u32> = Vec::new();

            for t in arrival..sim_ticks {
                let frame_now = (t / fi) as usize;
                let faults = plan.at(frame_now);

                // Publish: the server enqueues each new frame for every
                // subscribed session, connected or not — a reconnecting
                // client's backlog keeps growing, which is exactly what the
                // backpressure bound is for.
                if subscribed && t % fi == 0 && frame_now < frames {
                    queue.push_back(frame_now);
                    queued += 1;
                    if queue.len() > p.queue_cap_frames {
                        queue.pop_front();
                        out.dropped += 1;
                    }
                }

                // Outage: a mid-transfer disconnect. The interrupted chunk
                // (or manifest) restarts from byte zero after the reconnect.
                if faults.has(id, Fault::Outage)
                    && matches!(phase, Phase::Manifest | Phase::Streaming)
                {
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
                        if !faults.has(id, Fault::Loss) {
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
                                    let send = 1 + adapter
                                        .ladder
                                        .enhancement_layers(d.quality)
                                        .min(layers - 1);
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
                            let left = if faults.has(id, Fault::Loss) {
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
                                let done = if faults.has(id, Fault::DecodeOverrun) {
                                    (t / fi + 1) * fi
                                } else {
                                    t
                                };
                                let published = frame as u64 * fi;
                                out.delivered += 1;
                                latencies_ms.push((done - published) as u32);
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
                        } else if !faults.has(id, Fault::Outage) {
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
            out.never_queued = frames as u64 - queued;
            (out, latencies_ms)
        }
    }

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

    /// One random stream: `layers` chunks a frame, each sized from a few
    /// bytes (far below a tick's budget) up to `max_chunk`.
    fn random_stream(rng: &mut Rng, frames: usize, layers: u8, max_chunk: usize) -> Vec<u8> {
        let mut w = if layers > 1 {
            StreamWriter::new_layered(10, 6, 30, layers)
        } else {
            StreamWriter::new(10, 6, 30)
        };
        for _ in 0..frames * layers as usize {
            let len = rng.gen_range(0..max_chunk + 1);
            w.push_frame(&vec![0x5a; len]);
        }
        w.finish()
    }

    #[test]
    fn event_stepping_matches_the_tick_loop_field_for_field() {
        let studies: Vec<Vec<Trace>> = (0..4)
            .map(|i| UserStudy::generate_with(20 + i, 30, 2, 2).traces)
            .collect();
        let mut seen = ClientOutcome::default();
        volcast_util::prop::run_cases_n("event_stepping_matches_the_tick_loop", 400, |rng| {
            let pick = |rng: &mut Rng, of: &[u32]| of[rng.gen_range(0..of.len())];
            let fi = match rng.gen_range(0..8u32) {
                0 => 1,
                1 | 2 => 33,
                _ => rng.gen_range(1..41u32),
            };
            let base = pick(rng, &[1, 40, 300, 2_048, 2_048, 50_000]);
            // Chunks from under one tick's budget to over an interval's.
            let max_chunk = match rng.gen_range(0..3u32) {
                0 => base as usize / 2,
                1 => base as usize * fi as usize / 2,
                _ => base as usize * fi as usize * 3,
            }
            .clamp(4, 200_000);
            let frames = rng.gen_range(1..41usize);
            let layers = rng.gen_range(1..5u32) as u8;
            let stream = random_stream(rng, frames, layers, max_chunk);
            // Every class from off to saturated: single- and multi-frame
            // outages, stall-heavy schedules, loss on every frame.
            let rate = |rng: &mut Rng, of: &[f64]| of[rng.gen_range(0..of.len())];
            let faults = FaultConfig {
                seed: rng.gen(),
                outage_rate: rate(rng, &[0.0, 0.03, 0.15, 0.5]),
                outage_frames: rng.gen_range(1..6usize),
                ap_stall_rate: rate(rng, &[0.0, 0.0, 0.1, 0.6]),
                ap_stall_frames: rng.gen_range(1..5usize),
                loss_rate: rate(rng, &[0.0, 0.05, 0.3, 1.0]),
                decode_overrun_rate: rate(rng, &[0.0, 0.1, 1.0]),
                blackout_start: rng.gen_range(0..frames),
                blackout_frames: if rng.gen_bool(0.2) {
                    rng.gen_range(1..8usize)
                } else {
                    0
                },
                ..FaultConfig::default()
            };
            let clients = rng.gen_range(1..6usize);
            let params = ServerParams {
                clients,
                admit_cap: rng.gen_range(1..6usize),
                frame_interval_ticks: fi,
                arrival_window_ticks: pick(rng, &[0, 1, 5, 128, 600]),
                handshake_ticks: pick(rng, &[0, 1, 4, 50]),
                reconnect_ticks: pick(rng, &[0, 1, 25, 90]),
                queue_cap_frames: rng.gen_range(1..10usize),
                base_bytes_per_tick: base,
                slow_fraction: [0.0, 1.0, 0.3][rng.gen_range(0..3usize)],
                slow_multiplier: [0.02, 0.2, 3.0][rng.gen_range(0..3usize)],
                drain_ticks: pick(rng, &[0, 1, 33, 330]),
                seed: rng.gen(),
                faults,
            };
            let traces = studies[rng.gen_range(0..studies.len())].clone();
            let srv = SessionServer::new(params, stream, traces).unwrap();
            let plan = FaultPlan::generate(faults, srv.frames, clients).unwrap();
            let adapter = RateAdapter::new(AbrPolicy::BufferOnly, 1);
            let mut latencies = vec![0u32; srv.frames];
            for id in 0..clients.min(params.admit_cap) {
                let got = srv.simulate_client(id, &plan, &adapter, &mut latencies);
                let (want, want_latencies) = srv.simulate_client_ticks(id, &plan);
                assert_eq!(got, want, "{params:?}");
                assert_eq!(latencies[..got.delivered as usize], want_latencies[..]);
                assert_eq!(
                    got.delivered + got.dropped + got.undelivered + got.never_queued,
                    srv.frames as u64,
                    "{got:?}"
                );
                seen.delivered += got.delivered;
                seen.dropped += got.dropped;
                seen.undelivered += got.undelivered;
                seen.never_queued += got.never_queued;
                seen.reconnects += got.reconnects;
                seen.partial_frames += got.partial_frames;
                seen.fec_absorbed_ticks += got.fec_absorbed_ticks;
            }
        });
        // The cases reached every exit a frame can take and every recovery
        // path, not one corner of the model.
        for (what, n) in [
            ("delivered", seen.delivered),
            ("dropped", seen.dropped),
            ("undelivered", seen.undelivered),
            ("never queued", seen.never_queued),
            ("reconnects", seen.reconnects),
            ("partial frames", seen.partial_frames),
            ("absorbed loss ticks", seen.fec_absorbed_ticks),
        ] {
            assert!(n > 50, "only {n} {what} over all cases");
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
        assert_eq!(seen + out.never_queued_frames, 16 * 20, "{out:?}");
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
        // Every frame of every admitted client is accounted exactly once.
        assert_eq!(
            out.delivered_frames
                + out.dropped_frames
                + out.undelivered_frames
                + out.never_queued_frames,
            8 * 40,
            "{out:?}"
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
