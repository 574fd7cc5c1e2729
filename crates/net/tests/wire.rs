//! Wire-format robustness suite: round-trip properties, a truncation
//! sweep cutting the stream at every chunk boundary, and a seeded fuzz
//! smoke (N = 1000 random mutations). The contract under test is the
//! server's: malformed input may be rejected, never panicked on, and
//! corrupt payloads must not be served as valid.

use volcast_net::wire::{CHUNK_HEADER_LEN, STREAM_HEADER_LEN};
use volcast_net::{StreamReader, StreamWriter, WireCursor, WireError, WireEvent};
use volcast_util::prop::run_cases;
use volcast_util::rng::Rng;

/// Builds a stream with `n` frames of seeded pseudo-random payloads
/// (sizes vary per frame, including empty ones).
fn build_stream(seed: u64, n: usize, max_payload: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut w = StreamWriter::new(10, 6, 30);
    let mut payloads = Vec::with_capacity(n);
    for _ in 0..n {
        let len = rng.gen_range(0..(max_payload as u64 + 1)) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        w.push_frame(&payload);
        payloads.push(payload);
    }
    (w.finish(), payloads)
}

#[test]
fn round_trips_byte_identical() {
    run_cases("round_trips_byte_identical", |rng| {
        let (seed, n) = (rng.gen_range(0..10_000u64), rng.gen_range(0..40usize));
        let (bytes, payloads) = build_stream(seed, n, 600);
        let reader = StreamReader::parse(&bytes).unwrap();
        assert_eq!(reader.manifest().frame_count as usize, n);
        reader.validate_all().unwrap();
        for (f, expect) in payloads.iter().enumerate() {
            assert_eq!(reader.chunk_payload(f as u32).unwrap(), &expect[..]);
        }
        // Re-encoding the same payloads is byte-identical: the writer is
        // a pure function of (params, payloads).
        let mut again = StreamWriter::new(10, 6, 30);
        for p in &payloads {
            again.push_frame(p);
        }
        assert_eq!(again.finish(), bytes);
    });
}

#[test]
fn cursor_yields_same_events_under_any_chunking() {
    run_cases("cursor_yields_same_events_under_any_chunking", |rng| {
        let (seed, n) = (rng.gen_range(0..5_000u64), rng.gen_range(1..16usize));
        // Stream the bytes through a WireCursor in random-sized pieces;
        // the event sequence must match the random-access reader exactly.
        let (bytes, payloads) = build_stream(seed, n, 300);
        let mut rng = Rng::seed_from_u64(seed ^ 0xfeed);
        let mut cursor = WireCursor::new();
        let mut fed = 0usize;
        let mut events = Vec::new();
        loop {
            match cursor.poll() {
                Ok(Some(ev)) => events.push(ev),
                Ok(None) => {
                    if fed == bytes.len() {
                        break;
                    }
                    let piece = rng.gen_range(1..64u64) as usize;
                    let end = (fed + piece).min(bytes.len());
                    cursor.feed(&bytes[fed..end]);
                    fed = end;
                }
                Err(e) => panic!("cursor failed on valid stream: {e}"),
            }
        }
        assert!(cursor.is_complete());
        assert_eq!(events.len(), n + 1, "manifest + one event per frame");
        match &events[0] {
            WireEvent::Manifest(m) => assert_eq!(m.frame_count as usize, n),
            other => panic!("first event was {other:?}"),
        }
        for (i, ev) in events[1..].iter().enumerate() {
            match ev {
                WireEvent::Chunk { frame, payload } => {
                    assert_eq!(*frame as usize, i);
                    assert_eq!(payload, &payloads[i]);
                }
                other => panic!("event {i} was {other:?}"),
            }
        }
    });
}

#[test]
fn truncation_sweep_cuts_every_boundary() {
    let (bytes, payloads) = build_stream(99, 12, 200);

    // Every chunk boundary, chunk-header boundary, and mid-payload cut.
    let mut cuts = vec![
        0,
        1,
        STREAM_HEADER_LEN - 1,
        STREAM_HEADER_LEN,
        STREAM_HEADER_LEN + 1,
        bytes.len() - 1,
    ];
    let reader = StreamReader::parse(&bytes).unwrap();
    let manifest_end = bytes.len() - reader.manifest().chunk_area_len() as usize;
    cuts.push(manifest_end - 1);
    cuts.push(manifest_end);
    let mut offset = manifest_end;
    for p in &payloads {
        cuts.push(offset); // chunk start
        cuts.push(offset + CHUNK_HEADER_LEN); // header/payload boundary
        cuts.push(offset + CHUNK_HEADER_LEN + p.len() / 2); // mid payload
        offset += CHUNK_HEADER_LEN + p.len();
        cuts.push(offset - 1); // one byte short of the boundary
    }

    for cut in cuts {
        let cut = cut.min(bytes.len() - 1);
        let err = StreamReader::parse(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("cut at {cut}/{} parsed", bytes.len()));
        // Every cut is a graceful structural error, not a payload error:
        // the reader must know the stream is short before serving chunks.
        assert!(
            matches!(
                err,
                WireError::Truncated { .. } | WireError::Inconsistent(_)
            ),
            "cut at {cut}: unexpected error {err:?}"
        );

        // The incremental cursor treats the same prefix as incomplete
        // (more bytes may arrive), never as a crash.
        let mut cursor = WireCursor::new();
        cursor.feed(&bytes[..cut]);
        loop {
            match cursor.poll() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => panic!("cursor errored on truncated prefix at {cut}: {e}"),
            }
        }
        assert!(!cursor.is_complete(), "cut at {cut} reported complete");
    }
}

/// What `validate_all` must report: `chunk_payload` on each frame in
/// order, stopping at the first error.
fn validate_in_frame_order(reader: &StreamReader<'_>) -> Result<(), WireError> {
    (0..reader.manifest().frame_count).try_for_each(|f| reader.chunk_payload(f).map(|_| ()))
}

#[test]
fn validate_all_reports_the_first_bad_frame_in_frame_order() {
    // Several faults at once, all in the chunk area (so the head still
    // parses): flipped payload bytes fail a checksum, flipped header bytes
    // fail the manifest cross-check or the magic. Whichever frame comes
    // first wins, whatever order the hash lanes finish in.
    let mut rng = Rng::seed_from_u64(0xC0FF_EE42);
    let mut rejected = [0u32; 2];
    for case in 0..600 {
        let n = rng.gen_range(1..14u64) as usize;
        let (mut data, _) = build_stream(case, n, 900);
        let reader = StreamReader::parse(&data).unwrap();
        let entries = reader.manifest().entries.clone();
        let area = data.len() - reader.manifest().chunk_area_len() as usize;
        for _ in 0..rng.gen_range(0..4u32) {
            let e = entries[rng.gen_range(0..n as u64) as usize];
            let chunk = area + e.offset as usize;
            let at = if e.len == 0 || rng.gen_bool(0.4) {
                chunk + rng.gen_range(0..CHUNK_HEADER_LEN as u64) as usize
            } else {
                chunk + CHUNK_HEADER_LEN + rng.gen_range(0..e.len as u64) as usize
            };
            data[at] ^= 1 << rng.gen_range(0..8u32);
        }
        let reader = StreamReader::parse(&data).unwrap();
        let want = validate_in_frame_order(&reader);
        assert_eq!(reader.validate_all(), want, "case {case}");
        match want {
            Err(WireError::ChecksumMismatch { .. }) => rejected[0] += 1,
            Err(_) => rejected[1] += 1,
            Ok(()) => {}
        }
    }
    assert!(rejected[0] > 50 && rejected[1] > 50, "{rejected:?}");
}

#[test]
fn fuzz_smoke_random_mutations_never_panic() {
    // N = 1000 seeded random mutations over a valid stream: bit flips,
    // byte splats, truncations, duplications, and length perturbations.
    // The parser may accept or reject, but it must never panic, and a
    // chunk payload it *does* serve must hash to its declared checksum
    // (i.e. mutated payload bytes are never served as valid).
    let (bytes, _) = build_stream(4242, 10, 400);
    let mut rng = Rng::seed_from_u64(0x57EA_17F0);
    let mut accepted = 0u32;
    for case in 0..1_000 {
        let mut data = bytes.clone();
        match rng.gen_range(0..5u32) {
            0 => {
                // Single bit flip.
                let i = rng.gen_range(0..data.len() as u64) as usize;
                data[i] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => {
                // Byte splat.
                let i = rng.gen_range(0..data.len() as u64) as usize;
                data[i] = rng.gen_range(0..256u32) as u8;
            }
            2 => {
                // Truncate to a random prefix.
                let keep = rng.gen_range(0..data.len() as u64) as usize;
                data.truncate(keep);
            }
            3 => {
                // Append random trailing garbage.
                let extra = rng.gen_range(1..64u64) as usize;
                for _ in 0..extra {
                    data.push(rng.gen_range(0..256u32) as u8);
                }
            }
            _ => {
                // Duplicate a random slice over another position.
                let a = rng.gen_range(0..data.len() as u64) as usize;
                let b = rng.gen_range(0..data.len() as u64) as usize;
                let len = rng.gen_range(1..32u64) as usize;
                let len = len.min(data.len() - a).min(data.len() - b);
                let slice = data[a..a + len].to_vec();
                data[b..b + len].copy_from_slice(&slice);
            }
        }

        // Random-access parse path.
        if let Ok(reader) = StreamReader::parse(&data) {
            let frames = reader.manifest().frame_count;
            assert_eq!(
                reader.validate_all(),
                validate_in_frame_order(&reader),
                "case {case}"
            );
            for f in 0..frames {
                if let Ok(payload) = reader.chunk_payload(f) {
                    let declared = reader.manifest().entries[f as usize].checksum;
                    assert_eq!(
                        volcast_util::hash::fnv1a(payload),
                        declared,
                        "case {case}: served a payload that fails its checksum"
                    );
                }
            }
            accepted += 1;
        }

        // Incremental cursor path, fed in pieces.
        let mut cursor = WireCursor::new();
        let mut fed = 0usize;
        loop {
            match cursor.poll() {
                Ok(Some(_)) => continue,
                Ok(None) => {
                    if fed == data.len() {
                        break;
                    }
                    let piece = rng.gen_range(1..128u64) as usize;
                    let end = (fed + piece).min(data.len());
                    cursor.feed(&data[fed..end]);
                    fed = end;
                }
                Err(_) => break, // graceful rejection
            }
        }
    }
    // Sanity: the suite actually exercised the accept path too (payload
    // bit flips parse structurally and fail only chunk validation).
    assert!(accepted > 0, "no mutation survived structural parsing");
}
