//! Property tests for the util crate itself: JSON round-trips, PRNG
//! statistical sanity and the bit set against a `bool` model. Each runs on
//! `prop::run_cases`, the runner every suite in the workspace uses.

use volcast_util::bitset::BitSet;
use volcast_util::json::{FromJson, JsonValue, ToJson};
use volcast_util::prop::run_cases;
use volcast_util::rng::Rng;

fn round_trip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: &T) {
    let text = v.to_json().to_json_string();
    let parsed = JsonValue::parse(&text).expect("writer must emit parseable JSON");
    let back = T::from_json(&parsed).expect("schema must accept its own output");
    assert_eq!(&back, v, "round trip changed the value (text: {text})");
}

#[test]
fn f64_round_trips() {
    run_cases("f64_round_trips", |rng| {
        round_trip(&rng.gen_range(-1.0e12..1.0e12f64));
    });
}

#[test]
fn integers_round_trip() {
    run_cases("integers_round_trip", |rng| {
        // Numbers ride the f64 model, exact up to |x| <= 2^53 — the full
        // u32/i32 ranges and every integer the workspace serializes.
        round_trip(&rng.gen_range(-(1i64 << 53)..(1i64 << 53)));
        round_trip(&rng.gen_range(0u32..u32::MAX));
    });
}

#[test]
fn vectors_and_options_round_trip() {
    run_cases("vectors_and_options_round_trip", |rng| {
        let n = rng.gen_range(0..20usize);
        let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0e6..1.0e6)).collect();
        round_trip(&v);
        round_trip(&Some(v.clone()));
        round_trip(&Option::<Vec<f64>>::None);
    });
}

#[test]
fn strings_round_trip_with_escapes() {
    run_cases("strings_round_trip_with_escapes", |rng| {
        let (n, seed) = (rng.gen_range(0..64usize), rng.gen_range(0..1_000_000u64));
        // Build strings over a hostile alphabet: quotes, backslashes,
        // control characters, multi-byte and astral code points.
        const ALPHABET: &[char] = &[
            'a', '"', '\\', '\n', '\t', '\u{0}', '\u{7f}', 'é', '中', '🜁', '\u{2028}',
        ];
        let mut rng = Rng::seed_from_u64(seed);
        let s: String = (0..n)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect();
        round_trip(&s);
    });
}

#[test]
fn parse_never_panics_on_mutated_output() {
    run_cases("parse_never_panics_on_mutated_output", |rng| {
        let n = rng.gen_range(1..8usize);
        let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let cut = rng.gen_range(1..100usize);
        // Truncating valid JSON anywhere must yield Err, never a panic.
        let text = v.to_json().to_json_string();
        let cut = cut.min(text.len().saturating_sub(1));
        let _ = JsonValue::parse(&text[..cut]);
    });
}

#[test]
fn adversarial_unicode_escapes_error_precisely() {
    run_cases("adversarial_unicode_escapes_error_precisely", |rng| {
        // Assemble a hostile \uXXXX escape from pieces a fuzzer would find:
        // sign characters in digit positions, short digit runs, lone and
        // inverted surrogate halves. Parsing must never panic, and when it
        // fails the error must be a positioned parse error whose message
        // names the escape, not a generic failure.
        let mut rng = Rng::seed_from_u64(rng.gen_range(0..50_000u64));
        const DIGITS: &[&str] = &["0", "9", "a", "F", "+", "-", " ", "g"];
        let n_digits = rng.gen_range(0..6usize);
        let mut esc = String::from("\\u");
        for _ in 0..n_digits {
            esc.push_str(DIGITS[rng.gen_range(0..DIGITS.len())]);
        }
        // Half the time, prefix a high surrogate so the escape under test
        // sits in the low-surrogate slot.
        let doc = if rng.gen::<bool>() {
            format!("\"\\ud83d{esc}\"")
        } else {
            format!("\"{esc}\"")
        };
        match JsonValue::parse(&doc) {
            Ok(JsonValue::Str(s)) => {
                // Only a full 4-hex-digit escape may succeed, and it must
                // re-serialize to parseable JSON.
                assert!(n_digits >= 4, "accepted short escape {doc:?} -> {s:?}");
                let text = JsonValue::Str(s).to_json_string();
                assert!(JsonValue::parse(&text).is_ok());
            }
            Ok(other) => panic!("string doc parsed as {other:?}"),
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("\\u escape") || msg.contains("surrogate"),
                    "imprecise error for {doc:?}: {msg}"
                );
            }
        }
    });
}

#[test]
fn uniform_mean_and_variance() {
    run_cases("uniform_mean_and_variance", |rng| {
        // U[0,1): mean 1/2, variance 1/12. 20k samples put the sample mean
        // within ~0.01 with overwhelming probability.
        let mut rng = Rng::seed_from_u64(rng.gen_range(0..10_000u64));
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.01, "variance {var}");
    });
}

#[test]
fn normal_mean_and_std() {
    run_cases("normal_mean_and_std", |rng| {
        let mut rng = Rng::seed_from_u64(rng.gen_range(0..10_000u64));
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    });
}

#[test]
fn int_ranges_are_roughly_uniform() {
    run_cases("int_ranges_are_roughly_uniform", |rng| {
        let (seed, k) = (rng.gen_range(0..10_000u64), rng.gen_range(2..20u64));
        // Each bucket of [0, k) should get about n/k hits.
        let mut rng = Rng::seed_from_u64(seed);
        let n = 10_000usize;
        let mut counts = vec![0usize; k as usize];
        for _ in 0..n {
            counts[rng.gen_range(0..k) as usize] += 1;
        }
        let expect = n as f64 / k as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt() + 10.0,
                "bucket {i}: {c} vs {expect}"
            );
        }
    });
}

#[test]
fn bitset_matches_bool_vec_model() {
    run_cases("bitset_matches_bool_vec_model", |rng| {
        // Two BitSets and their Vec<bool> models, filled by the same random
        // inserts; every observable, alone and combined, must agree.
        let draw = |rng: &mut Rng| {
            let mut set = BitSet::new();
            let mut model = [false; 200];
            for _ in 0..rng.gen_range(0..120usize) {
                let index = rng.gen_range(0..200usize);
                assert_eq!(set.insert(index), !model[index]);
                model[index] = true;
            }
            (set, model)
        };
        let ((a, ma), (b, mb)) = (draw(rng), draw(rng));
        let ones = |m: &[bool]| (0..m.len()).filter(|&i| m[i]).collect::<Vec<usize>>();
        let both: Vec<bool> = ma.iter().zip(&mb).map(|(x, y)| *x && *y).collect();
        let either: Vec<bool> = ma.iter().zip(&mb).map(|(x, y)| *x || *y).collect();
        assert_eq!(a.iter().collect::<Vec<_>>(), ones(&ma));
        assert_eq!(a.count(), ones(&ma).len());
        assert_eq!(a.is_empty(), ones(&ma).is_empty());
        assert_eq!(a.iter_masked(&b).collect::<Vec<_>>(), ones(&both));
        assert_eq!(a.intersection_count(&b), ones(&both).len());
        assert_eq!(a.union_count(&b), ones(&either).len());
        let mut meet = a.clone();
        meet.intersect_with(&b);
        assert_eq!(meet, ones(&both).into_iter().collect::<BitSet>());
        let mut join = a.clone();
        join.union_with(&b);
        assert_eq!(join, ones(&either).into_iter().collect::<BitSet>());
    });
}

#[test]
fn seed_stability() {
    run_cases("seed_stability", |rng| {
        // Identical seeds replay identical streams across all sampler kinds.
        let seed: u64 = rng.gen();
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert_eq!(a.gen_range(-5.0..5.0f64), b.gen_range(-5.0..5.0f64));
            assert_eq!(a.gen_range(0..100u32), b.gen_range(0..100u32));
            assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
        }
    });
}

#[test]
fn json_value_round_trips_structurally() {
    // A nested document covering every JsonValue variant.
    let doc = r#"{"a": [1, 2.5, -3e2], "b": {"nested": true, "null": null}, "s": "x\ny"}"#;
    let v = JsonValue::parse(doc).unwrap();
    let text = v.to_json_string();
    assert_eq!(JsonValue::parse(&text).unwrap(), v);
}
