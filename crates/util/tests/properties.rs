//! Property tests for the util crate itself: JSON round-trips and PRNG
//! statistical sanity. These exercise the same proptest-lite harness the
//! rest of the workspace uses, so the harness is its own first customer.

use volcast_util::bitset::BitSet;
use volcast_util::json::{FromJson, JsonValue, ToJson};
use volcast_util::prop::prelude::*;
use volcast_util::rng::Rng;

fn round_trip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: &T) {
    let text = v.to_json().to_json_string();
    let parsed = JsonValue::parse(&text).expect("writer must emit parseable JSON");
    let back = T::from_json(&parsed).expect("schema must accept its own output");
    assert_eq!(&back, v, "round trip changed the value (text: {text})");
}

proptest! {
    #[test]
    fn f64_round_trips(x in -1.0e12..1.0e12f64) {
        round_trip(&x);
    }

    #[test]
    fn integers_round_trip(a in -(1i64 << 53)..(1i64 << 53), b in 0u32..u32::MAX) {
        // Numbers ride the f64 model, exact up to |x| <= 2^53 — the full
        // u32/i32 ranges and every integer the workspace serializes.
        round_trip(&a);
        round_trip(&b);
    }

    #[test]
    fn vectors_and_options_round_trip(v in prop::collection::vec(-1.0e6..1.0e6f64, 0..20)) {
        round_trip(&v);
        round_trip(&Some(v.clone()));
        round_trip(&Option::<Vec<f64>>::None);
    }

    #[test]
    fn strings_round_trip_with_escapes(n in 0usize..64, seed in 0u64..1_000_000) {
        // Build strings over a hostile alphabet: quotes, backslashes,
        // control characters, multi-byte and astral code points.
        const ALPHABET: &[char] =
            &['a', '"', '\\', '\n', '\t', '\u{0}', '\u{7f}', 'é', '中', '🜁', '\u{2028}'];
        let mut rng = Rng::seed_from_u64(seed);
        let s: String = (0..n)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect();
        round_trip(&s);
    }

    #[test]
    fn parse_never_panics_on_mutated_output(v in prop::collection::vec(-10.0..10.0f64, 1..8), cut in 1usize..100) {
        // Truncating valid JSON anywhere must yield Err, never a panic.
        let text = v.to_json().to_json_string();
        let cut = cut.min(text.len().saturating_sub(1));
        let _ = JsonValue::parse(&text[..cut]);
    }

    #[test]
    fn adversarial_unicode_escapes_error_precisely(seed in 0u64..50_000) {
        // Assemble a hostile \uXXXX escape from pieces a fuzzer would find:
        // sign characters in digit positions, short digit runs, lone and
        // inverted surrogate halves. Parsing must never panic, and when it
        // fails the error must be a positioned parse error whose message
        // names the escape, not a generic failure.
        let mut rng = Rng::seed_from_u64(seed);
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
                prop_assert!(n_digits >= 4, "accepted short escape {doc:?} -> {s:?}");
                let text = JsonValue::Str(s).to_json_string();
                prop_assert!(JsonValue::parse(&text).is_ok());
            }
            Ok(other) => prop_assert!(false, "string doc parsed as {other:?}"),
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(
                    msg.contains("\\u escape") || msg.contains("surrogate"),
                    "imprecise error for {doc:?}: {msg}"
                );
            }
        }
    }

    #[test]
    fn uniform_mean_and_variance(seed in 0u64..10_000) {
        // U[0,1): mean 1/2, variance 1/12. 20k samples put the sample mean
        // within ~0.01 with overwhelming probability.
        let mut rng = Rng::seed_from_u64(seed);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        prop_assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        prop_assert!((var - 1.0 / 12.0).abs() < 0.01, "variance {var}");
    }

    #[test]
    fn normal_mean_and_std(seed in 0u64..10_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        prop_assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        prop_assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn int_ranges_are_roughly_uniform(seed in 0u64..10_000, k in 2u64..20) {
        // Each bucket of [0, k) should get about n/k hits.
        let mut rng = Rng::seed_from_u64(seed);
        let n = 10_000usize;
        let mut counts = vec![0usize; k as usize];
        for _ in 0..n {
            counts[rng.gen_range(0..k) as usize] += 1;
        }
        let expect = n as f64 / k as f64;
        for (i, &c) in counts.iter().enumerate() {
            prop_assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt() + 10.0,
                "bucket {i}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn bitset_matches_bool_vec_model(
        ops in prop::collection::vec((0usize..200, any::<bool>()), 0..120),
    ) {
        // Drive a BitSet and a Vec<bool> model through the same random
        // insert/remove script; every observable must agree afterwards.
        let mut set = BitSet::new();
        let mut model = [false; 200];
        for &(index, insert) in &ops {
            if insert {
                prop_assert_eq!(set.insert(index), !model[index]);
                model[index] = true;
            } else {
                prop_assert_eq!(set.remove(index), model[index]);
                model[index] = false;
            }
        }
        let expect: Vec<usize> =
            model.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), expect.clone());
        prop_assert_eq!(set.count(), expect.len());
        prop_assert_eq!(set.is_empty(), expect.is_empty());
        for (i, &b) in model.iter().enumerate() {
            prop_assert_eq!(set.contains(i), b, "index {}", i);
        }
        // Rebuilding from the surviving indices yields an equal set even
        // though this one never grew past its high-water mark.
        let rebuilt: BitSet = expect.into_iter().collect();
        prop_assert_eq!(set.clone(), rebuilt);
        set.clear();
        prop_assert!(set.is_empty());
        prop_assert_eq!(set, BitSet::new());
    }

    #[test]
    fn bitset_insert_range_matches_model(lo in 0usize..150, len in 0usize..150) {
        let mut ranged = BitSet::new();
        ranged.insert_range(lo..lo + len);
        let individual: BitSet = (lo..lo + len).collect();
        prop_assert_eq!(&ranged, &individual);
        prop_assert_eq!(ranged.count(), len);
    }

    #[test]
    fn seed_stability(seed in any::<u64>()) {
        // Identical seeds replay identical streams across all sampler kinds.
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
            prop_assert_eq!(a.gen_range(-5.0..5.0f64), b.gen_range(-5.0..5.0f64));
            prop_assert_eq!(a.gen_range(0..100u32), b.gen_range(0..100u32));
            prop_assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
        }
    }
}

#[test]
fn json_value_round_trips_structurally() {
    // A nested document covering every JsonValue variant.
    let doc = r#"{"a": [1, 2.5, -3e2], "b": {"nested": true, "null": null}, "s": "x\ny"}"#;
    let v = JsonValue::parse(doc).unwrap();
    let text = v.to_json_string();
    assert_eq!(JsonValue::parse(&text).unwrap(), v);
}
