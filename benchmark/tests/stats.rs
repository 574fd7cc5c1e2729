//! The percentile and quartile helpers behind `step_ms_p50`/`p90` and
//! `benchmark compare`.

use volcast_benchmark::stats::{median, percentile, quartiles, sorted};

#[test]
fn empty_input_has_no_statistics() {
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(median(&[]), None);
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn a_single_sample_is_every_percentile_but_has_no_quartiles() {
    for q in [0.0, 0.5, 0.9, 1.0] {
        assert_eq!(percentile(&[7.5], q), Some(7.5));
    }
    assert_eq!(quartiles(&[7.5]), None);
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let v = [40.0, 10.0, 30.0, 20.0];
    assert_eq!(percentile(&v, 0.0), Some(10.0));
    assert_eq!(percentile(&v, 0.5), Some(25.0));
    assert_eq!(percentile(&v, 1.0), Some(40.0));
    // Out-of-range quantiles clamp instead of indexing out of bounds.
    assert_eq!(percentile(&v, 7.0), Some(40.0));
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert!((percentile(&hundred, 0.9).unwrap() - 90.1).abs() < 1e-9);
}

#[test]
fn sorting_uses_total_cmp_so_nan_cannot_panic_or_hide() {
    let v = sorted(&[3.0, f64::NAN, -1.0, 2.0]);
    assert_eq!(&v[..3], &[-1.0, 2.0, 3.0]);
    assert!(v[3].is_nan());
    // The NaN sorts last; the low percentiles stay meaningful.
    assert_eq!(percentile(&[3.0, f64::NAN, -1.0, 2.0], 0.0), Some(-1.0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(
        quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
        Some([1.5, 4.0, 12.0])
    );
}
