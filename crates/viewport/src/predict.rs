//! Single-user 6DoF viewport prediction.
//!
//! ViVo and the CoNEXT'19 study ("Analyzing Viewport Prediction under
//! Different VR Interactions") show that individual users' 6DoF motion is
//! predictable in real time with linear regression (LR) or a multilayer
//! perceptron (MLP). Both are implemented here from scratch:
//!
//! - [`LinearPredictor`]: per-dimension least-squares line fit over a
//!   sliding window, extrapolated to the prediction horizon,
//! - [`MlpPredictor`]: a small tanh MLP trained online with SGD to predict
//!   the next-frame pose delta, iterated for longer horizons.
//!
//! Angular dimensions are unwrapped (accumulated continuously) before
//! fitting so that a user crossing the ±π yaw boundary doesn't look like a
//! teleport.
// Fixed-size index loops (angle dims, octree children, AP slots) read
// clearer than iterator chains in this module.
#![allow(clippy::needless_range_loop)]

use std::collections::VecDeque;
use volcast_geom::{normalize_angle, SixDof};
use volcast_util::rng::Rng;

/// A streaming 6DoF pose predictor.
pub trait Predictor {
    /// Feeds the next observed pose sample (one per frame).
    fn observe(&mut self, sample: SixDof);

    /// Predicts the pose `horizon` frames past the last observation.
    /// `None` until enough history has been observed.
    fn predict(&self, horizon: usize) -> Option<SixDof>;

    /// Clears all history/state.
    fn reset(&mut self);
}

/// Unwraps angular dims against the previous unwrapped sample so the
/// history is continuous.
fn unwrap_against(prev: &SixDof, sample: &SixDof) -> SixDof {
    let mut v = sample.v;
    for i in 3..6 {
        let delta = normalize_angle(sample.v[i] - prev.v[i]);
        v[i] = prev.v[i] + delta;
    }
    SixDof::new(v)
}

/// Wraps angles back to `(-pi, pi]` for output.
fn wrap_output(mut s: SixDof) -> SixDof {
    for i in 3..6 {
        s.v[i] = normalize_angle(s.v[i]);
    }
    s
}

/// Least-squares linear extrapolation per dimension over a sliding window.
#[derive(Debug, Clone)]
pub struct LinearPredictor {
    window: usize,
    history: VecDeque<SixDof>,
}

impl LinearPredictor {
    /// Creates a predictor with a history window of `window` samples
    /// (ViVo uses on the order of 10-30 samples at 30 Hz).
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "window must hold at least 2 samples");
        LinearPredictor {
            window,
            history: VecDeque::with_capacity(window),
        }
    }
}

impl Predictor for LinearPredictor {
    fn observe(&mut self, sample: SixDof) {
        let unwrapped = match self.history.back() {
            Some(prev) => unwrap_against(prev, &sample),
            None => sample,
        };
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(unwrapped);
    }

    fn predict(&self, horizon: usize) -> Option<SixDof> {
        let n = self.history.len();
        if n < 2 {
            return None;
        }
        // Fit y = a + b * t over t = 0..n-1 per dimension; closed-form OLS.
        let nf = n as f64;
        let t_mean = (nf - 1.0) / 2.0;
        let t_var: f64 = (0..n).map(|t| (t as f64 - t_mean).powi(2)).sum();
        let mut out = [0.0f64; 6];
        for d in 0..6 {
            let y_mean: f64 = self.history.iter().map(|s| s.v[d]).sum::<f64>() / nf;
            let cov: f64 = self
                .history
                .iter()
                .enumerate()
                .map(|(t, s)| (t as f64 - t_mean) * (s.v[d] - y_mean))
                .sum();
            let b = if t_var > 0.0 { cov / t_var } else { 0.0 };
            let a = y_mean - b * t_mean;
            let t_pred = (n - 1) as f64 + horizon as f64;
            out[d] = a + b * t_pred;
        }
        Some(wrap_output(SixDof::new(out)))
    }

    fn reset(&mut self) {
        self.history.clear();
    }
}

/// Small fully connected network: `in -> hidden (tanh) -> out` trained with
/// plain SGD. Deterministic given the seed.
#[derive(Debug, Clone)]
struct Mlp {
    w1: Vec<Vec<f64>>, // [hidden][input]
    b1: Vec<f64>,
    w2: Vec<Vec<f64>>, // [output][hidden]
    b2: Vec<f64>,
    lr: f64,
}

impl Mlp {
    fn new(inputs: usize, hidden: usize, outputs: usize, lr: f64, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let scale = (1.0 / inputs as f64).sqrt();
        let mat = |r: usize, c: usize, rng: &mut Rng| -> Vec<Vec<f64>> {
            (0..r)
                .map(|_| (0..c).map(|_| rng.gen_range(-scale..scale)).collect())
                .collect()
        };
        Mlp {
            w1: mat(hidden, inputs, &mut rng),
            b1: vec![0.0; hidden],
            w2: mat(outputs, hidden, &mut rng),
            b2: vec![0.0; outputs],
            lr,
        }
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let h: Vec<f64> = self
            .w1
            .iter()
            .zip(&self.b1)
            .map(|(row, b)| (row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + b).tanh())
            .collect();
        let y: Vec<f64> = self
            .w2
            .iter()
            .zip(&self.b2)
            .map(|(row, b)| row.iter().zip(&h).map(|(w, hi)| w * hi).sum::<f64>() + b)
            .collect();
        (h, y)
    }

    /// One SGD step on (x, target) with squared loss; returns the loss.
    fn train(&mut self, x: &[f64], target: &[f64]) -> f64 {
        let (h, y) = self.forward(x);
        let err: Vec<f64> = y.iter().zip(target).map(|(yi, t)| yi - t).collect();
        let loss: f64 = err.iter().map(|e| e * e).sum::<f64>() / err.len() as f64;

        // Output layer gradients.
        for (o, e) in err.iter().enumerate() {
            for (j, hj) in h.iter().enumerate() {
                self.w2[o][j] -= self.lr * e * hj;
            }
            self.b2[o] -= self.lr * e;
        }
        // Hidden layer gradients (through tanh).
        for (j, hj) in h.iter().enumerate() {
            let upstream: f64 = err.iter().enumerate().map(|(o, e)| e * self.w2[o][j]).sum();
            let grad = upstream * (1.0 - hj * hj);
            for (i, xi) in x.iter().enumerate() {
                self.w1[j][i] -= self.lr * grad * xi;
            }
            self.b1[j] -= self.lr * grad;
        }
        loss
    }
}

/// MLP viewport predictor: learns the next-frame pose *delta* from the last
/// `lags` deltas, online. Longer horizons iterate the one-step prediction.
#[derive(Debug, Clone)]
pub struct MlpPredictor {
    mlp: Mlp,
    lags: usize,
    /// Unwrapped pose history (most recent last). Holds `lags + 1` poses.
    history: VecDeque<SixDof>,
    /// Input/target scale: deltas are ~centimeters/centiradians per frame.
    scale: f64,
}

impl MlpPredictor {
    /// Creates an MLP predictor with `lags` input deltas (default-quality
    /// configuration: 3 lags, 24 hidden units).
    pub fn new(lags: usize, seed: u64) -> Self {
        assert!(lags >= 1);
        MlpPredictor {
            mlp: Mlp::new(lags * 6, 24, 6, 0.02, seed),
            lags,
            history: VecDeque::with_capacity(lags + 2),
            scale: 50.0,
        }
    }

    fn deltas(&self) -> Option<Vec<f64>> {
        if self.history.len() < self.lags + 1 {
            return None;
        }
        let mut x = Vec::with_capacity(self.lags * 6);
        let n = self.history.len();
        for k in (n - self.lags)..n {
            let prev = &self.history[k - 1];
            let cur = &self.history[k];
            for d in 0..6 {
                x.push((cur.v[d] - prev.v[d]) * self.scale);
            }
        }
        Some(x)
    }
}

impl Predictor for MlpPredictor {
    fn observe(&mut self, sample: SixDof) {
        let unwrapped = match self.history.back() {
            Some(prev) => unwrap_against(prev, &sample),
            None => sample,
        };
        // Before pushing: if we have enough history, the new sample is a
        // training target for the previous input window.
        if self.history.len() > self.lags {
            if let Some(x) = self.deltas() {
                let prev = *self.history.back().unwrap();
                let target: Vec<f64> = (0..6)
                    .map(|d| (unwrapped.v[d] - prev.v[d]) * self.scale)
                    .collect();
                self.mlp.train(&x, &target);
            }
        }
        if self.history.len() > self.lags + 1 {
            self.history.pop_front();
        }
        self.history.push_back(unwrapped);
    }

    fn predict(&self, horizon: usize) -> Option<SixDof> {
        let x0 = self.deltas()?;
        let mut x = x0;
        let mut pose = *self.history.back().unwrap();
        for _ in 0..horizon.max(1) {
            let (_, dy) = self.mlp.forward(&x);
            for d in 0..6 {
                pose.v[d] += dy[d] / self.scale;
            }
            // Slide the delta window.
            x.drain(0..6);
            x.extend_from_slice(&dy);
        }
        Some(wrap_output(pose))
    }

    fn reset(&mut self) {
        self.history.clear();
    }
}

/// Prediction error of a predictor over a pose series at a fixed horizon:
/// returns (mean translation error in meters, mean rotation error in rad).
pub fn evaluate_predictor<P: Predictor + ?Sized>(
    predictor: &mut P,
    series: &[SixDof],
    horizon: usize,
) -> (f64, f64) {
    let mut t_err = 0.0;
    let mut r_err = 0.0;
    let mut count = 0usize;
    for (i, s) in series.iter().enumerate() {
        if let Some(pred) = predictor.predict(horizon) {
            if i + horizon < series.len() {
                // Compare prediction made BEFORE observing `s` against the
                // actual pose `horizon` frames later... careful: predict()
                // extrapolates from the last observation, so the ground
                // truth for "predict(h)" issued now is series[i - 1 + h].
                let truth = series[i - 1 + horizon];
                let diff = pred.wrapped_sub(&truth);
                t_err += diff.translation_norm();
                r_err += diff.rotation_norm();
                count += 1;
            }
        }
        predictor.observe(*s);
    }
    if count == 0 {
        (f64::NAN, f64::NAN)
    } else {
        (t_err / count as f64, r_err / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_series(n: usize) -> Vec<SixDof> {
        vec![SixDof::new([1.0, 2.0, 3.0, 0.5, 0.1, 0.0]); n]
    }

    fn linear_series(n: usize) -> Vec<SixDof> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                SixDof::new([0.01 * t, 0.0, -0.02 * t, 0.005 * t, 0.0, 0.0])
            })
            .collect()
    }

    #[test]
    fn linear_predictor_needs_history() {
        let mut p = LinearPredictor::new(10);
        assert!(p.predict(1).is_none());
        p.observe(SixDof::default());
        assert!(p.predict(1).is_none());
        p.observe(SixDof::default());
        assert!(p.predict(1).is_some());
    }

    #[test]
    fn linear_predictor_exact_on_linear_motion() {
        let mut p = LinearPredictor::new(10);
        let series = linear_series(30);
        for s in &series[..20] {
            p.observe(*s);
        }
        for h in [1usize, 5, 10] {
            let pred = p.predict(h).unwrap();
            let truth = series[19 + h];
            let d = pred.wrapped_sub(&truth);
            assert!(d.translation_norm() < 1e-9, "h={h}");
            assert!(d.rotation_norm() < 1e-9, "h={h}");
        }
    }

    #[test]
    fn linear_predictor_constant_motion() {
        let mut p = LinearPredictor::new(5);
        for s in constant_series(10) {
            p.observe(s);
        }
        let pred = p.predict(30).unwrap();
        let d = pred.wrapped_sub(&constant_series(1)[0]);
        assert!(d.translation_norm() < 1e-9);
    }

    #[test]
    fn linear_predictor_handles_angle_wrap() {
        // Yaw sweeping through +pi: predictions must not jump.
        let mut p = LinearPredictor::new(8);
        for i in 0..20 {
            let yaw = 3.0 + 0.02 * i as f64; // crosses pi ~ 3.1416 at i~7
            p.observe(SixDof::new([0.0, 0.0, 0.0, normalize_angle(yaw), 0.0, 0.0]));
        }
        let pred = p.predict(1).unwrap();
        let expect = normalize_angle(3.0 + 0.02 * 20.0);
        assert!(
            normalize_angle(pred.v[3] - expect).abs() < 1e-6,
            "pred {} expect {}",
            pred.v[3],
            expect
        );
    }

    #[test]
    fn mlp_learns_constant_velocity() {
        let mut p = MlpPredictor::new(3, 42);
        let series = linear_series(400);
        for s in &series {
            p.observe(*s);
        }
        let pred = p.predict(1).unwrap();
        let truth_delta = 0.01; // x advances 1 cm/frame
        let last = series.last().unwrap();
        let err = (pred.v[0] - (last.v[0] + truth_delta)).abs();
        assert!(err < 0.005, "x err {err}");
    }

    #[test]
    fn mlp_is_deterministic() {
        let run = || {
            let mut p = MlpPredictor::new(3, 7);
            for s in linear_series(100) {
                p.observe(s);
            }
            p.predict(5).unwrap()
        };
        assert_eq!(run().v, run().v);
    }

    #[test]
    fn evaluate_on_trace_linear_beats_nothing() {
        // On smooth synthetic traces the LR predictor should achieve
        // centimeter-scale error at short horizons.
        let gen = crate::traces::TraceGenerator::new(5, crate::traces::DeviceClass::Headset);
        let trace = gen.generate(0, 300);
        let series: Vec<SixDof> = trace.poses.iter().map(|p| p.to_sixdof()).collect();
        let mut lr = LinearPredictor::new(15);
        let (t_err, r_err) = evaluate_predictor(&mut lr, &series, 3);
        assert!(t_err < 0.05, "translation error {t_err} m");
        assert!(r_err < 0.2, "rotation error {r_err} rad");
    }

    #[test]
    fn longer_horizon_is_harder() {
        let gen = crate::traces::TraceGenerator::new(6, crate::traces::DeviceClass::Headset);
        let trace = gen.generate(1, 300);
        let series: Vec<SixDof> = trace.poses.iter().map(|p| p.to_sixdof()).collect();
        let err_at = |h: usize| {
            let mut lr = LinearPredictor::new(15);
            evaluate_predictor(&mut lr, &series, h).0
        };
        assert!(err_at(1) < err_at(10));
    }

    #[test]
    fn reset_clears_state() {
        let mut p = LinearPredictor::new(5);
        for s in constant_series(5) {
            p.observe(s);
        }
        assert!(p.predict(1).is_some());
        p.reset();
        assert!(p.predict(1).is_none());

        let mut m = MlpPredictor::new(2, 1);
        for s in constant_series(10) {
            m.observe(s);
        }
        assert!(m.predict(1).is_some());
        m.reset();
        assert!(m.predict(1).is_none());
    }
}
