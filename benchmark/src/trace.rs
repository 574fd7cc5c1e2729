//! Benchmark-side spans: a tree `workload > step > layer call`, kept in
//! memory and written to `benchmark/out/trace-<workload>.json` when the
//! traced pass ends. Nothing under `crates/` is touched: a span is opened
//! around a call into a layer's public function, from here.

use std::time::Instant;
use volcast_util::json::JsonValue;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Step of the round the span belongs to, `-1` outside any step
    /// (the workload root, stage probes).
    pub step: i64,
    /// Calls the span covers: 1, or the batch size of a stage probe.
    pub calls: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans while enabled; a disabled recorder only runs the closure.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    step: i64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: -1,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Sets the step id stamped on spans opened from now on.
    pub fn set_step(&mut self, step: i64) {
        self.step = step;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.scope_calls(name, 1, f)
    }

    fn scope_calls<R>(
        &mut self,
        name: &'static str,
        calls: u32,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            step: self.step,
            calls,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// A stage probe: calls `f` in batches of `batch`, one span per batch,
    /// for about `PROBE_BUDGET_MS` (at least `PROBE_MIN_BATCHES` batches),
    /// and returns the median nanoseconds per call. Works with the
    /// recorder disabled too (nothing is kept then).
    pub fn probe<R>(&mut self, name: &'static str, batch: u32, mut f: impl FnMut() -> R) -> f64 {
        const PROBE_BUDGET_MS: u128 = 30;
        const PROBE_MIN_BATCHES: usize = 5;
        const PROBE_MAX_BATCHES: usize = 50;
        let began = Instant::now();
        let mut per_call = Vec::new();
        while per_call.len() < PROBE_MIN_BATCHES
            || (began.elapsed().as_millis() < PROBE_BUDGET_MS && per_call.len() < PROBE_MAX_BATCHES)
        {
            let t = Instant::now();
            self.scope_calls(name, batch, |_| {
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
            });
            per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        crate::stats::median(&per_call).unwrap_or(0.0)
    }

    /// Median nanoseconds per call over the spans named `name` (the median
    /// shrugs off the spans a busy host stretched); `None` when there is
    /// none.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        let per_call: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / s.calls as f64)
            .collect();
        crate::stats::median(&per_call)
    }

    /// Self time of each span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(SpanRec::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The trace file's contents: every span with its self time, plus the
    /// program's own `obs` snapshot of the traced round.
    pub fn to_json(&self, workload: &str, obs_snapshot: JsonValue) -> JsonValue {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                JsonValue::Obj(vec![
                    ("id".into(), JsonValue::Num(id as f64)),
                    ("name".into(), JsonValue::Str(s.name.into())),
                    ("start_ns".into(), JsonValue::Num(s.start_ns as f64)),
                    ("end_ns".into(), JsonValue::Num(s.end_ns as f64)),
                    ("self_ns".into(), JsonValue::Num(self_ns as f64)),
                    (
                        "parent".into(),
                        s.parent
                            .map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                    ),
                    ("step".into(), JsonValue::Num(s.step as f64)),
                    ("calls".into(), JsonValue::Num(s.calls as f64)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("workload".into(), JsonValue::Str(workload.into())),
            ("spans".into(), JsonValue::Arr(spans)),
            ("obs".into(), obs_snapshot),
        ])
    }
}
