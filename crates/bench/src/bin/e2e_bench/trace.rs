//! Span tracing around the benchmark's own calls into the library.
//!
//! Every call the benchmark makes into a public API is wrapped in
//! [`Tracer::span`]. With [`Off`] the wrapper is an inlined direct call
//! and `Off::ON == false` lets callers compile their per-span
//! bookkeeping out, so the untraced path pays nothing. [`Recorder`]
//! keeps per-span totals and self times (span time minus the time its
//! child spans cover), the durations of the serve step classes, and a
//! bounded list of raw spans written out as Chrome trace-event JSON.

use std::time::Instant;

/// One instrumented call site (or grouping span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One complete set-up (root span).
    Setup,
    /// One timed episode (root span).
    Episode,
    /// `nn::dataset::synthetic_digits`.
    NnSyntheticDigits,
    /// `Mlp::fit`.
    NnFit,
    /// `InferenceServer::new`.
    ServeNew,
    /// `AccelDevice::load_matrix`.
    AccelLoadMatrix,
    /// `System::load_firmware_source` (assembly plus load).
    RiscvAssemble,
    /// `System::write_fixed_vector` (DRAM staging).
    RamStage,
    /// `InferenceServer::begin`.
    ServeBegin,
    /// `InferenceServer::step` that streamed vectors through a PE.
    StepDispatch,
    /// `InferenceServer::step` that started a recalibration.
    StepRecal,
    /// Any other `InferenceServer::step` (scheduler, join, ABFT verify).
    StepOther,
    /// `InferenceServer::finish`.
    ServeFinish,
    /// The benchmark's own host-side work (bias, ReLU, request building).
    BenchGlue,
    /// `System::run`.
    SystemRun,
    /// `System::read_fixed_vector`.
    BenchReadback,
}

impl Span {
    /// Every span, in index order.
    pub const ALL: [Span; 16] = [
        Span::Setup,
        Span::Episode,
        Span::NnSyntheticDigits,
        Span::NnFit,
        Span::ServeNew,
        Span::AccelLoadMatrix,
        Span::RiscvAssemble,
        Span::RamStage,
        Span::ServeBegin,
        Span::StepDispatch,
        Span::StepRecal,
        Span::StepOther,
        Span::ServeFinish,
        Span::BenchGlue,
        Span::SystemRun,
        Span::BenchReadback,
    ];

    /// Trace name.
    pub fn name(self) -> &'static str {
        match self {
            Span::Setup => "setup",
            Span::Episode => "episode",
            Span::NnSyntheticDigits => "nn.synthetic_digits",
            Span::NnFit => "nn.fit",
            Span::ServeNew => "serve.new",
            Span::AccelLoadMatrix => "accel.load_matrix",
            Span::RiscvAssemble => "riscv.assemble",
            Span::RamStage => "ram.stage",
            Span::ServeBegin => "serve.begin",
            Span::StepDispatch => "serve.step.dispatch",
            Span::StepRecal => "serve.step.recal",
            Span::StepOther => "serve.step.other",
            Span::ServeFinish => "serve.finish",
            Span::BenchGlue => "bench.glue",
            Span::SystemRun => "system.run",
            Span::BenchReadback => "bench.readback",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// The step classes keep every duration for percentiles.
    fn keeps_durations(self) -> bool {
        matches!(self, Span::StepDispatch | Span::StepRecal | Span::StepOther)
    }
}

/// Span sink. Spans nest: `exit` closes the most recent open `enter`.
pub trait Tracer {
    /// Whether spans are recorded. Callers gate any extra bookkeeping
    /// on it so the untraced build does none.
    const ON: bool;

    /// Opens a span; its name is given when it closes.
    fn enter(&mut self);

    /// Closes the innermost open span as `span`.
    fn exit(&mut self, span: Span);

    /// Runs `f` inside a span named `span`.
    #[inline(always)]
    fn span<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        self.enter();
        let r = f();
        self.exit(span);
        r
    }
}

/// Tracing switched off: every method is an empty inline function.
pub struct Off;

impl Tracer for Off {
    const ON: bool = false;

    #[inline(always)]
    fn enter(&mut self) {}

    #[inline(always)]
    fn exit(&mut self, _span: Span) {}
}

/// Accumulated statistics of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    /// Closed spans.
    pub count: u64,
    /// Sum of span durations \[ns\].
    pub total_ns: u64,
    /// Sum of self times \[ns\].
    pub self_ns: u64,
}

/// Raw spans kept for the trace file; later spans are only counted.
const MAX_EVENTS: usize = 20_000;

#[derive(Debug, Clone, Copy)]
struct Event {
    span: Span,
    start_ns: u64,
    dur_ns: u64,
    /// Episode number, `None` during set-up.
    episode: Option<u32>,
}

/// In-memory span recorder.
pub struct Recorder {
    origin: Instant,
    /// Open spans: start time and the time covered by closed children.
    stack: Vec<(u64, u64)>,
    stats: [SpanStats; Span::ALL.len()],
    durations: [Vec<u32>; Span::ALL.len()],
    events: Vec<Event>,
    dropped_events: u64,
    episode: Option<u32>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            stack: Vec::new(),
            stats: [SpanStats::default(); Span::ALL.len()],
            durations: Default::default(),
            events: Vec::new(),
            dropped_events: 0,
            episode: None,
        }
    }

    /// Tags subsequent raw spans with `episode` (`None` = set-up).
    pub fn set_episode(&mut self, episode: Option<u32>) {
        self.episode = episode;
    }

    /// Totals of `span`.
    pub fn stats(&self, span: Span) -> SpanStats {
        self.stats[span.index()]
    }

    /// Every recorded duration of a step-class span \[ns\].
    pub fn durations(&self, span: Span) -> &[u32] {
        &self.durations[span.index()]
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Chrome trace-event JSON of the kept raw spans (load it in
    /// Perfetto or `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (k, e) in self.events.iter().enumerate() {
            let args = match e.episode {
                Some(ep) => format!("{{\"episode\": {ep}}}"),
                None => "{\"phase\": \"setup\"}".to_string(),
            };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"e2e\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {args}}}{}\n",
                e.span.name(),
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                if k + 1 < self.events.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "], \"displayTimeUnit\": \"ns\", \"otherData\": {{\"kept_events\": {}, \
             \"dropped_events\": {}}}}}\n",
            self.events.len(),
            self.dropped_events
        ));
        out
    }
}

impl Tracer for Recorder {
    const ON: bool = true;

    fn enter(&mut self) {
        let now = self.now_ns();
        self.stack.push((now, 0));
    }

    fn exit(&mut self, span: Span) {
        let end = self.now_ns();
        let (start, children) = self.stack.pop().expect("exit without a matching enter");
        let dur = end - start;
        let s = &mut self.stats[span.index()];
        s.count += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(children);
        if let Some(parent) = self.stack.last_mut() {
            parent.1 += dur;
        }
        if span.keeps_durations() {
            self.durations[span.index()].push(dur.min(u32::MAX as u64) as u32);
        }
        if self.events.len() < MAX_EVENTS {
            self.events.push(Event {
                span,
                start_ns: start,
                dur_ns: dur,
                episode: self.episode,
            });
        } else {
            self.dropped_events += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.enter();
        rec_sleep(&mut rec, Span::SystemRun);
        rec_sleep(&mut rec, Span::BenchReadback);
        rec.exit(Span::Episode);
        let ep = rec.stats(Span::Episode);
        let run = rec.stats(Span::SystemRun);
        let rb = rec.stats(Span::BenchReadback);
        assert_eq!((ep.count, run.count, rb.count), (1, 1, 1));
        assert_eq!(ep.self_ns, ep.total_ns - run.total_ns - rb.total_ns);
        assert_eq!(run.self_ns, run.total_ns);
        assert!(rec.chrome_json().contains("\"name\": \"system.run\""));
    }

    fn rec_sleep(rec: &mut Recorder, span: Span) {
        rec.span(span, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
    }
}
