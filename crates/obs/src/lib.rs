#![warn(missing_docs)]

//! Structured event/metrics subsystem for the OASSIS reproduction.
//!
//! The paper's experimental claims are observability claims: questions
//! asked per MSP found, the fraction of assignment-DAG nodes ever
//! generated, crowd-answer cost. This crate turns those into a first-class
//! event stream. Instrumented code emits [`Event`]s into an [`EventSink`];
//! three sinks ship with the crate:
//!
//! - [`NullSink`] — the default; reports itself disabled so hot paths can
//!   skip event construction entirely,
//! - [`InMemorySink`] — thread-safe aggregation with queryable
//!   [`Snapshot`]s, for tests and benches,
//! - [`JsonLinesSink`] — one JSON object per event, for offline analysis.
//!
//! Timed regions use the [`Span`] RAII guard (or the [`scoped!`] macro),
//! which emits a [`EventKind::SpanExit`] with monotonic elapsed nanoseconds
//! when dropped.
//!
//! The full event taxonomy emitted by the OASSIS crates is documented in
//! `docs/observability.md`.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Canonical event names emitted by the OASSIS crates. Using these
/// constants keeps emitters and sink-side consumers (tests, the
/// `RecorderSink` in `oassis-core`, figure analysis scripts) in agreement;
/// see `docs/observability.md` for labels and units.
pub mod names {
    /// Counter: one crowd question posed. Label: `concrete`,
    /// `specialization`, `none_of_these`, or `pruning`.
    pub const QUESTION_ASKED: &str = "engine.question.asked";
    /// Counter: first time a distinct fact-set is asked about.
    pub const QUESTION_UNIQUE: &str = "engine.question.unique";
    /// Counter: an MSP was confirmed. Label: `valid` or `invalid`.
    pub const MSP_CONFIRMED: &str = "engine.msp.confirmed";
    /// Counter: an assignment was classified significant/insignificant
    /// (a border update). Label: `significant` or `insignificant`.
    pub const BORDER_UPDATED: &str = "engine.border.updated";
    /// Counter: assignment-DAG nodes materialized by the lazy generator.
    pub const DAG_NODES_GENERATED: &str = "engine.dag.nodes_generated";
    /// Gauge: total assignment-DAG size when cheap enough to count.
    pub const DAG_NODES_TOTAL: &str = "engine.dag.nodes_total";
    /// Span: OASSIS-QL parse + assignment-space planning.
    pub const SPAN_PLAN: &str = "engine.plan";
    /// Span: assignment-space construction (WHERE evaluation included).
    pub const SPAN_SPACE_BUILD: &str = "engine.space.build";
    /// Span: one full multi-user mining run.
    pub const SPAN_RUN: &str = "engine.run";
    /// Span: one member question/answer round-trip.
    pub const SPAN_ROUNDTRIP: &str = "engine.question.roundtrip";
    /// Span: the exhaustive DAG count behind the `engine.dag.nodes_total`
    /// gauge, which a session runs at admission only for an enabled sink.
    /// It walks up to `NODES_TOTAL_CAP` nodes, so on a multiplicity space
    /// it can dwarf the mining it precedes.
    pub const SPAN_DAG_COUNT: &str = "engine.dag.count";
    /// Span: a `MiningSession` turn's outer search for a minimal
    /// overall-unclassified assignment its seat can answer.
    pub const SPAN_MINE_SEARCH: &str = "engine.mine.search";
    /// Span: a turn's cursor step: descend from the seat's cursor, pick
    /// its next question or confirm an MSP.
    pub const SPAN_MINE_CURSOR: &str = "engine.mine.cursor";
    /// Span: `MiningSession::absorb`: apply one answer (record, aggregate,
    /// update the borders), including a follow-up question it stages.
    pub const SPAN_MINE_ABSORB: &str = "engine.mine.absorb";
    /// Span: one wave prediction (`predict_questions`) for one seat.
    pub const SPAN_MINE_PREDICT: &str = "engine.mine.predict";
    /// Span: the admission walk that classifies from seeded answers
    /// (`classify_from_cache`).
    pub const SPAN_MINE_CLASSIFY: &str = "engine.mine.classify";
    /// Span: closing a turn (`end_turn`): render newly confirmed MSPs.
    pub const SPAN_MINE_END_TURN: &str = "engine.mine.end_turn";
    /// Counter: questions per mining algorithm. Label: `vertical`,
    /// `horizontal`, `naive`, or `multiuser`.
    pub const ALGO_QUESTIONS: &str = "algo.questions";
    /// Counter: a member's cached answer was reused.
    pub const CROWD_CACHE_HIT: &str = "crowd.cache.hit";
    /// Counter: no cached answer existed for (fact-set, member).
    pub const CROWD_CACHE_MISS: &str = "crowd.cache.miss";
    /// Histogram: simulated per-member answer latency in nanoseconds.
    pub const CROWD_ANSWER_NANOS: &str = "crowd.answer.nanos";
    /// Histogram: answers available when an aggregator reached a decision.
    pub const CROWD_QUORUM_SIZE: &str = "crowd.quorum.size";
    /// Gauge: crowd questions currently in flight in the session runtime
    /// (dispatched to a worker, answer not yet integrated).
    pub const RUNTIME_INFLIGHT: &str = "runtime.questions.inflight";
    /// Counter: a question was dispatched to the executor. Label:
    /// `committed` (blocking ask) or `speculative` (prefetch). Every
    /// dispatch is eventually matched by one `RUNTIME_RESOLVED` count —
    /// the conservation law the simulation oracle checks.
    pub const RUNTIME_DISPATCHED: &str = "runtime.question.dispatched";
    /// Counter: a dispatched question's response was absorbed by the
    /// coordinator. Label: `answered`, `cancelled`, `timeout`, or
    /// `poisoned`.
    pub const RUNTIME_RESOLVED: &str = "runtime.question.resolved";
    /// Counter: one question attempt timed out. Label: `drop` (the member
    /// never responded) or `slow` (the answer would arrive too late).
    pub const RUNTIME_TIMEOUT: &str = "runtime.question.timeout";
    /// Counter: a timed-out question was retried with the same member.
    pub const RUNTIME_RETRY: &str = "runtime.question.retry";
    /// Counter: a member was excluded from the run. Label: `timeout`
    /// (retries exhausted) or `poisoned` (the member panicked mid-answer).
    pub const RUNTIME_MEMBER_EXCLUDED: &str = "runtime.member.excluded";
    /// Counter: speculative prefetch bookkeeping. Label: `dispatched`
    /// (prefetch sent to a worker), `hit` (a prefetched answer satisfied a
    /// committed question), or `wasted` (never consumed by the run).
    pub const RUNTIME_SPECULATION: &str = "runtime.speculation";
    /// Histogram: simulated member answer latency in nanoseconds, measured
    /// on the worker thread (queue wait + delivery delay + answering).
    pub const RUNTIME_ANSWER_NANOS: &str = "runtime.answer.nanos";
    /// Span: one session-runtime worker thread's lifetime.
    pub const SPAN_WORKER: &str = "runtime.worker";
    /// Counter: a memoized `SpaceCache` lookup was served from the arena.
    /// Label: `successors`, `predecessors`, `valid`, or `instantiate`.
    /// Counted only for an enabled sink, and never on the reference arena
    /// (`MiningSession::reference`), which memoizes nothing.
    pub const SPACE_CACHE_HIT: &str = "space.cache.hit";
    /// Counter: a `SpaceCache` lookup had to derive its result afresh.
    /// Same labels as [`SPACE_CACHE_HIT`].
    pub const SPACE_CACHE_MISS: &str = "space.cache.miss";
    /// Counter: border witnesses skipped by the index prefilter (weight
    /// bucket or root-mask mismatch) during a `status()` call.
    pub const BORDER_INDEX_PRUNED: &str = "border.index.pruned";
    /// Span: building one member's fact → transaction-id-set support index.
    pub const CROWD_TIDLIST_BUILD: &str = "crowd.tidlist.build";
    /// Counter: triple-pattern index scans. Label: the binding shape —
    /// `spo`, `sp?`, `?po`, or `?p?` (`?` marks an unbound endpoint).
    pub const SPARQL_PATTERN_SCAN: &str = "sparql.pattern.scan";
    /// Histogram: taxonomy depth reached by property-path expansion.
    pub const SPARQL_PATH_DEPTH: &str = "sparql.path.depth";
    /// Counter: scans that received a pushed-down `FILTER` value
    /// restriction during plan optimization.
    pub const SPARQL_PLAN_PUSHDOWN: &str = "sparql.plan.pushdown";
    /// Counter: `rel*`/`rel+` scans the planner unfolded into taxonomy
    /// reachability checks (the stored edges mirror `≤E`).
    pub const SPARQL_PLAN_UNFOLD: &str = "sparql.plan.unfold";
    /// Counter: plan subtrees pruned as provably empty.
    pub const SPARQL_PLAN_PRUNED: &str = "sparql.plan.pruned";
    /// Gauge: sessions currently admitted to the `OassisService` and not
    /// yet finalized.
    pub const SERVICE_SESSIONS_ACTIVE: &str = "service.sessions.active";
    /// Counter: a service session's question was dispatched to the shared
    /// crowd pool. Label: `s<session-id>`.
    pub const SERVICE_QUESTION_DISPATCHED: &str = "service.question.dispatched";
    /// Counter: a crowd answer was routed back to a service session.
    /// Label: `s<session-id>`.
    pub const SERVICE_QUESTION_RESOLVED: &str = "service.question.resolved";
    /// Counter: a cross-query `AnswerStore` lookup spared a crowd question.
    /// Label: `serve` (hit at dispatch time) or `seed` (answers replayed
    /// into a newly admitted session's cache).
    pub const ANSWERSTORE_HIT: &str = "answerstore.hit";
    /// Counter: an `AnswerStore` lookup found no stored answer and the
    /// crowd had to be asked.
    pub const ANSWERSTORE_MISS: &str = "answerstore.miss";
    /// Counter: one record appended to the durability write-ahead log.
    /// Label: the record kind — `answer`, `admit`, `budget`, or `close`.
    pub const WAL_APPEND: &str = "wal.append";
    /// Counter: records replayed from the log (snapshot + tail) while
    /// opening or recovering a durable store.
    pub const WAL_REPLAY: &str = "wal.replay";
    /// Counter: a snapshot was written and the log tail compacted away.
    pub const WAL_SNAPSHOT: &str = "wal.snapshot";
    /// Counter: a question was routed to a member shard's dispatch queue.
    /// Label: `shard<k>`.
    pub const SHARD_DISPATCHED: &str = "shard.dispatched";
    /// Counter: prefetch questions staged into a service session's wave
    /// (beyond its one committed dispatch). Label: `s<session-id>`.
    pub const WAVE_STAGED: &str = "wave.staged";
    /// Counter: a committed service question was served from an answer a
    /// wave prefetch already collected — accounted exactly like a crowd
    /// dispatch (it was one), but with zero commit-time latency.
    /// Label: `s<session-id>`.
    pub const WAVE_HIT: &str = "wave.hit";
    /// Counter: a service session's committed dispatch found its target
    /// seat busy and the session skipped to wave work for the cycle.
    /// Label: `s<session-id>`.
    pub const SERVICE_DISPATCH_STALLED: &str = "service.dispatch.stalled";
    /// Counter: one admission's assignment space, labeled `reused` (a live
    /// session of the same query shape already held it) or `built`.
    pub const SERVICE_SPACE: &str = "service.space";
}

/// The measurement carried by an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A monotonic count increment (e.g. "one more question asked").
    Counter(u64),
    /// A point-in-time level that may move both ways.
    Gauge(f64),
    /// One observation of a distribution (latency, quorum size, depth).
    Histogram(f64),
    /// A timed region began.
    SpanEnter,
    /// A timed region ended after `nanos` monotonic nanoseconds.
    SpanExit {
        /// Elapsed monotonic nanoseconds since the matching enter.
        nanos: u64,
    },
}

/// One instrumentation record. Borrowed, cheap to construct, and only
/// built when the receiving sink is enabled.
#[derive(Debug, Clone, Copy)]
pub struct Event<'a> {
    /// Dotted event name, e.g. `"engine.question.asked"`.
    pub name: &'a str,
    /// The measurement.
    pub kind: EventKind,
    /// Optional dimension (algorithm name, question kind, binding shape).
    pub label: Option<&'a str>,
}

impl<'a> Event<'a> {
    /// A counter increment of `n`.
    pub fn counter(name: &'a str, n: u64) -> Self {
        Event {
            name,
            kind: EventKind::Counter(n),
            label: None,
        }
    }

    /// A gauge level.
    pub fn gauge(name: &'a str, value: f64) -> Self {
        Event {
            name,
            kind: EventKind::Gauge(value),
            label: None,
        }
    }

    /// A histogram observation.
    pub fn histogram(name: &'a str, value: f64) -> Self {
        Event {
            name,
            kind: EventKind::Histogram(value),
            label: None,
        }
    }

    /// Attach a label dimension.
    pub fn with_label(mut self, label: &'a str) -> Self {
        self.label = Some(label);
        self
    }

    /// The aggregation key: `name` or `name[label]`.
    fn key(&self) -> String {
        match self.label {
            Some(l) => format!("{}[{}]", self.name, l),
            None => self.name.to_string(),
        }
    }
}

/// A receiver for instrumentation events.
///
/// Implementations must be cheap to call and tolerant of concurrent
/// emission. `Debug` is required so configuration structs holding a sink
/// handle can keep deriving `Debug`.
pub trait EventSink: Send + Sync + fmt::Debug {
    /// Whether this sink wants events at all. Instrumented code checks
    /// this once per scope and skips event construction when `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Receive one event.
    fn emit(&self, event: &Event<'_>);
}

/// Convenience emission helpers for shared sink handles.
pub trait SinkExt {
    /// Emit a counter increment of `n` if the sink is enabled.
    fn count(&self, name: &str, n: u64);
    /// Emit a labeled counter increment of `n` if the sink is enabled.
    fn count_labeled(&self, name: &str, label: &str, n: u64);
    /// Emit a gauge level if the sink is enabled.
    fn gauge(&self, name: &str, value: f64);
    /// Emit a labeled gauge level if the sink is enabled.
    fn gauge_labeled(&self, name: &str, label: &str, value: f64);
    /// Emit a histogram observation if the sink is enabled.
    fn observe(&self, name: &str, value: f64);
}

impl SinkExt for Arc<dyn EventSink> {
    fn count(&self, name: &str, n: u64) {
        if self.enabled() {
            self.emit(&Event::counter(name, n));
        }
    }

    fn count_labeled(&self, name: &str, label: &str, n: u64) {
        if self.enabled() {
            self.emit(&Event::counter(name, n).with_label(label));
        }
    }

    fn gauge(&self, name: &str, value: f64) {
        if self.enabled() {
            self.emit(&Event::gauge(name, value));
        }
    }

    fn gauge_labeled(&self, name: &str, label: &str, value: f64) {
        if self.enabled() {
            self.emit(&Event::gauge(name, value).with_label(label));
        }
    }

    fn observe(&self, name: &str, value: f64) {
        if self.enabled() {
            self.emit(&Event::histogram(name, value));
        }
    }
}

/// The no-op sink. Reports itself disabled, so instrumented code skips
/// event construction; the `emit` body is empty and inlines away.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&self, _event: &Event<'_>) {}
}

/// The shared process-wide [`NullSink`] handle used as every default.
pub fn null_sink() -> Arc<dyn EventSink> {
    static NULL: OnceLock<Arc<dyn EventSink>> = OnceLock::new();
    Arc::clone(NULL.get_or_init(|| Arc::new(NullSink)))
}

/// Number of log-scale histogram buckets: bucket `i` covers values in
/// `(2^(i-1), 2^i]`, with bucket 0 holding everything `<= 1` and the last
/// bucket holding everything larger than `2^62`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The log2-scale bucket index for a histogram observation.
pub fn bucket_index(value: f64) -> usize {
    if value.is_nan() || value <= 1.0 {
        // Non-positive, NaN, and everything up to 1 land in bucket 0.
        return 0;
    }
    let idx = value.log2().ceil() as usize;
    idx.min(HISTOGRAM_BUCKETS - 1)
}

/// The inclusive upper bound of bucket `i` (`+inf` for the last bucket).
pub fn bucket_upper_bound(i: usize) -> f64 {
    if i + 1 >= HISTOGRAM_BUCKETS {
        f64::INFINITY
    } else {
        (i as f64).exp2()
    }
}

/// Aggregated histogram state in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Log2-scale bucket counts; see [`bucket_index`].
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    fn new() -> Self {
        HistogramSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }

    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Mean observed value, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Aggregated span timing in a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Completed enter/exit pairs.
    pub count: u64,
    /// Spans entered but not yet exited at snapshot time.
    pub open: u64,
    /// Total nanoseconds across completed spans.
    pub total_nanos: u64,
}

/// A queryable point-in-time view of an [`InMemorySink`].
///
/// Keys are `name` or `name[label]`, matching [`Event`] identity.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Accumulated counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Last-written gauge levels.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram aggregates.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Span timing aggregates.
    pub spans: BTreeMap<String, SpanStats>,
}

impl Snapshot {
    /// Total for `key`, or 0 if never incremented.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of all counters whose key starts with `name[`, plus the bare
    /// `name` counter — the total across every label of one counter.
    pub fn counter_across_labels(&self, name: &str) -> u64 {
        let prefix = format!("{name}[");
        self.counters
            .iter()
            .filter(|(k, _)| *k == name || k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Last gauge level for `key`, if ever written.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Histogram aggregate for `key`, if any observation arrived.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSummary> {
        self.histograms.get(key)
    }

    /// Span timing for `key`, if the span was ever entered.
    pub fn span(&self, key: &str) -> Option<SpanStats> {
        self.spans.get(key).copied()
    }
}

/// Thread-safe aggregating sink for tests and benches.
#[derive(Debug, Default)]
pub struct InMemorySink {
    state: Mutex<Snapshot>,
}

impl InMemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sink behind a shared handle, ready for `EngineConfig`.
    pub fn shared() -> Arc<InMemorySink> {
        Arc::new(Self::new())
    }

    /// Copy out the current aggregate state.
    pub fn snapshot(&self) -> Snapshot {
        self.state.lock().expect("obs sink poisoned").clone()
    }

    /// Discard all aggregate state.
    pub fn reset(&self) {
        *self.state.lock().expect("obs sink poisoned") = Snapshot::default();
    }
}

impl EventSink for InMemorySink {
    fn emit(&self, event: &Event<'_>) {
        let key = event.key();
        let mut state = self.state.lock().expect("obs sink poisoned");
        match event.kind {
            EventKind::Counter(n) => {
                *state.counters.entry(key).or_insert(0) += n;
            }
            EventKind::Gauge(v) => {
                state.gauges.insert(key, v);
            }
            EventKind::Histogram(v) => {
                state
                    .histograms
                    .entry(key)
                    .or_insert_with(HistogramSummary::new)
                    .observe(v);
            }
            EventKind::SpanEnter => {
                state.spans.entry(key).or_default().open += 1;
            }
            EventKind::SpanExit { nanos } => {
                let s = state.spans.entry(key).or_default();
                s.open = s.open.saturating_sub(1);
                s.count += 1;
                s.total_nanos += nanos;
            }
        }
    }
}

/// A sink writing one JSON object per event, newline-delimited.
///
/// JSON is produced by hand (the workspace has no serde); names and labels
/// are escaped per RFC 8259. Typical line:
///
/// ```json
/// {"event":"engine.question.asked","type":"counter","value":1,"label":"concrete"}
/// ```
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl JsonLinesSink {
    /// Wrap any writer (a file, a `Vec<u8>`, stdout).
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        JsonLinesSink {
            out: Mutex::new(Box::new(writer)),
        }
    }

    /// Create (truncating) a file at `path` and write events to it.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }

    /// Flush the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("obs sink poisoned").flush()
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Escape `s` into `out` as a JSON string body (no surrounding quotes).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Format `v` so the output is valid JSON (no NaN/inf literals).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl EventSink for JsonLinesSink {
    fn emit(&self, event: &Event<'_>) {
        let mut line = String::with_capacity(96);
        line.push_str("{\"event\":\"");
        escape_json(event.name, &mut line);
        line.push('"');
        let (ty, value) = match event.kind {
            EventKind::Counter(n) => ("counter", n.to_string()),
            EventKind::Gauge(v) => ("gauge", json_f64(v)),
            EventKind::Histogram(v) => ("histogram", json_f64(v)),
            EventKind::SpanEnter => ("span_enter", "null".to_string()),
            EventKind::SpanExit { nanos } => ("span_exit_ns", nanos.to_string()),
        };
        line.push_str(",\"type\":\"");
        line.push_str(ty);
        line.push_str("\",\"value\":");
        line.push_str(&value);
        if let Some(label) = event.label {
            line.push_str(",\"label\":\"");
            escape_json(label, &mut line);
            line.push('"');
        }
        line.push_str("}\n");
        let mut out = self.out.lock().expect("obs sink poisoned");
        let _ = out.write_all(line.as_bytes());
    }
}

/// RAII guard for a timed region: emits [`EventKind::SpanEnter`] on
/// creation and [`EventKind::SpanExit`] with monotonic elapsed nanoseconds
/// on drop. When the sink is disabled no clock is read and drop is free.
#[derive(Debug)]
pub struct Span<'a> {
    sink: &'a dyn EventSink,
    name: &'static str,
    start: Option<Instant>,
}

impl<'a> Span<'a> {
    /// Enter a span named `name` on `sink`.
    pub fn enter(sink: &'a dyn EventSink, name: &'static str) -> Self {
        let start = if sink.enabled() {
            sink.emit(&Event {
                name,
                kind: EventKind::SpanEnter,
                label: None,
            });
            Some(Instant::now())
        } else {
            None
        };
        Span { sink, name, start }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.sink.emit(&Event {
                name: self.name,
                kind: EventKind::SpanExit { nanos },
                label: None,
            });
        }
    }
}

/// Time the rest of the enclosing block as a span:
///
/// ```
/// use std::sync::Arc;
/// use oassis_obs::{scoped, EventSink, InMemorySink};
///
/// let sink: Arc<dyn EventSink> = InMemorySink::shared();
/// {
///     scoped!(sink, "engine.run");
///     // ... timed work ...
/// }
/// assert!(sink.enabled());
/// ```
///
/// `$sink` is any expression that derefs to a `dyn EventSink` (for example
/// an `Arc<dyn EventSink>`); the guard lives until the end of the block.
#[macro_export]
macro_rules! scoped {
    ($sink:expr, $name:expr) => {
        let _oassis_span = $crate::Span::enter(&*$sink, $name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_covers_edges() {
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1.0), 0);
        assert_eq!(bucket_index(1.5), 1);
        assert_eq!(bucket_index(2.0), 1);
        assert_eq!(bucket_index(3.0), 2);
        assert_eq!(bucket_index(4.0), 2);
        assert_eq!(bucket_index(1024.0), 10);
        assert_eq!(bucket_index(f64::INFINITY), HISTOGRAM_BUCKETS - 1);
        // Every value falls in the bucket whose upper bound is >= it.
        for v in [0.1, 1.0, 7.0, 100.0, 1e9, 1e30] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} above bucket {i} bound");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} fits bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn counters_accumulate_per_label() {
        let sink = InMemorySink::new();
        sink.emit(&Event::counter("q", 1).with_label("concrete"));
        sink.emit(&Event::counter("q", 2).with_label("concrete"));
        sink.emit(&Event::counter("q", 5).with_label("pruning"));
        sink.emit(&Event::counter("other", 7));
        let snap = sink.snapshot();
        assert_eq!(snap.counter("q[concrete]"), 3);
        assert_eq!(snap.counter("q[pruning]"), 5);
        assert_eq!(snap.counter("q[missing]"), 0);
        assert_eq!(snap.counter_across_labels("q"), 8);
        assert_eq!(snap.counter_across_labels("other"), 7);
    }

    #[test]
    fn gauges_keep_last_value_and_histograms_aggregate() {
        let sink = InMemorySink::new();
        sink.emit(&Event::gauge("level", 10.0));
        sink.emit(&Event::gauge("level", 4.0));
        for v in [1.0, 3.0, 5.0, 7.0] {
            sink.emit(&Event::histogram("h", v));
        }
        let snap = sink.snapshot();
        assert_eq!(snap.gauge("level"), Some(4.0));
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 16.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 7.0);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.buckets[bucket_index(1.0)], 1); // 1.0
        assert_eq!(h.buckets[bucket_index(3.0)], 1); // 3.0 in (2, 4]
        assert_eq!(h.buckets[bucket_index(5.0)], 2); // 5.0 and 7.0 in (4, 8]
    }

    #[test]
    fn span_nesting_times_both_levels() {
        let sink = InMemorySink::new();
        {
            let _outer = Span::enter(&sink, "outer");
            {
                let _inner = Span::enter(&sink, "inner");
                std::hint::black_box(());
            }
            {
                let _inner = Span::enter(&sink, "inner");
                std::hint::black_box(());
            }
            let mid = sink.snapshot();
            assert_eq!(mid.span("outer").unwrap().open, 1);
            assert_eq!(mid.span("outer").unwrap().count, 0);
            assert_eq!(mid.span("inner").unwrap().count, 2);
        }
        let snap = sink.snapshot();
        let outer = snap.span("outer").unwrap();
        let inner = snap.span("inner").unwrap();
        assert_eq!(outer.open, 0);
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert!(outer.total_nanos >= inner.total_nanos);
    }

    #[test]
    fn scoped_macro_holds_guard_to_end_of_block() {
        let mem = InMemorySink::shared();
        let sink: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
        {
            scoped!(sink, "block");
            // Still open inside the block.
            assert_eq!(mem.snapshot().span("block").unwrap().open, 1);
        }
        assert_eq!(mem.snapshot().span("block").unwrap().count, 1);
    }

    #[test]
    fn null_sink_is_disabled_and_spans_skip_the_clock() {
        let sink = null_sink();
        assert!(!sink.enabled());
        let span = Span::enter(&*sink, "nothing");
        assert!(span.start.is_none());
    }

    #[test]
    fn json_lines_escape_and_shape() {
        let buffer: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

        struct Tee(Arc<Mutex<Vec<u8>>>);
        impl Write for Tee {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let sink = JsonLinesSink::new(Tee(Arc::clone(&buffer)));
        sink.emit(&Event::counter("a.b", 3).with_label("x\"y\\z"));
        sink.emit(&Event::gauge("g", f64::INFINITY));
        sink.emit(&Event::histogram("h", 2.5));
        drop(sink);

        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            r#"{"event":"a.b","type":"counter","value":3,"label":"x\"y\\z"}"#
        );
        assert_eq!(lines[1], r#"{"event":"g","type":"gauge","value":null}"#);
        assert_eq!(lines[2], r#"{"event":"h","type":"histogram","value":2.5}"#);
    }

    #[test]
    fn sink_ext_helpers_respect_enabled() {
        let mem = InMemorySink::shared();
        let shared: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
        shared.count("c", 2);
        shared.count_labeled("c", "l", 3);
        shared.gauge("g", 1.5);
        shared.observe("h", 9.0);
        let snap = mem.snapshot();
        assert_eq!(snap.counter("c"), 2);
        assert_eq!(snap.counter("c[l]"), 3);
        assert_eq!(snap.gauge("g"), Some(1.5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);

        // The null sink accepts the same calls without effect.
        let null = null_sink();
        null.count("c", 1);
        null.observe("h", 1.0);
    }
}
