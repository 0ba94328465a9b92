//! Outside-in layer tracing for the traced mode: spans recorded around the
//! calls the benchmark makes into each layer's public API, plus wrappers
//! that time the layers the service calls on its own (crowd members, the
//! WAL, the wire transport). Spans stay in memory until the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use oassis::crowd::{CrowdMember, MemberId};
use oassis::net::{NetError, Transport};
use oassis::store_durable::{DurableError, Persistence, WalRecord};
use oassis::vocab::{ElementId, Fact, FactSet};

/// One finished span.
#[derive(Clone, Copy)]
pub struct SpanRec {
    pub id: u64,
    /// The enclosing span on the same thread (0 = none).
    pub parent: u64,
    pub thread: u64,
    pub name: &'static str,
    /// The session the call served, where it has one.
    pub session: Option<u64>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_NO: Cell<u64> = const { Cell::new(0) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_no() -> u64 {
    THREAD_NO.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// In-memory span and counter recorder shared by every traced thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        })
    }

    /// Run `f` inside a span named `name`, child of the calling thread's
    /// innermost open span.
    pub fn span<R>(&self, name: &'static str, session: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        STACK.with(|s| s.borrow_mut().pop());
        let rec = SpanRec {
            id,
            parent,
            thread: thread_no(),
            name,
            session,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
        };
        self.spans.lock().expect("span buffer poisoned").push(rec);
        out
    }

    pub fn add(&self, counter: &'static str, n: u64) {
        *self
            .counters
            .lock()
            .expect("counter map poisoned")
            .entry(counter)
            .or_default() += n;
    }

    pub fn counter(&self, counter: &str) -> u64 {
        self.counters
            .lock()
            .expect("counter map poisoned")
            .get(counter)
            .copied()
            .unwrap_or(0)
    }

    /// `at` on the span clock.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The calling thread's number in span records.
    pub fn this_thread(&self) -> u64 {
        thread_no()
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let session = s.session.map_or("null".to_owned(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"session\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.id, s.parent, s.thread, s.name, session, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span list.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Aggregate spans by name, computing self time from parent links.
pub fn totals(spans: &[SpanRec]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns;
        t.self_ns += s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Nanoseconds of `[from, to]` that `thread`'s outermost spans cover.
pub fn covered_ns(spans: &[SpanRec], thread: u64, from: u64, to: u64) -> f64 {
    spans
        .iter()
        .filter(|s| s.thread == thread && s.parent == 0)
        .map(|s| {
            (s.start_ns + s.dur_ns)
                .min(to)
                .saturating_sub(s.start_ns.max(from))
        })
        .sum::<u64>() as f64
}

/// A crowd member whose concrete answers are timed (`crowd.ask`).
pub struct TracedMember {
    pub inner: Box<dyn CrowdMember>,
    pub tracer: Arc<Tracer>,
}

impl CrowdMember for TracedMember {
    fn id(&self) -> MemberId {
        self.inner.id()
    }

    fn ask_concrete(&mut self, a: &FactSet) -> f64 {
        let inner = &mut self.inner;
        self.tracer
            .span("crowd.ask", None, || inner.ask_concrete(a))
    }

    fn ask_specialization(
        &mut self,
        base: &FactSet,
        candidates: &[FactSet],
    ) -> Option<(usize, f64)> {
        self.inner.ask_specialization(base, candidates)
    }

    fn irrelevant_elements(&mut self, a: &FactSet) -> Vec<ElementId> {
        self.inner.irrelevant_elements(a)
    }

    fn willing(&self) -> bool {
        self.inner.willing()
    }

    fn can_answer(&self, a: &FactSet) -> bool {
        self.inner.can_answer(a)
    }

    fn suggest_more(&mut self, base: &FactSet) -> Vec<Fact> {
        self.inner.suggest_more(base)
    }

    fn answer_delay(&mut self) -> Option<std::time::Duration> {
        self.inner.answer_delay()
    }
}

/// Wrap every member for tracing.
pub fn traced_members(
    members: Vec<Box<dyn CrowdMember>>,
    tracer: &Arc<Tracer>,
) -> Vec<Box<dyn CrowdMember>> {
    members
        .into_iter()
        .map(|inner| {
            Box::new(TracedMember {
                inner,
                tracer: Arc::clone(tracer),
            }) as Box<dyn CrowdMember>
        })
        .collect()
}

/// A WAL whose appends, snapshots and replays are timed, and whose bytes
/// (as `WalRecord::encode` writes them) are counted.
pub struct TracedPersistence<P: Persistence> {
    pub inner: P,
    pub tracer: Arc<Tracer>,
}

impl<P: Persistence> Persistence for TracedPersistence<P> {
    fn append(&mut self, record: &WalRecord) -> Result<u64, DurableError> {
        let inner = &mut self.inner;
        let seq = self
            .tracer
            .span("wal.append", None, || inner.append(record))?;
        self.tracer.add("wal.appends", 1);
        self.tracer
            .add("wal.bytes", record.encode(seq).len() as u64 + 1);
        Ok(seq)
    }

    fn replay(&mut self) -> Result<Vec<WalRecord>, DurableError> {
        let inner = &mut self.inner;
        let records = self.tracer.span("wal.replay", None, || inner.replay())?;
        self.tracer.add("wal.replay_records", records.len() as u64);
        Ok(records)
    }

    fn log_len(&self) -> u64 {
        self.inner.log_len()
    }

    fn wants_snapshot(&self) -> bool {
        self.inner.wants_snapshot()
    }

    fn snapshot(&mut self, compacted: &[WalRecord]) -> Result<(), DurableError> {
        let inner = &mut self.inner;
        self.tracer
            .span("wal.snapshot", None, || inner.snapshot(compacted))?;
        self.tracer.add("wal.snapshots", 1);
        let bytes: usize = compacted
            .iter()
            .enumerate()
            .map(|(i, r)| r.encode(i as u64).len() + 1)
            .sum();
        self.tracer.add("wal.bytes", bytes as u64);
        Ok(())
    }
}

/// A wire transport whose sends and receives are timed and counted.
pub struct TracedTransport<T: Transport> {
    pub inner: T,
    pub tracer: Arc<Tracer>,
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn send(&mut self, line: &str) -> Result<(), NetError> {
        let inner = &mut self.inner;
        self.tracer.span("net.send", None, || inner.send(line))?;
        self.tracer.add("net.bytes", line.len() as u64 + 1);
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<String>, NetError> {
        let inner = &mut self.inner;
        let line = self.tracer.span("net.recv", None, || inner.try_recv())?;
        if let Some(l) = &line {
            self.tracer.add("net.bytes", l.len() as u64 + 1);
        }
        Ok(line)
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        self.inner.reconnect()
    }

    fn close(&mut self) {
        self.inner.close()
    }
}
