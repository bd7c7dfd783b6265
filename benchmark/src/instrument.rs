//! The benchmark's own instruments: a span tracer, a timing `Backend`
//! wrapper, answer digests and order statistics.
//!
//! Everything here lives outside the engine. Spans are recorded around
//! the calls the benchmark makes into each layer's public functions, so
//! the program under test is never modified to be measured.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use ids_engine::{
    exec, planner, Backend, Database, DiskBackend, EngineResult, Histogram, Query, QueryOutcome,
    ResultSet, Table, Value,
};

/// One recorded span: a named call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name (the row of the self-time table).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// The event (slider move, interface step, offered query) the span
    /// served.
    pub event: u64,
}

#[derive(Default)]
struct TraceState {
    spans: Vec<Span>,
    open: Vec<usize>,
    event: u64,
}

/// An in-memory span recorder. Spans nest by call order on one thread;
/// they are kept until the run ends and written out then.
pub struct Tracer {
    origin: Instant,
    state: Mutex<TraceState>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(TraceState::default()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, TraceState> {
        self.state.lock().expect("tracer lock poisoned by a panic")
    }

    /// Tags the spans opened from now on with `event`.
    pub fn set_event(&self, event: u64) {
        self.state().event = event;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut st = self.state();
            let span = Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: st.open.last().copied(),
                event: st.event,
            };
            st.spans.push(span);
            let index = st.spans.len() - 1;
            st.open.push(index);
            index
        };
        let out = f();
        let end = self.now_ns();
        let mut st = self.state();
        st.open.pop();
        st.spans[index].end_ns = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Runs `f` in a span when tracing, and bare otherwise.
pub fn traced<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Self time per span name: a span's duration minus the time its direct
/// children cover. The root span's self time is reported as
/// `unattributed`, so the rows sum exactly to the root's duration.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let name = if s.parent.is_none() {
            "unattributed"
        } else {
            s.name
        };
        *out.entry(name).or_insert(0) += (s.end_ns - s.start_ns) - child;
    }
    out
}

/// Writes spans as TSV (`name start_ns end_ns parent event`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tstart_ns\tend_ns\tparent\tevent")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, parent, s.event
        )?;
    }
    w.flush()
}

/// One backend call seen by [`Timed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Address of the query argument: calls for one offered query (its
    /// retries) share it.
    pub query: usize,
    /// Wall time of the inner call, nanoseconds.
    pub wall_ns: u64,
    /// Digest of the answer.
    pub result: u64,
    /// Virtual cost the backend charged, microseconds.
    pub cost_us: u64,
    /// Rows the scans visited.
    pub rows_scanned: u64,
    /// Zone-map blocks skipped.
    pub blocks_pruned: u64,
    /// Zone-map blocks read.
    pub blocks_scanned: u64,
    /// Buffer-pool page hits.
    pub pages_hot: u64,
    /// Buffer-pool page misses.
    pub pages_cold: u64,
    /// Buffer-pool evictions the call caused.
    pub evictions: u64,
}

/// A transparent timing wrapper: forwards every call to `inner`
/// unchanged, and logs its wall time and a digest of its answer.
pub struct Timed<'a> {
    inner: &'a dyn Backend,
    tracer: Option<&'a Tracer>,
    pool: Option<&'a DiskBackend>,
    events: Option<&'a HashMap<usize, u64>>,
    calls: Mutex<Vec<Call>>,
}

impl Call {
    /// Digest of the answer together with its virtual cost.
    pub fn answer(&self) -> u64 {
        Fnv(self.result).word(self.cost_us).0
    }
}

impl<'a> Timed<'a> {
    /// Wraps `inner`; with a tracer, each call is also a `backend` span.
    pub fn new(inner: &'a dyn Backend, tracer: Option<&'a Tracer>) -> Timed<'a> {
        Timed {
            inner,
            tracer,
            pool: None,
            events: None,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Also counts the evictions each call causes in `disk`'s pool.
    pub fn with_pool(mut self, disk: &'a DiskBackend) -> Timed<'a> {
        self.pool = Some(disk);
        self
    }

    /// Tags each call's spans with the event `events` maps its query's
    /// address to (calls made inside a library loop, such as a replay,
    /// cannot be tagged by the caller).
    pub fn with_events(mut self, events: &'a HashMap<usize, u64>) -> Timed<'a> {
        self.events = Some(events);
        self
    }

    /// Takes the calls logged so far.
    pub fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("call log poisoned"))
    }
}

impl Backend for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn database(&self) -> Database {
        self.inner.database()
    }

    fn execute(&self, query: &Query) -> EngineResult<QueryOutcome> {
        let addr = query as *const Query as usize;
        if let Some(t) = self.tracer {
            if let Some(e) = self.events.and_then(|m| m.get(&addr)) {
                t.set_event(*e);
            }
        }
        let evicted_before = self.pool.map_or(0, |d| d.pool_stats().evictions);
        let start = Instant::now();
        let out = traced(self.tracer, "backend", || self.inner.execute(query));
        let wall_ns = start.elapsed().as_nanos() as u64;
        let evictions = self.pool.map_or(0, |d| {
            d.pool_stats().evictions.saturating_sub(evicted_before)
        });
        if let Ok(o) = &out {
            let fp = &o.footprint;
            self.calls.lock().expect("call log poisoned").push(Call {
                query: addr,
                wall_ns,
                result: result_digest(&o.result),
                cost_us: o.cost.as_micros(),
                rows_scanned: fp.rows_scanned,
                blocks_pruned: fp.blocks_pruned,
                blocks_scanned: fp.blocks_scanned,
                pages_hot: fp.pages_hot,
                pages_cold: fp.pages_cold,
                evictions,
            });
        }
        out
    }
}

/// Interleaved repetitions per side of a paired probe.
const PROBE_REPS: usize = 3;

/// Paired probe of one query. `backend.self_us` is the backend's execute
/// minus `exec::run_query` on the same query: the pricing and, on disk,
/// the buffer-pool work. `planner.plan_us` is `planner::plan` on it.
/// Each side takes the fastest of its interleaved repetitions, so a
/// stray pause on one side does not land in the difference.
pub fn probe_query(layers: &mut crate::Layers, backend: &dyn Backend, query: &Query) {
    let db = backend.database();
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6
    };
    let (mut run, mut full, mut plan) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..PROBE_REPS {
        run = run.min(time(&mut || {
            std::hint::black_box(exec::run_query(&db, query).expect("valid query"));
        }));
        full = full.min(time(&mut || {
            std::hint::black_box(backend.execute(query).expect("valid query"));
        }));
        plan = plan.min(time(&mut || {
            std::hint::black_box(planner::plan(&db, query).expect("valid query"));
        }));
    }
    layers.sample("backend.self_us", full - run);
    layers.sample("planner.plan_us", plan);
}

/// The row-at-a-time oracle of a histogram query over `table`:
/// `Predicate::matches` + `BinSpec::bin_of`, as the `perf` baseline
/// computes it. Returns the answer's digest.
pub fn rowwise_histogram(table: &Table, q: &Query) -> u64 {
    let Query::Histogram { bins, filter, .. } = q else {
        unreachable!("only histograms are binned")
    };
    let col = table.column(&bins.column).expect("binned column exists");
    let mut counts = vec![0u64; bins.bucket_count()];
    for row in 0..table.rows() {
        if filter.matches(table, row).expect("valid filter") {
            if let Some(b) = col.f64_at(row).and_then(|x| bins.bin_of(x)) {
                counts[b] += 1;
            }
        }
    }
    result_digest(&ResultSet::Histogram(Histogram::from_counts(counts)))
}

/// FNV-1a, folded one 64-bit word at a time.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds in one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds in a string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

/// Digest of an answer.
pub fn result_digest(r: &ResultSet) -> u64 {
    let mut h = Fnv::default();
    match r {
        ResultSet::Count(c) => {
            h.word(1).word(*c);
        }
        ResultSet::Histogram(hist) => {
            h.word(2);
            for &c in hist.counts() {
                h.word(c);
            }
        }
        ResultSet::Rows(rows) => {
            h.word(3).word(rows.len() as u64);
            for row in rows {
                for v in row {
                    match v {
                        Value::Int(i) => h.word(*i as u64),
                        Value::Float(x) => h.word(x.to_bits()),
                        Value::Str(s) => h.str(s),
                    };
                }
            }
        }
    }
    h.0
}

/// The `q`-quantile (nearest rank) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_engine::{
        BinSpec, ColumnBuilder, DiskBackend, MemBackend, Predicate, Query, TableBuilder,
    };

    fn db() -> Database {
        let db = Database::new();
        db.register(
            TableBuilder::new("t")
                .column("x", ColumnBuilder::float((0..5_000).map(|i| i as f64)))
                .column("k", ColumnBuilder::int((0..5_000).map(|i| i % 7)))
                .build()
                .unwrap(),
        );
        db
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::count("t", Predicate::between("x", 100.0, 900.0)),
            Query::histogram(
                "t",
                BinSpec::new("x", 0.0, 5_000.0, 10),
                Predicate::between("k", 1.0, 3.0),
            ),
        ]
    }

    #[test]
    fn timing_wrapper_is_transparent() {
        let db = db();
        let mem = MemBackend::over(db.clone());
        let disk_a = DiskBackend::over(db.clone());
        let disk_b = DiskBackend::over(db);
        let tracer = Tracer::default();
        for (plain, inner, tr) in [
            (&mem as &dyn Backend, &mem as &dyn Backend, None),
            (&mem, &mem, Some(&tracer)),
            (&disk_a, &disk_b, Some(&tracer)),
        ] {
            let timed = Timed::new(inner, tr).with_pool(&disk_b);
            let mut plain_answers = Vec::new();
            for q in &queries() {
                let a = plain.execute(q).unwrap();
                let b = timed.execute(q).unwrap();
                assert_eq!(a.result, b.result);
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.footprint, b.footprint);
                plain_answers.push((result_digest(&a.result), a.cost.as_micros()));
            }
            let logged: Vec<(u64, u64)> =
                timed.take().iter().map(|c| (c.result, c.cost_us)).collect();
            assert_eq!(logged, plain_answers);
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let t = Tracer::default();
        t.span("root", || {
            t.span("a", || t.span("b", || std::hint::black_box(3)));
            t.span("c", || ());
        });
        let spans = t.spans();
        let root = spans[0].end_ns - spans[0].start_ns;
        let table = self_times(&spans);
        assert_eq!(table.values().sum::<u64>(), root);
        assert_eq!(table.len(), 4, "{table:?}");
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[]), 0.0);
    }
}
