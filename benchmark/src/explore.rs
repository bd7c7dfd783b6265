//! `explore`: case study 3, the composite Airbnb-style interface, issued
//! as SQL text.
//!
//! Why: queries are small and return small results, so the SQL
//! front-end, selects and pagination over dictionary strings, and the
//! buffer pool's hit path carry the most weight. The fused bin kernel's
//! share is small and the KL sketch is not used.
//!
//! Every step of `composite::simulate_session` becomes three statements
//! over the `listings` table (a page of 20 rows, a `COUNT(*)` and a price
//! histogram), each through `sql::parse_statement` → `sql::bind` →
//! `DiskBackend::execute`. The filters come from the map viewport, the
//! price slider, the guest count and the room-type checkboxes; the other
//! checkboxes (`checkin`, `superhost`, `instant_book`, `pets_allowed`,
//! `pool`) have no column in `listings` and are dropped.

use std::time::Instant;

use ids_engine::{sql, Backend, Database, DiskBackend, Predicate, Query, ResultSet, Table, Value};
use ids_simclock::rng::SimRng;
use ids_workload::composite::{simulate_session, CompositeConfig, MapState, QueryState, Widget};
use ids_workload::datasets;

use crate::instrument::{
    probe_query, result_digest, rowwise_histogram, traced, Fnv, Timed, Tracer,
};
use crate::{Layers, Pass, Workload};

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of `listings`.
    pub rows: usize,
    /// Simulated users (one session each).
    pub users: usize,
    /// Steps whose answers the oracle recomputes.
    pub oracle_steps: usize,
    /// Statements the probes time.
    pub probe_statements: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub const BENCH: Scale = Scale {
        rows: 20_000,
        users: 24,
        oracle_steps: 40,
        probe_statements: 150,
    };
}

/// Seed of the `listings` table. The data is fixed; `--seed` varies the
/// sessions and where each searched place centres the map.
const DATA_SEED: u64 = 91;

/// Rows per result page.
const PAGE_ROWS: u32 = 20;

/// Columns a page shows.
const PAGE_COLUMNS: [&str; 5] = ["id", "room_type", "price", "guests", "rating"];

/// Zoom levels the viewport is widened by. The synthetic listings are
/// spread over metro areas much wider than a real city's density, so a
/// viewport at the simulated zoom would show almost no listings.
const ZOOM_OUT: i32 = 3;

/// The explore workload, set up.
pub struct Explore {
    seed: u64,
    scale: Scale,
    table: Table,
    db: Database,
    disk: DiskBackend,
    /// Three SQL statements per step.
    steps: Vec<[String; 3]>,
    synth_ms: f64,
    /// Answer digests of the latest pass, three per step.
    last_results: Vec<u64>,
}

impl Explore {
    /// Builds and registers `listings`, warms the pool, and turns the
    /// simulated sessions into SQL.
    pub fn setup(seed: u64, scale: &Scale) -> Explore {
        let table = datasets::listings(DATA_SEED, scale.rows);
        let disk = DiskBackend::new();
        let db = disk.database();
        db.register(table.clone());
        disk.execute(&Query::count("listings", Predicate::True))
            .expect("pool warm-up");
        let t = Instant::now();
        let steps = statements(seed, scale, &table);
        let synth_ms = t.elapsed().as_secs_f64() * 1e3;
        Explore {
            seed,
            scale: *scale,
            table,
            db,
            disk,
            steps,
            synth_ms,
            last_results: Vec::new(),
        }
    }

    /// Checks one step's three answers from scratch, row at a time, and
    /// returns the page's length. The page must be the matching rows
    /// `offset..offset + 20` in table order, as a sequential scan feeding
    /// `LIMIT` gives them, so a short or missing page fails too. The
    /// count and the histogram are recomputed from their own statements.
    fn oracle(&self, step: usize, results: &[u64], problems: &mut Vec<String>) -> usize {
        let [page_sql, count_sql, histogram_sql] = &self.steps[step];
        let bind = |text: &str| {
            sql::bind(&self.db, &sql::parse_statement(text).expect("parses")).expect("binds")
        };
        let matching = |filter: &Predicate| -> Vec<usize> {
            (0..self.table.rows())
                .filter(|&r| filter.matches(&self.table, r).expect("valid filter"))
                .collect()
        };

        let Query::Select(spec) = bind(page_sql) else {
            unreachable!("page statements are selects")
        };
        let page: Vec<Vec<Value>> = matching(&spec.filter)
            .into_iter()
            .skip(spec.offset)
            .take(spec.limit.unwrap_or(usize::MAX))
            .map(|r| {
                PAGE_COLUMNS
                    .iter()
                    .map(|c| self.table.column(c).expect("listings column").value(r))
                    .collect()
            })
            .collect();
        let page_rows = page.len();
        if result_digest(&ResultSet::Rows(page)) != results[0] {
            problems.push(format!("page differs from row-at-a-time: {page_sql}"));
        }

        let Query::Count { filter, .. } = bind(count_sql) else {
            unreachable!("count statements are counts")
        };
        let count = matching(&filter).len() as u64;
        if result_digest(&ResultSet::Count(count)) != results[1] {
            problems.push(format!("count differs from row-at-a-time: {count_sql}"));
        }

        if rowwise_histogram(&self.table, &bind(histogram_sql)) != results[2] {
            problems.push(format!(
                "histogram differs from row-at-a-time: {histogram_sql}"
            ));
        }
        page_rows
    }
}

/// The SQL `WHERE` clause for a query state. The viewport is moved by
/// `offset` (lat, lng) and widened by [`ZOOM_OUT`].
fn where_clause(state: &QueryState, offset: (f64, f64)) -> String {
    let map = MapState {
        zoom: state.map.zoom - ZOOM_OUT,
        center_lat: state.map.center_lat + offset.0,
        center_lng: state.map.center_lng + offset.1,
    };
    let (sw_lat, sw_lng, ne_lat, ne_lng) = map.bounds();
    let mut terms = vec![
        format!("lat BETWEEN {sw_lat:.6} AND {ne_lat:.6}"),
        format!("lng BETWEEN {sw_lng:.6} AND {ne_lng:.6}"),
    ];
    let mut rooms = Vec::new();
    for f in &state.filters {
        match f.field.as_str() {
            "guests" => terms.push(format!("guests >= {}", f.value)),
            "price" => {
                let (lo, hi) = f.value.split_once('_').expect("price is lo_hi");
                terms.push(format!("price BETWEEN {lo} AND {hi}"));
            }
            "room_types" => rooms.push(format!("room_type = '{}'", f.value)),
            _ => {} // no column in `listings`
        }
    }
    match rooms.len() {
        0 => {}
        1 => terms.push(rooms.remove(0)),
        _ => terms.push(format!("({})", rooms.join(" OR "))),
    }
    terms.join(" AND ")
}

/// Three statements per step of every user's session. Each searched
/// place centres the viewport on a listing drawn from the seed, so the
/// simulated pans and zooms move over data rather than empty space.
pub fn statements(seed: u64, scale: &Scale, table: &Table) -> Vec<[String; 3]> {
    let lat = table.column("lat").expect("listings.lat");
    let lng = table.column("lng").expect("listings.lng");
    let mut out = Vec::new();
    for user in 0..scale.users {
        let session = simulate_session(user, seed, &CompositeConfig::default());
        let mut rng = SimRng::seed(seed).split(&format!("loadbench/explore/anchor/{user}"));
        let mut offset = (0.0, 0.0);
        for (i, step) in session.steps.iter().enumerate() {
            if i == 0 || step.widget == Widget::TextBox {
                let r = rng.uniform_usize(0, table.rows());
                offset = (
                    lat.f64_at(r).expect("float") - step.state.map.center_lat,
                    lng.f64_at(r).expect("float") - step.state.map.center_lng,
                );
            }
            let w = where_clause(&step.state, offset);
            let offset_rows = (step.state.page.max(1) - 1) * PAGE_ROWS;
            out.push([
                format!(
                    "SELECT {} FROM listings WHERE {w} LIMIT {PAGE_ROWS} OFFSET {offset_rows}",
                    PAGE_COLUMNS.join(", ")
                ),
                format!("SELECT COUNT(*) FROM listings WHERE {w}"),
                format!(
                    "SELECT HISTOGRAM(price, 10, 2000, 20), COUNT(*) FROM listings WHERE {w} \
                     GROUP BY 1 ORDER BY 1"
                ),
            ]);
        }
    }
    out
}

/// Digest of the generated inputs.
pub fn input_digest(steps: &[[String; 3]]) -> u64 {
    let mut h = Fnv::default();
    for s in steps.iter().flatten() {
        h.str(s);
    }
    h.0
}

impl Workload for Explore {
    fn describe(&self) -> String {
        format!(
            "{} listings rows ({} pages of 8 KiB, pool {} pages), {} users, \
             {} steps x 3 statements per pass",
            self.table.rows(),
            (self.table.rows() * self.table.row_disk_width()).div_ceil(8192),
            DiskBackend::DEFAULT_POOL_PAGES,
            self.scale.users,
            self.steps.len()
        )
    }

    fn input_digest(&self) -> u64 {
        input_digest(&self.steps)
    }

    fn synth_ms(&self) -> f64 {
        self.synth_ms
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let mut pass = Pass::default();
        let timed = Timed::new(&self.disk, tracer).with_pool(&self.disk);
        for (i, step) in self.steps.iter().enumerate() {
            if let Some(t) = tracer {
                t.set_event(i as u64);
            }
            let t = Instant::now();
            for text in step {
                let stmt = traced(tracer, "sql.parse", || sql::parse_statement(text))
                    .expect("generated SQL parses");
                let query =
                    traced(tracer, "sql.bind", || sql::bind(&self.db, &stmt)).expect("binds");
                timed.execute(&query).expect("valid query");
            }
            pass.event_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let calls = timed.take();
        for step in calls.chunks(3) {
            let mut h = Fnv::default();
            for c in step {
                h.word(c.answer());
            }
            pass.answers.push(h.0);
        }
        pass.layers.add_calls(&calls);
        pass.events = self.steps.len() as u64;
        self.last_results = calls.iter().map(|c| c.result).collect();
        pass
    }

    fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut rng = SimRng::seed(self.seed).split("loadbench/explore/oracle");
        let mut page_rows = 0;
        for _ in 0..self.scale.oracle_steps {
            let s = rng.uniform_usize(0, self.steps.len());
            page_rows += self.oracle(s, &self.last_results[3 * s..3 * s + 3], &mut problems);
        }
        if page_rows == 0 {
            problems.push("every sampled page was empty, so no page row was checked".into());
        }
        problems
    }

    fn probe(&mut self, layers: &mut Layers) {
        let step = (3 * self.steps.len() / self.scale.probe_statements).max(1);
        for text in self.steps.iter().flatten().step_by(step) {
            let stmt = sql::parse_statement(text).expect("parses");
            probe_query(
                layers,
                &self.disk,
                &sql::bind(&self.db, &stmt).expect("binds"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale {
        rows: 2_000,
        users: 2,
        oracle_steps: 10,
        probe_statements: 10,
    };

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let digest = |seed| {
            let table = datasets::listings(DATA_SEED, TINY.rows);
            input_digest(&statements(seed, &TINY, &table))
        };
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
    }

    #[test]
    fn passes_are_checked_and_repeat() {
        let _serial = crate::PASS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut w = Explore::setup(5, &TINY);
        let first = w.pass(None);
        let problems = w.check();
        assert!(problems.is_empty(), "{problems:?}");
        assert!(first.events > 10);
        let tracer = Tracer::default();
        let again = w.pass(Some(&tracer));
        assert_eq!(first.answers, again.answers);
        let spans = tracer.spans();
        assert!(spans.iter().any(|s| s.name == "sql.parse"));
        assert!(spans.iter().any(|s| s.name == "backend"));
    }
}
