//! Cost-based physical planner over the vectorized kernels.
//!
//! [`crate::exec`] hard-codes one physical strategy per logical
//! [`Query`] shape. This module *chooses* instead, using the statistics
//! the engine already maintains — [`TableStats`] min/max/distinct for
//! selectivity estimates, zone-map block geometry for block-count
//! estimates — and the virtual cost model's invariants as the contract:
//!
//! - **Predicate reordering**: conjuncts of an `AND` filter are
//!   planned most-selective-first. Bitmask intersection commutes, so
//!   order changes neither results nor footprints; the count, scan and
//!   serial fused histogram plans therefore run [`crate::exec`]'s own
//!   operators, and only the unfused and parallel bin paths below
//!   evaluate the planned order.
//! - **Fused vs. unfused histograms**: when the filter is estimated to
//!   keep at least one zone block's worth of rows, the block-wise fused
//!   filter+bin kernel wins; for needle-selective filters the planner
//!   bins the few selected rows row-at-a-time off the selection mask.
//! - **Parallel vs. serial histograms**: tables larger than one
//!   parallel chunk ([`PAR_CHUNK_ROWS`]) are eligible for the chunked
//!   multi-threaded bin path. Eligibility depends only on table shape,
//!   never on the thread count, so plan text is thread-invariant.
//! - **Join build-side selection**: the hash table is built over
//!   whichever side is smaller — the paginated left page (the
//!   [`crate::exec`] default) or the whole right table when the page is
//!   larger than it.
//!
//! Two hard guarantees, enforced by the planner-equivalence simtest
//! oracle and the planner differential tests:
//!
//! 1. **Result identity**: planned execution is byte-identical to
//!    [`crate::exec::run_query`] (and therefore to the row-at-a-time
//!    reference interpreter) for every query, including errors.
//! 2. **Footprint identity**: every [`QueryFootprint`] counter —
//!    priced *and* unpriced — matches the unplanned path, so virtual
//!    costs and the paper's latency regimes are unaffected.
//!
//! Plans are deterministic and explainable: [`Plan::explain`] renders a
//! stable text tree (chosen kernel, predicate order, estimated block
//! counts) that is byte-identical across runs and thread counts, and
//! [`Plan::explain_analyzed`] appends the actual counters after a run.

use std::collections::HashMap;

use crossbeam::channel;

use crate::backend::Database;
use crate::column::{ZoneMap, ZONE_BLOCK_ROWS};
use crate::cost::QueryFootprint;
use crate::error::{EngineError, EngineResult};
use crate::exec;
use crate::kernels::{self, KernelOptions, KernelStats, SelectionVector};
use crate::predicate::{CmpOp, Predicate};
use crate::query::{BinSpec, Query};
use crate::result::{Histogram, ResultSet};
use crate::stats::TableStats;
use crate::table::Table;

/// Rows per parallel histogram work unit. A fixed multiple of the
/// zone-map block size, *independent of the thread count*: the chunk
/// boundaries (and therefore each partial histogram) are the same
/// whether 1 or 8 workers drain the queue, so the merged result is
/// byte-identical at any parallelism.
pub const PAR_CHUNK_ROWS: usize = 64 * ZONE_BLOCK_ROWS;

/// Which side of a join feeds the hash-table build phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSide {
    /// Build over the paginated left page, probe the right table
    /// (the [`crate::exec::run_join`] strategy).
    Left,
    /// Build over the whole right table, probe the left page — chosen
    /// when the page is larger than the right table.
    Right,
}

/// Physical strategy for the histogram bin phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramPath {
    /// Block-wise fused filter+bin kernel.
    Fused,
    /// Row-at-a-time binning off the selection mask — cheaper when the
    /// filter keeps fewer rows than one zone block.
    Unfused,
}

/// A filter predicate with a planned evaluation order.
#[derive(Debug, Clone)]
pub struct PlannedPredicate {
    /// The predicate in planned (most-selective-first) conjunct order.
    pub predicate: Predicate,
    /// `(rendered conjunct, estimated selectivity)` in planned order.
    pub conjuncts: Vec<(String, f64)>,
    /// Estimated overall selectivity in `[0, 1]`.
    pub selectivity: f64,
    /// Whether planning changed the source conjunct order.
    pub reordered: bool,
}

/// The physical operator the planner chose for one query shape.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Fused filter+count: selection popcount.
    Count {
        /// Planned filter.
        pred: PlannedPredicate,
    },
    /// Filtered, projected, paginated scan.
    Scan {
        /// Planned filter.
        pred: PlannedPredicate,
        /// `TRUE` filter: the scan stops after `offset + limit` rows.
        early_stop: bool,
    },
    /// Filtered equi-width histogram.
    Histogram {
        /// Planned filter.
        pred: PlannedPredicate,
        /// Fused or unfused bin phase.
        path: HistogramPath,
        /// Eligible for the chunked parallel bin path (decided from
        /// table shape only, so plans are thread-invariant).
        parallel: bool,
        /// Estimated rows surviving the filter.
        est_rows: u64,
    },
    /// Paginated hash join.
    Join {
        /// Which side builds the hash table.
        build: BuildSide,
        /// Left-page rows (the canonical `build_rows` footprint counter,
        /// whatever side physically builds).
        page_rows: u64,
        /// Right-table rows (the canonical `probe_rows` counter).
        right_rows: u64,
    },
}

/// Result of executing a [`Plan`].
#[derive(Debug, Clone)]
pub struct PlannedExecution {
    /// The query answer, byte-identical to the unplanned path.
    pub result: ResultSet,
    /// Work counters, byte-identical to the unplanned path.
    pub footprint: QueryFootprint,
}

/// A deterministic physical plan for one logical query.
#[derive(Debug, Clone)]
pub struct Plan {
    query: Query,
    node: PlanNode,
    table_rows: u64,
    est_blocks_total: u64,
    est_blocks_scanned: u64,
}

/// Plans `query` against the catalog and statistics in `db`.
///
/// Fails with the same error [`crate::exec::run_query`] would raise for
/// an unknown table; all other validation errors surface at
/// [`Plan::execute`], in the executor's order, so error behavior is
/// byte-compatible with the unplanned path.
pub fn plan(db: &Database, query: &Query) -> EngineResult<Plan> {
    match query {
        Query::Count { table, filter } => {
            let t = db.table(table)?;
            let pred = plan_predicate(filter, t.stats());
            Ok(Plan::new(
                query.clone(),
                t.rows(),
                pred.selectivity,
                PlanNode::Count { pred },
            ))
        }
        Query::Histogram { table, filter, .. } => {
            let t = db.table(table)?;
            let pred = plan_predicate(filter, t.stats());
            let est_rows = est_rows(t.rows(), pred.selectivity);
            let path = if est_rows >= ZONE_BLOCK_ROWS as u64 {
                HistogramPath::Fused
            } else {
                HistogramPath::Unfused
            };
            let parallel = path == HistogramPath::Fused && t.rows() > PAR_CHUNK_ROWS;
            let sel = pred.selectivity;
            Ok(Plan::new(
                query.clone(),
                t.rows(),
                sel,
                PlanNode::Histogram {
                    pred,
                    path,
                    parallel,
                    est_rows,
                },
            ))
        }
        Query::Select(spec) => {
            let t = db.table(&spec.table)?;
            let pred = plan_predicate(&spec.filter, t.stats());
            let early_stop = matches!(spec.filter, Predicate::True);
            let sel = pred.selectivity;
            Ok(Plan::new(
                query.clone(),
                t.rows(),
                sel,
                PlanNode::Scan { pred, early_stop },
            ))
        }
        Query::Join(spec) => {
            let left = db.table(&spec.left)?;
            let right = db.table(&spec.right)?;
            let end = match spec.limit {
                Some(l) => (spec.offset + l).min(left.rows()),
                None => left.rows(),
            };
            let page_rows = (end - spec.offset.min(end)) as u64;
            let right_rows = right.rows() as u64;
            let build = if right_rows < page_rows {
                BuildSide::Right
            } else {
                BuildSide::Left
            };
            Ok(Plan::new(
                query.clone(),
                right.rows(),
                1.0,
                PlanNode::Join {
                    build,
                    page_rows,
                    right_rows,
                },
            ))
        }
    }
}

fn est_rows(rows: usize, selectivity: f64) -> u64 {
    (rows as f64 * selectivity).round() as u64
}

impl Plan {
    fn new(query: Query, rows: usize, selectivity: f64, node: PlanNode) -> Plan {
        let total = rows.div_ceil(ZONE_BLOCK_ROWS) as u64;
        let scanned = (total as f64 * selectivity).ceil().min(total as f64) as u64;
        Plan {
            query,
            node,
            table_rows: rows as u64,
            est_blocks_total: total,
            est_blocks_scanned: scanned,
        }
    }

    /// The logical query this plan executes.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The chosen physical operator.
    pub fn node(&self) -> &PlanNode {
        &self.node
    }

    /// Executes the plan single-threaded.
    pub fn execute(&self, db: &Database) -> EngineResult<PlannedExecution> {
        self.execute_with_threads(db, 1)
    }

    /// Executes the plan, using up to `threads` worker threads when the
    /// plan is parallel-eligible. Results and footprints are identical
    /// at every thread count.
    pub fn execute_with_threads(
        &self,
        db: &Database,
        threads: usize,
    ) -> EngineResult<PlannedExecution> {
        match (&self.query, &self.node) {
            (
                Query::Histogram {
                    table,
                    bins,
                    filter,
                },
                PlanNode::Histogram {
                    pred,
                    path,
                    parallel,
                    ..
                },
            ) if *path == HistogramPath::Unfused || (*parallel && threads > 1) => {
                let t = db.table(table)?;
                run_planned_histogram(&t, bins, filter, pred, *path, threads)
            }
            (Query::Join(spec), PlanNode::Join { build, .. }) if *build == BuildSide::Right => {
                let left = db.table(&spec.left)?;
                let right = db.table(&spec.right)?;
                run_join_build_right(&left, &right, spec)
            }
            // Count, scan, the serial fused histogram and the build-left
            // join are exactly `exec`'s operators: conjunct order changes
            // neither the selection mask nor any counter, so the planned
            // order is recorded in EXPLAIN and the source filter runs.
            _ => {
                let (result, footprint) = exec::run_query(db, &self.query)?;
                Ok(PlannedExecution { result, footprint })
            }
        }
    }

    /// Renders the plan as a stable text tree: chosen kernel, predicate
    /// order with per-conjunct selectivity estimates, and estimated
    /// block counts. Byte-identical across runs and thread counts.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        match &self.node {
            PlanNode::Count { pred } => {
                out.push_str(&format!(
                    "Count(table={} rows={})\n",
                    self.query.table(),
                    self.table_rows
                ));
                explain_predicate(&mut out, pred, self.table_rows);
                out.push_str("  kernel: filter+count (selection popcount)\n");
            }
            PlanNode::Histogram {
                pred,
                path,
                parallel,
                est_rows,
            } => {
                let Query::Histogram { bins, .. } = &self.query else {
                    unreachable!("histogram node carries a histogram query")
                };
                out.push_str(&format!(
                    "Histogram(table={} rows={})\n",
                    self.query.table(),
                    self.table_rows
                ));
                out.push_str(&format!(
                    "  bins: {} over [{}, {}] n={}\n",
                    bins.column, bins.min, bins.max, bins.bins
                ));
                explain_predicate(&mut out, pred, self.table_rows);
                match path {
                    HistogramPath::Fused => out.push_str(&format!(
                        "  kernel: fused filter+bin (est_rows={} >= block {})\n",
                        est_rows, ZONE_BLOCK_ROWS
                    )),
                    HistogramPath::Unfused => out.push_str(&format!(
                        "  kernel: unfused row-at-a-time bin (est_rows={} < block {})\n",
                        est_rows, ZONE_BLOCK_ROWS
                    )),
                }
                if *parallel {
                    out.push_str(&format!(
                        "  threads: parallel-eligible chunks={} (rows > {})\n",
                        self.table_rows.div_ceil(PAR_CHUNK_ROWS as u64),
                        PAR_CHUNK_ROWS
                    ));
                } else {
                    out.push_str(&format!("  threads: serial (rows <= {})\n", PAR_CHUNK_ROWS));
                }
            }
            PlanNode::Scan { pred, early_stop } => {
                let Query::Select(spec) = &self.query else {
                    unreachable!("scan node carries a select query")
                };
                out.push_str(&format!(
                    "Scan(table={} rows={} limit={} offset={})\n",
                    spec.table,
                    self.table_rows,
                    spec.limit
                        .map_or_else(|| "ALL".to_string(), |l| l.to_string()),
                    spec.offset
                ));
                explain_predicate(&mut out, pred, self.table_rows);
                if *early_stop {
                    out.push_str("  kernel: early-stop scan (TRUE filter ends at offset+limit)\n");
                } else {
                    out.push_str("  kernel: filtered scan (selection mask, page materialized)\n");
                }
            }
            PlanNode::Join {
                build,
                page_rows,
                right_rows,
            } => {
                let Query::Join(spec) = &self.query else {
                    unreachable!("join node carries a join query")
                };
                out.push_str(&format!(
                    "Join(left={} right={} on {} = {})\n",
                    spec.left, spec.right, spec.left_key, spec.right_key
                ));
                out.push_str(&format!(
                    "  page: left rows={} right rows={}\n",
                    page_rows, right_rows
                ));
                match build {
                    BuildSide::Left => out.push_str(&format!(
                        "  build side: left page (page {} <= right {})\n",
                        page_rows, right_rows
                    )),
                    BuildSide::Right => out.push_str(&format!(
                        "  build side: right table (right {} < page {})\n",
                        right_rows, page_rows
                    )),
                }
                out.push_str("  kernel: hash build + zone-pruned probe\n");
            }
        }
        out.push_str(&format!(
            "  est blocks: total={} scan={} prune={}\n",
            self.est_blocks_total,
            self.est_blocks_scanned,
            self.est_blocks_total - self.est_blocks_scanned
        ));
        out
    }

    /// [`Plan::explain`] plus the actual counters from a finished run —
    /// the "estimated vs. actual" view.
    pub fn explain_analyzed(&self, footprint: &QueryFootprint) -> String {
        let mut out = self.explain();
        out.push_str(&format!(
            "  actual: rows_matched={} blocks_scanned={} blocks_pruned={}\n",
            footprint.rows_matched, footprint.blocks_scanned, footprint.blocks_pruned
        ));
        out
    }
}

fn explain_predicate(out: &mut String, pred: &PlannedPredicate, rows: u64) {
    if pred.conjuncts.is_empty() {
        out.push_str("  filter: TRUE (no conditions)\n");
        return;
    }
    out.push_str(&format!(
        "  filter: est_sel={:.4} est_rows={} conjuncts={} reordered={}\n",
        pred.selectivity,
        est_rows(rows as usize, pred.selectivity),
        pred.conjuncts.len(),
        if pred.reordered { "yes" } else { "no" }
    ));
    for (i, (text, sel)) in pred.conjuncts.iter().enumerate() {
        out.push_str(&format!("    [{}] est_sel={:.4}  {}\n", i + 1, sel, text));
    }
}

// ---------------------------------------------------------------------------
// Selectivity estimation and predicate planning
// ---------------------------------------------------------------------------

/// Estimated fraction of rows `pred` keeps, from table statistics under
/// a uniform-distribution assumption. Always in `[0, 1]`; unknown
/// columns and shapes fall back to `1.0` (the conservative choice).
fn estimate_selectivity(pred: &Predicate, stats: &TableStats) -> f64 {
    match pred {
        Predicate::True => 1.0,
        Predicate::Between { column, lo, hi } => stats.range_selectivity(column, *lo, *hi),
        Predicate::Cmp { column, op, value } => {
            let eq_sel = stats.column(column).map_or(1.0, |c| {
                if c.distinct > 0 {
                    1.0 / c.distinct as f64
                } else {
                    1.0
                }
            });
            match (op, value.as_f64()) {
                (CmpOp::Eq, _) => eq_sel,
                (CmpOp::Ne, _) => 1.0 - eq_sel,
                (CmpOp::Lt | CmpOp::Le, Some(v)) => {
                    stats.range_selectivity(column, f64::NEG_INFINITY, v)
                }
                (CmpOp::Gt | CmpOp::Ge, Some(v)) => {
                    stats.range_selectivity(column, v, f64::INFINITY)
                }
                _ => 1.0,
            }
        }
        Predicate::And(ps) => ps
            .iter()
            .map(|p| estimate_selectivity(p, stats))
            .product::<f64>()
            .clamp(0.0, 1.0),
        Predicate::Or(ps) => ps
            .iter()
            .map(|p| estimate_selectivity(p, stats))
            .sum::<f64>()
            .clamp(0.0, 1.0),
        Predicate::Not(p) => (1.0 - estimate_selectivity(p, stats)).clamp(0.0, 1.0),
    }
}

/// Orders the conjuncts of an `AND` most-selective-first. Stable: ties
/// keep source order, so plans are deterministic. Reordering is free —
/// conjunct kernels are evaluated independently and intersected, so
/// both the selection mask and every footprint counter are
/// order-invariant.
fn plan_predicate(filter: &Predicate, stats: &TableStats) -> PlannedPredicate {
    match filter {
        Predicate::True => PlannedPredicate {
            predicate: Predicate::True,
            conjuncts: Vec::new(),
            selectivity: 1.0,
            reordered: false,
        },
        Predicate::And(ps) => {
            let mut indexed: Vec<(usize, f64)> = ps
                .iter()
                .enumerate()
                .map(|(i, p)| (i, estimate_selectivity(p, stats)))
                .collect();
            indexed.sort_by(|a, b| a.1.total_cmp(&b.1));
            let reordered = indexed
                .iter()
                .enumerate()
                .any(|(pos, (src, _))| pos != *src);
            let conjuncts = indexed
                .iter()
                .map(|&(src, sel)| (ps[src].to_string(), sel))
                .collect();
            let selectivity = estimate_selectivity(filter, stats);
            PlannedPredicate {
                predicate: Predicate::And(
                    indexed.iter().map(|&(src, _)| ps[src].clone()).collect(),
                ),
                conjuncts,
                selectivity,
                reordered,
            }
        }
        other => {
            let selectivity = estimate_selectivity(other, stats);
            PlannedPredicate {
                predicate: other.clone(),
                conjuncts: vec![(other.to_string(), selectivity)],
                selectivity,
                reordered: false,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Planned physical execution
// ---------------------------------------------------------------------------

/// The histogram paths `exec` has no operator for: the chunked parallel
/// bin phase and row-at-a-time binning off the selection mask.
fn run_planned_histogram(
    table: &Table,
    bins: &BinSpec,
    original: &Predicate,
    pred: &PlannedPredicate,
    path: HistogramPath,
    threads: usize,
) -> EngineResult<PlannedExecution> {
    // Validate the source filter in exec's order, for error identity.
    let bin_idx = exec::histogram_bin_column(table, bins, original)?;
    let col = table.column_at(bin_idx);

    let opts = KernelOptions::default();
    let mut stats = KernelStats::default();
    let selected = kernels::select_vector_with(table, &pred.predicate, &opts, &mut stats)?;
    let zone = table.zone_map_at(bin_idx);

    let hist = match path {
        HistogramPath::Fused => {
            // Chunked parallel bin phase; bin-phase block counters come
            // from the serial accounting pass below so the footprint is
            // identical at every thread count.
            let h = parallel_bin_phase(col, zone, &selected, bins, table.rows(), threads)?;
            bin_phase_stats(table.rows(), zone, &selected, bins, &mut stats);
            h
        }
        HistogramPath::Unfused => {
            // Row-at-a-time off the mask: exactly the loop the fused
            // kernel is differential-tested against.
            let mut h = Histogram::zeros(bins.bucket_count());
            for row in selected.iter() {
                if let Some(b) = col.f64_at(row).and_then(|x| bins.bin_of(x)) {
                    h.bump(b);
                }
            }
            bin_phase_stats(table.rows(), zone, &selected, bins, &mut stats);
            h
        }
    };

    let footprint = QueryFootprint {
        rows_scanned: table.rows() as u64,
        rows_matched: selected.count() as u64,
        rows_aggregated: selected.count() as u64,
        groups: hist.bins() as u64,
        rows_output: hist.bins() as u64,
        predicate_evals: table.rows() as u64 * original.condition_count() as u64,
        blocks_pruned: stats.blocks_pruned,
        blocks_scanned: stats.blocks_scanned,
        ..QueryFootprint::default()
    };
    Ok(PlannedExecution {
        result: ResultSet::Histogram(hist),
        footprint,
    })
}

/// Replays the fused kernel's per-block prune/scan decisions without
/// binning, so unfused and parallel paths report the same bin-phase
/// block counters as the serial fused kernel.
fn bin_phase_stats(
    len: usize,
    zone: Option<&ZoneMap>,
    sel: &SelectionVector,
    bins: &BinSpec,
    stats: &mut KernelStats,
) {
    let words = sel.words();
    let mut block = 0usize;
    let mut row = 0usize;
    while row < len {
        let block_end = (row + ZONE_BLOCK_ROWS).min(len);
        let prunable = zone
            .and_then(|z| z.block(block))
            .is_some_and(|z| z.max < bins.min || z.min > bins.max);
        if prunable {
            stats.blocks_pruned += 1;
        } else {
            let w_lo = row / 64;
            let w_hi = block_end.div_ceil(64).min(words.len());
            if words[w_lo..w_hi].iter().all(|&w| w == 0) {
                stats.blocks_pruned += 1;
            } else {
                stats.blocks_scanned += 1;
            }
        }
        row = block_end;
        block += 1;
    }
}

/// Bins fixed-size chunks of [`PAR_CHUNK_ROWS`] rows concurrently over
/// an already-computed selection, merging partials in chunk order.
/// Chunking is by row count, never by thread count, so every thread
/// count produces the same histogram.
fn parallel_bin_phase(
    col: &crate::column::Column,
    zone: Option<&ZoneMap>,
    sel: &SelectionVector,
    bins: &BinSpec,
    rows: usize,
    threads: usize,
) -> EngineResult<Histogram> {
    let n_chunks = rows.div_ceil(PAR_CHUNK_ROWS);
    let (task_tx, task_rx) = channel::unbounded::<usize>();
    let (result_tx, result_rx) = channel::unbounded::<(usize, Histogram)>();
    for c in 0..n_chunks {
        if task_tx.send(c).is_err() {
            return Err(EngineError::SchedulerClosed);
        }
    }
    drop(task_tx);

    crossbeam::scope(|scope| {
        for _ in 0..threads.min(n_chunks) {
            let task_rx = task_rx.clone();
            let result_tx = result_tx.clone();
            scope.spawn(move |_| {
                let opts = KernelOptions::default();
                let mut stats = KernelStats::default();
                while let Ok(c) = task_rx.recv() {
                    let start = c * PAR_CHUNK_ROWS;
                    let end = (start + PAR_CHUNK_ROWS).min(rows);
                    let mut partial = Histogram::zeros(bins.bucket_count());
                    kernels::fused_filter_bin_range(
                        col,
                        zone,
                        sel,
                        bins,
                        &opts,
                        &mut stats,
                        start,
                        end,
                        &mut partial,
                    );
                    if result_tx.send((c, partial)).is_err() {
                        break;
                    }
                }
            });
        }
    })
    .map_err(|_| EngineError::SchedulerClosed)?;
    drop(result_tx);

    let mut slots: Vec<Option<Histogram>> = (0..n_chunks).map(|_| None).collect();
    while let Ok((c, partial)) = result_rx.recv() {
        slots[c] = Some(partial);
    }
    let mut counts = vec![0u64; bins.bucket_count()];
    for slot in slots {
        let partial = slot.ok_or(EngineError::SchedulerClosed)?;
        for (acc, c) in counts.iter_mut().zip(partial.counts()) {
            *acc += c;
        }
    }
    Ok(Histogram::from_counts(counts))
}

/// Build-on-right hash join: hashes the whole right table and probes
/// with the left page in ascending row order, which yields match pairs
/// in exactly the `(left asc, right asc)` order the build-left path
/// produces after its stable sort. The footprint keeps the canonical
/// counters (`build_rows` = left page, `probe_rows` = right rows) so
/// virtual costs do not depend on the physical build side, and the
/// block counters replay the build-left probe's zone decisions.
fn run_join_build_right(
    left: &Table,
    right: &Table,
    spec: &crate::query::JoinSpec,
) -> EngineResult<PlannedExecution> {
    let left_key = exec::int_key_column(left, &spec.left_key)?;
    let right_key = exec::int_key_column(right, &spec.right_key)?;

    let end = match spec.limit {
        Some(l) => (spec.offset + l).min(left.rows()),
        None => left.rows(),
    };
    let start = spec.offset.min(end);

    // Build over the right table: ascending insertion keeps each key's
    // row list ascending.
    let mut build: HashMap<i64, Vec<usize>> = HashMap::with_capacity(right_key.len());
    for (row, key) in right_key.iter().enumerate() {
        build.entry(*key).or_default().push(row);
    }

    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (l_row, key) in left_key.iter().enumerate().take(end).skip(start) {
        if let Some(r_rows) = build.get(key) {
            for &r_row in r_rows {
                pairs.push((l_row, r_row));
            }
        }
    }

    // Footprint identity: replay the block decisions the build-left
    // probe would have made over the right table.
    let mut blocks_pruned = 0u64;
    let mut blocks_scanned = 0u64;
    if start < end {
        let bmin = left_key[start..end]
            .iter()
            .min()
            .copied()
            .expect("non-empty page") as f64;
        let bmax = left_key[start..end]
            .iter()
            .max()
            .copied()
            .expect("non-empty page") as f64;
        let key_idx = right.column_index(&spec.right_key)?;
        let zone_map = right.zone_map_at(key_idx);
        let blocks = right_key.len().div_ceil(ZONE_BLOCK_ROWS);
        for blk in 0..blocks {
            let prunable = zone_map
                .and_then(|zm| zm.block(blk))
                .is_some_and(|z| z.max < bmin || z.min > bmax);
            if prunable {
                blocks_pruned += 1;
            } else {
                blocks_scanned += 1;
            }
        }
    }

    let mut rows: Vec<crate::result::Row> = Vec::with_capacity(pairs.len());
    for (l_row, r_row) in pairs {
        rows.push(exec::project_joined(
            left,
            right,
            l_row,
            r_row,
            &spec.projection,
        )?);
    }

    let footprint = QueryFootprint {
        rows_scanned: (end - start) as u64 + right.rows() as u64,
        rows_matched: rows.len() as u64,
        build_rows: (end - start) as u64,
        probe_rows: right.rows() as u64,
        rows_output: rows.len() as u64,
        blocks_pruned,
        blocks_scanned,
        ..QueryFootprint::default()
    };
    Ok(PlannedExecution {
        result: ResultSet::Rows(rows),
        footprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::predicate::Predicate;
    use crate::query::{JoinSpec, Projection};
    use crate::table::TableBuilder;
    use crate::MemBackend;
    use crate::{Backend, Query};

    fn db(rows: usize) -> MemBackend {
        let b = MemBackend::new();
        b.database().register(
            TableBuilder::new("t")
                .column("x", ColumnBuilder::float((0..rows).map(|i| i as f64)))
                .column("k", ColumnBuilder::int((0..rows).map(|i| i as i64 % 7)))
                .column(
                    "s",
                    ColumnBuilder::str((0..rows).map(|i| ["a", "b", "c"][i % 3])),
                )
                .build()
                .unwrap(),
        );
        b
    }

    fn assert_matches_exec(backend: &MemBackend, q: &Query) {
        let database = backend.database();
        let planned = plan(&database, q).unwrap().execute(&database).unwrap();
        let (result, footprint) = exec::run_query(&database, q).unwrap();
        assert_eq!(planned.result, result, "result drift for {q}");
        assert_eq!(planned.footprint, footprint, "footprint drift for {q}");
    }

    #[test]
    fn predicate_reordering_puts_selective_conjunct_first() {
        let b = db(4000);
        let database = b.database();
        // x BETWEEN selects ~2.5%, k >= 0 selects everything.
        let q = Query::count(
            "t",
            Predicate::and([Predicate::ge("k", 0.0), Predicate::between("x", 0.0, 100.0)]),
        );
        let p = plan(&database, &q).unwrap();
        let PlanNode::Count { pred } = p.node() else {
            panic!("count plan");
        };
        assert!(pred.reordered);
        assert!(pred.conjuncts[0].0.contains("BETWEEN"));
        assert!(pred.conjuncts[0].1 < pred.conjuncts[1].1);
        assert_matches_exec(&b, &q);
    }

    #[test]
    fn histogram_path_tracks_estimated_rows() {
        let b = db(5000);
        let database = b.database();
        let broad = Query::histogram(
            "t",
            BinSpec::new("x", 0.0, 5000.0, 20),
            Predicate::between("x", 0.0, 4000.0),
        );
        let narrow = Query::histogram(
            "t",
            BinSpec::new("x", 0.0, 5000.0, 20),
            Predicate::between("x", 0.0, 3.0),
        );
        let p_broad = plan(&database, &broad).unwrap();
        let p_narrow = plan(&database, &narrow).unwrap();
        assert!(matches!(
            p_broad.node(),
            PlanNode::Histogram {
                path: HistogramPath::Fused,
                ..
            }
        ));
        assert!(matches!(
            p_narrow.node(),
            PlanNode::Histogram {
                path: HistogramPath::Unfused,
                ..
            }
        ));
        assert_matches_exec(&b, &broad);
        assert_matches_exec(&b, &narrow);
    }

    #[test]
    fn parallel_plan_is_thread_invariant() {
        let rows = PAR_CHUNK_ROWS + 1234;
        let b = MemBackend::new();
        b.database().register(
            TableBuilder::new("t")
                .column(
                    "x",
                    ColumnBuilder::float((0..rows).map(|i| (i % 977) as f64)),
                )
                .build()
                .unwrap(),
        );
        let database = b.database();
        let q = Query::histogram(
            "t",
            BinSpec::new("x", 0.0, 1000.0, 25),
            Predicate::between("x", 100.0, 800.0),
        );
        let p = plan(&database, &q).unwrap();
        assert!(matches!(
            p.node(),
            PlanNode::Histogram { parallel: true, .. }
        ));
        let base = p.execute_with_threads(&database, 1).unwrap();
        let explain = p.explain();
        for threads in [2, 4, 8] {
            let out = p.execute_with_threads(&database, threads).unwrap();
            assert_eq!(out.result, base.result, "{threads} threads diverged");
            assert_eq!(out.footprint, base.footprint, "{threads} threads footprint");
            assert_eq!(p.explain(), explain, "plan text must be thread-invariant");
        }
        let (result, footprint) = exec::run_query(&database, &q).unwrap();
        assert_eq!(base.result, result);
        assert_eq!(base.footprint, footprint);
    }

    #[test]
    fn join_builds_on_the_smaller_side() {
        let b = MemBackend::new();
        b.database().register(
            TableBuilder::new("fact")
                .column("id", ColumnBuilder::int(0..5000))
                .build()
                .unwrap(),
        );
        b.database().register(
            TableBuilder::new("dim")
                .column("id", ColumnBuilder::int((0..100).map(|i| i * 3)))
                .column(
                    "name",
                    ColumnBuilder::str((0..100).map(|i| format!("d{i}"))),
                )
                .build()
                .unwrap(),
        );
        let database = b.database();
        let whole = Query::Join(JoinSpec {
            left: "fact".into(),
            right: "dim".into(),
            left_key: "id".into(),
            right_key: "id".into(),
            projection: vec![Projection::column("name"), Projection::column("id")],
            limit: None,
            offset: 0,
        });
        let paged = Query::Join(JoinSpec {
            limit: Some(20),
            ..match &whole {
                Query::Join(s) => s.clone(),
                _ => unreachable!(),
            }
        });
        let p_whole = plan(&database, &whole).unwrap();
        let p_paged = plan(&database, &paged).unwrap();
        assert!(matches!(
            p_whole.node(),
            PlanNode::Join {
                build: BuildSide::Right,
                ..
            }
        ));
        assert!(matches!(
            p_paged.node(),
            PlanNode::Join {
                build: BuildSide::Left,
                ..
            }
        ));
        assert_matches_exec(&b, &whole);
        assert_matches_exec(&b, &paged);
    }

    #[test]
    fn planned_execution_matches_exec_across_shapes() {
        let b = db(3000);
        let queries = [
            Query::count("t", Predicate::True),
            Query::count("t", Predicate::eq("s", "b")),
            Query::count(
                "t",
                Predicate::Or(vec![
                    Predicate::between("x", 0.0, 10.0),
                    Predicate::Not(Box::new(Predicate::le("x", 2500.0))),
                ]),
            ),
            Query::select("t", vec![], Predicate::True, Some(10), 5),
            Query::select(
                "t",
                vec![Projection::column("x")],
                Predicate::and([
                    Predicate::between("k", 1.0, 5.0),
                    Predicate::between("x", 100.0, 2900.0),
                ]),
                Some(25),
                3,
            ),
            Query::histogram(
                "t",
                BinSpec::new("x", 0.0, 3000.0, 30),
                Predicate::and([
                    Predicate::ge("k", 2.0),
                    Predicate::between("x", 50.0, 2000.0),
                ]),
            ),
        ];
        for q in &queries {
            assert_matches_exec(&b, q);
        }
    }

    #[test]
    fn plan_errors_match_exec_errors() {
        let b = db(100);
        let database = b.database();
        // Unknown table fails at plan time with run_query's error.
        let q = Query::count("missing", Predicate::True);
        assert_eq!(
            plan(&database, &q).unwrap_err(),
            exec::run_query(&database, &q).unwrap_err()
        );
        // Unknown column and bad bin specs fail at execute time with
        // run_query's error.
        for q in [
            Query::count("t", Predicate::between("zzz", 0.0, 1.0)),
            Query::histogram("t", BinSpec::new("x", 5.0, 5.0, 10), Predicate::True),
            Query::histogram("t", BinSpec::new("x", 0.0, 1.0, 0), Predicate::True),
            Query::histogram("t", BinSpec::new("s", 0.0, 1.0, 4), Predicate::True),
        ] {
            let planned = plan(&database, &q).unwrap().execute(&database);
            assert_eq!(
                planned.unwrap_err(),
                exec::run_query(&database, &q).unwrap_err(),
                "error drift for {q}"
            );
        }
    }

    #[test]
    fn explain_is_deterministic_and_complete() {
        let b = db(5000);
        let database = b.database();
        let q = Query::histogram(
            "t",
            BinSpec::new("x", 0.0, 5000.0, 20),
            Predicate::and([Predicate::ge("k", 0.0), Predicate::between("x", 0.0, 500.0)]),
        );
        let p = plan(&database, &q).unwrap();
        let text = p.explain();
        assert_eq!(text, plan(&database, &q).unwrap().explain());
        assert!(text.contains("Histogram(table=t rows=5000)"), "{text}");
        assert!(text.contains("reordered=yes"), "{text}");
        assert!(text.contains("est blocks:"), "{text}");
        let out = p.execute(&database).unwrap();
        let analyzed = p.explain_analyzed(&out.footprint);
        assert!(analyzed.starts_with(&text));
        assert!(analyzed.contains("actual: rows_matched="), "{analyzed}");
    }

    #[test]
    fn block_boundary_tables_plan_and_match() {
        for rows in [0usize, 1, 1023, 1024, 1025] {
            let b = db(rows);
            for q in [
                Query::count("t", Predicate::between("x", 0.0, 600.0)),
                Query::histogram(
                    "t",
                    BinSpec::new("x", 0.0, 1200.0, 12),
                    Predicate::between("k", 0.0, 3.0),
                ),
                Query::select("t", vec![], Predicate::ge("x", 1000.0), Some(5), 0),
            ] {
                assert_matches_exec(&b, &q);
            }
        }
    }
}
