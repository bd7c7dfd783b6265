//! Physical execution of logical queries over in-memory tables.
//!
//! Execution is backend-agnostic: each operator returns the
//! [`ResultSet`](crate::ResultSet) *and* a [`QueryFootprint`](crate::cost::QueryFootprint)
//! recording how much work was done (tuples scanned, matched, grouped,
//! joined, rows emitted). Backends convert the footprint into virtual
//! time with their [`CostModel`](crate::cost::CostModel).

mod aggregate;
mod join;
mod scan;

pub use aggregate::{run_count, run_histogram};
pub use join::run_join;
pub use scan::run_select;

// Shared with the cost-based planner, whose own physical operators must
// validate inputs and project rows byte-identically to the operators in
// this module.
pub(crate) use aggregate::histogram_bin_column;
pub(crate) use join::{int_key_column, project_joined};

use crate::cost::QueryFootprint;
use crate::error::EngineResult;
use crate::query::Query;
use crate::result::ResultSet;
use crate::Database;

/// Executes a logical query against the tables registered in `db`.
pub fn run_query(db: &Database, query: &Query) -> EngineResult<(ResultSet, QueryFootprint)> {
    match query {
        Query::Select(spec) => {
            let table = db.table(&spec.table)?;
            run_select(&table, spec)
        }
        Query::Join(spec) => {
            let left = db.table(&spec.left)?;
            let right = db.table(&spec.right)?;
            run_join(&left, &right, spec)
        }
        Query::Histogram {
            table,
            bins,
            filter,
        } => {
            let table = db.table(table)?;
            run_histogram(&table, bins, filter)
        }
        Query::Count { table, filter } => {
            let table = db.table(table)?;
            run_count(&table, filter)
        }
    }
}
