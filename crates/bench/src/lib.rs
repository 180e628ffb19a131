//! `wbsim bench`: engine-throughput snapshots over the table-7 cell grid
//! (`BENCH_*.json`) and the regression gate that compares two of them.

pub mod snapshot;

pub use snapshot::{
    compare, git_rev, measure, BenchSnapshot, Comparison, MeasureScale, TargetStats, SCHEMA,
};
