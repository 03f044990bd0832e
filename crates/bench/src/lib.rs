//! # mnd-bench — the reproduction harness
//!
//! One function per table/figure of the paper's evaluation (§5), each
//! returning its finished [`fmt::Table`]s, which the `repro` binary prints
//! and writes as CSV. See
//! `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for the
//! recorded paper-vs-measured outcomes.
//!
//! All experiments run the *real* algorithms over the simulated cluster;
//! reported times are simulated seconds at paper scale (the `sim_scale`
//! mechanism described in DESIGN.md). Every distributed run's MSF is
//! checked against the Kruskal oracle before its timing is reported — a
//! row from this harness is by construction a *correct* run.

pub mod experiments;
pub mod fmt;
pub mod trace;

pub use experiments::*;

/// Default scale divisor: stand-in graphs are `1/SCALE` of the paper's
/// sizes (uk-2007 → ~3.2M edges), and simulated costs are scaled back up
/// by the same factor.
pub const DEFAULT_SCALE: u64 = 2048;
