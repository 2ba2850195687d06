//! What a run records per query and per timed window, and the six
//! end-to-end metrics derived from it.

use std::collections::BTreeMap;
use std::time::Duration;

use dv_core::QueryStats;

use crate::stats::{self, Outcome};

/// One timed query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Index into the workload's distinct queries.
    pub query: usize,
    /// Submit (or spawn) until the whole result is in hand.
    pub latency_ms: f64,
    /// Checked against the oracle.
    pub outcome: Outcome,
    /// The program's counters, when the query ran in this process.
    pub stats: Option<QueryStats>,
    /// dv-cost bounds of the query's plan (traced queries only).
    pub bounds: Option<CostBounds>,
}

/// The dv-cost upper bounds the tightness ratios divide by.
#[derive(Debug, Clone, Copy)]
pub struct CostBounds {
    /// Bound on bytes decoded from data files.
    pub bytes_read: u64,
    /// Bound on read syscalls.
    pub read_syscalls: u64,
}

/// How long a closed-loop window runs: at least `dur`, and past it until
/// `min_queries` have started, but never past `cap`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The window's nominal length.
    pub dur: Duration,
    /// Queries the window must hold before it may end.
    pub min_queries: usize,
    /// Hard limit on the window's length, at least `dur`.
    pub cap: Duration,
}

impl Span {
    /// A window of exactly `dur`.
    pub fn fixed(dur: Duration) -> Span {
        Span { dur, min_queries: 0, cap: dur }
    }

    /// Whether a window that has run for `elapsed` and started `started`
    /// queries stops instead of starting another.
    pub fn done(&self, elapsed: Duration, started: usize) -> bool {
        elapsed >= self.cap || (elapsed >= self.dur && started >= self.min_queries)
    }
}

/// A closed-loop timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Every query started before the deadline, in completion order.
    pub records: Vec<QueryRecord>,
    /// Wall time from the first submit until the last client finished
    /// (for the export loop, excluding the benchmark's own file checks).
    pub seconds: f64,
    /// CPU time the working process(es) spent in the window, in ms.
    pub cpu_ms: f64,
}

impl Window {
    /// Latencies of every attempted query, in ms.
    pub fn latencies(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency_ms).collect()
    }

    /// Outcomes of every attempted query.
    pub fn outcomes(&self) -> Vec<Outcome> {
        self.records.iter().map(|r| r.outcome).collect()
    }

    /// Queries whose result did not match the oracle.
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.outcome != Outcome::Ok).count()
    }
}

/// Everything one run of a workload measured.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Seconds per repetition of set-up (build through warm-up).
    pub setup_s: Vec<f64>,
    /// Warm-up pass durations, in ms.
    pub warmup_ms: Vec<f64>,
    /// Warm-up queries whose result did not match the oracle.
    pub warmup_failures: usize,
    /// The untraced window (the first half of a traced run).
    pub plain: Window,
    /// The traced window (second half of a traced run).
    pub traced: Option<Window>,
    /// Peak resident memory of the process doing the work, in MiB.
    pub peak_rss_mb: f64,
    /// Per-layer values only this workload's runner can measure.
    pub extra: BTreeMap<&'static str, f64>,
    /// Counters of the export queries, replayed in this process.
    pub replay: Vec<QueryRecord>,
}

impl Measurement {
    /// Records of every timed query, untraced then traced.
    pub fn all_records(&self) -> impl Iterator<Item = &QueryRecord> {
        self.plain.records.iter().chain(self.traced.iter().flat_map(|w| w.records.iter()))
    }
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measurement) -> Result<Vec<Metric>, String> {
    let lat = m.plain.latencies();
    let outcomes = m.plain.outcomes();
    let ok = outcomes.iter().filter(|o| **o == Outcome::Ok).count();
    Ok(vec![
        ("setup_s", stats::median(&m.setup_s).ok_or("no set-up was timed")?, "s"),
        (
            "latency_p50_ms",
            stats::percentile(&lat, 0.5).ok_or("too few timed queries for a p50")?,
            "ms",
        ),
        ("latency_p90_ms", stats::latency_p90(&lat)?, "ms"),
        ("throughput_qps", stats::ratio(ok as f64, m.plain.seconds), "1/s"),
        ("success_frac", stats::success_frac(&outcomes), "fraction"),
        ("peak_rss_mb", m.peak_rss_mb, "MiB"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_runs_past_its_length_only_for_missing_queries() {
        let s = |secs| Duration::from_secs(secs);
        let fixed = Span::fixed(s(10));
        assert!(!fixed.done(s(9), 0));
        assert!(fixed.done(s(10), 0));
        let floor = Span { dur: s(10), min_queries: 100, cap: s(30) };
        assert!(!floor.done(s(9), 500), "never shorter than its length");
        assert!(floor.done(s(10), 100));
        assert!(!floor.done(s(20), 99), "runs on for the missing queries");
        assert!(floor.done(s(30), 99), "but stops at the cap");
    }
}
