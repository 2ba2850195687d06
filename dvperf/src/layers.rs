//! Per-layer metrics of a traced run: span self times around the
//! benchmark's calls into each layer, plus the program's `QueryStats`
//! counters, reduced to per-query figures and ratios.

use std::collections::BTreeMap;

use dv_core::QueryStats;

use crate::measure::{Measurement, QueryRecord};
use crate::stats::{mean, median, ratio};
use crate::trace::Tracer;

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("descriptor.compile_ms", "ms"),
    ("layout.compile_ms", "ms"),
    ("lint.verify_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("sql.bind_us", "us"),
    ("layout.plan_us", "us"),
    ("layout.plan.stats_plan_us", "us"),
    ("layout.plan.afcs_per_query", "count"),
    ("layout.prune.groups_pruned_frac", "fraction"),
    ("layout.prune.bytes_avoided_frac", "fraction"),
    ("layout.cost.bytes_tightness", "ratio"),
    ("layout.cost.syscalls_tightness", "ratio"),
    ("layout.io.read_syscalls_per_query", "count"),
    ("layout.io.coalesce_ratio", "ratio"),
    ("layout.io.issued_per_used", "ratio"),
    ("layout.io.cache_hit_frac", "fraction"),
    ("layout.io.cache_insert_mb_per_query", "MiB"),
    ("layout.io.prefetch_wait_frac", "fraction"),
    ("layout.io.prefetch_wait_ms_per_query", "ms"),
    ("descriptor.codec.decode_calls_per_query", "count"),
    ("descriptor.codec.decode_mb_per_query", "MiB"),
    ("descriptor.codec.decode_mb_per_s", "MiB/s"),
    ("layout.extract.rows_scanned_per_query", "count"),
    ("layout.extract.bytes_read_per_query", "B"),
    ("storm.filter.selectivity", "fraction"),
    ("storm.exec_ms", "ms"),
    ("storm.node_busy_max_ms", "ms"),
    ("storm.node_busy_skew", "ratio"),
    ("layout.morsel.stolen_frac", "fraction"),
    ("layout.morsel.pool_wait_ms_per_query", "ms"),
    ("layout.morsel.worker_bytes_max_over_min", "ratio"),
    ("storm.mover.sends_per_query", "count"),
    ("storm.mover.blocked_frac", "fraction"),
    ("storm.mover.send_wait_ms_per_query", "ms"),
    ("storm.mover.mb_moved_per_query", "MiB"),
    ("storm.mover.peak_buffered_blocks", "count"),
    ("storm.mover.agg_reduction", "ratio"),
    ("storm.service.queue_wait_ms", "ms"),
    ("storm.absorb_tail_ms", "ms"),
    ("cli.process_ms", "ms"),
    ("cli.output_mb_per_s", "MiB/s"),
    ("cli.format_ms", "ms"),
    ("process.cpu_ms_per_query", "ms"),
    ("bench.checksum_us", "us"),
    ("trace.overhead_p50_ms", "ms"),
];

/// Layer figures this benchmark cannot measure from outside the
/// program, with the reason.
pub const UNMEASURED: &[(&str, &str)] = &[
    (
        "layout.extract decode/filter/partition time",
        "QueryStats has no per-stage clocks; splitting storm.exec_ms needs spans inside the program",
    ),
    (
        "storm absorb vs materialize",
        "storm.absorb_tail_ms lumps absorb, reorder and row materialization; the program reports no split",
    ),
    (
        "layout.io fetch time outside prefetch waits",
        "only prefetch waits are clocked; synchronous reads are folded into node busy time",
    ),
];

const MIB: f64 = 1024.0 * 1024.0;

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Compute every per-layer metric of `m`. `extra` carries the values
/// the workload runner measured itself (set-up layer spans, codec rate,
/// CLI figures); anything still missing is reported as 0 and listed in
/// the returned notes with its reason.
pub fn per_layer(
    m: &Measurement,
    tr: &Tracer,
) -> (Vec<(&'static str, f64, &'static str)>, Vec<String>) {
    let mut v: BTreeMap<&'static str, f64> = m.extra.clone();
    let self_us = tr.self_times_us();
    let span_median = |name: &str| self_us.get(name).and_then(|xs| median(xs));
    for (metric, span, scale) in [
        ("descriptor.compile_ms", "descriptor.compile", 1e-3),
        ("layout.compile_ms", "layout.compile", 1e-3),
        ("lint.verify_ms", "lint.verify", 1e-3),
        ("sql.bind_us", "sql.bind", 1.0),
        ("layout.plan_us", "layout.plan", 1.0),
        ("bench.checksum_us", "bench.checksum", 1.0),
    ] {
        if let Some(x) = span_median(span) {
            v.insert(metric, x * scale);
        }
    }
    v.insert("setup.warmup_ms", median(&m.warmup_ms).unwrap_or(0.0));

    // Counters come from the timed queries that ran in this process, or
    // for the export workload from its in-process replay.
    let records: Vec<&QueryRecord> =
        if m.replay.is_empty() { m.all_records().collect() } else { m.replay.iter().collect() };
    counters(&records, &mut v);

    let attempted = m.plain.records.len();
    v.insert("process.cpu_ms_per_query", ratio(m.plain.cpu_ms, attempted as f64));
    if let Some(traced) = &m.traced {
        let p50 = |w: &crate::measure::Window| median(&w.latencies()).unwrap_or(0.0);
        v.insert("trace.overhead_p50_ms", p50(traced) - p50(&m.plain));
    }

    let mut notes: Vec<String> =
        UNMEASURED.iter().map(|(what, why)| format!("{what}: {why}")).collect();
    let out = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = v.get(name).copied().unwrap_or_else(|| {
                notes.push(format!("{name}: not exercised by this workload, reported as 0"));
                0.0
            });
            (name, value, unit)
        })
        .collect();
    (out, notes)
}

fn counters(records: &[&QueryRecord], v: &mut BTreeMap<&'static str, f64>) {
    let stats: Vec<&QueryStats> = records.iter().filter_map(|r| r.stats.as_ref()).collect();
    if stats.is_empty() {
        return;
    }
    let n = stats.len() as f64;
    let sum = |f: &dyn Fn(&QueryStats) -> f64| stats.iter().map(|s| f(s)).sum::<f64>();
    let per_query = |f: &dyn Fn(&QueryStats) -> f64| sum(f) / n;
    let max_busy = |s: &QueryStats| s.node_busy.iter().max().map_or(0.0, |d| ms(*d));

    v.insert(
        "layout.plan.stats_plan_us",
        median(&stats.iter().map(|s| ms(s.plan_time) * 1e3).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    v.insert("layout.plan.afcs_per_query", per_query(&|s| s.afcs as f64));
    v.insert(
        "layout.prune.groups_pruned_frac",
        ratio(sum(&|s| s.groups_pruned as f64), sum(&|s| s.groups_total as f64)),
    );
    v.insert(
        "layout.prune.bytes_avoided_frac",
        ratio(sum(&|s| s.bytes_avoided as f64), sum(&|s| (s.bytes_avoided + s.bytes_read) as f64)),
    );
    let tight = |f: &dyn Fn(&QueryStats, &crate::measure::CostBounds) -> f64| {
        records
            .iter()
            .filter_map(|r| Some(f(r.stats.as_ref()?, r.bounds.as_ref()?)))
            .fold(0.0, f64::max)
    };
    v.insert(
        "layout.cost.bytes_tightness",
        tight(&|s, b| ratio(s.bytes_read as f64, b.bytes_read as f64)),
    );
    v.insert(
        "layout.cost.syscalls_tightness",
        tight(&|s, b| ratio(s.io.read_syscalls as f64, b.read_syscalls as f64)),
    );
    v.insert("layout.io.read_syscalls_per_query", per_query(&|s| s.io.read_syscalls as f64));
    v.insert(
        "layout.io.coalesce_ratio",
        ratio(sum(&|s| s.io.runs_scheduled as f64), sum(&|s| s.io.read_syscalls as f64)),
    );
    v.insert(
        "layout.io.issued_per_used",
        ratio(sum(&|s| s.io.bytes_issued as f64), sum(&|s| s.io.bytes_used as f64)),
    );
    v.insert("layout.io.cache_hit_frac", cache_hit_frac(&stats));
    v.insert(
        "layout.io.cache_insert_mb_per_query",
        per_query(&|s| s.io.cache_insert_bytes as f64 / MIB),
    );
    v.insert(
        "layout.io.prefetch_wait_frac",
        ratio(
            sum(&|s| s.io.prefetch_waits as f64),
            sum(&|s| (s.io.prefetch_hits + s.io.prefetch_waits) as f64),
        ),
    );
    v.insert("layout.io.prefetch_wait_ms_per_query", per_query(&|s| ms(s.io.prefetch_wait)));
    v.insert("descriptor.codec.decode_calls_per_query", decode_calls_per_query(&stats));
    v.insert(
        "descriptor.codec.decode_mb_per_query",
        per_query(&|s| s.io.decode_bytes as f64 / MIB),
    );
    v.insert("layout.extract.rows_scanned_per_query", per_query(&|s| s.rows_scanned as f64));
    v.insert("layout.extract.bytes_read_per_query", per_query(&|s| s.bytes_read as f64));
    v.insert(
        "storm.filter.selectivity",
        ratio(sum(&|s| s.rows_selected as f64), sum(&|s| s.rows_scanned as f64)),
    );
    v.insert("storm.exec_ms", per_query(&|s| ms(s.exec_time)));
    v.insert("storm.node_busy_max_ms", per_query(&max_busy));
    let skews: Vec<f64> = stats
        .iter()
        .filter_map(|s| {
            let busy: Vec<f64> = s.node_busy.iter().map(|d| ms(*d)).collect();
            let avg = mean(&busy);
            (avg > 0.0).then(|| max_busy(s) / avg)
        })
        .collect();
    v.insert("storm.node_busy_skew", mean(&skews));
    v.insert(
        "layout.morsel.stolen_frac",
        ratio(sum(&|s| s.morsels.stolen as f64), sum(&|s| s.morsels.planned as f64)),
    );
    v.insert("layout.morsel.pool_wait_ms_per_query", per_query(&|s| ms(s.morsels.pool_wait)));
    let spreads: Vec<f64> = stats
        .iter()
        .filter(|s| s.morsels.worker_bytes_min > 0)
        .map(|s| s.morsels.worker_bytes_max as f64 / s.morsels.worker_bytes_min as f64)
        .collect();
    v.insert("layout.morsel.worker_bytes_max_over_min", mean(&spreads));
    v.insert("storm.mover.sends_per_query", per_query(&|s| s.mover.sends as f64));
    v.insert(
        "storm.mover.blocked_frac",
        ratio(sum(&|s| s.mover.blocked_sends as f64), sum(&|s| s.mover.sends as f64)),
    );
    v.insert("storm.mover.send_wait_ms_per_query", per_query(&|s| ms(s.mover.send_wait)));
    v.insert("storm.mover.mb_moved_per_query", per_query(&|s| s.bytes_moved as f64 / MIB));
    v.insert(
        "storm.mover.peak_buffered_blocks",
        stats.iter().map(|s| s.mover.peak_buffered_blocks as f64).fold(0.0, f64::max),
    );
    v.insert(
        "storm.mover.agg_reduction",
        ratio(sum(&|s| s.mover.agg_rows_in as f64), sum(&|s| s.mover.agg_groups_out as f64)),
    );
    v.insert("storm.service.queue_wait_ms", per_query(&|s| ms(s.queue_wait)));
    v.insert("storm.absorb_tail_ms", per_query(&|s| (ms(s.exec_time) - max_busy(s)).max(0.0)));
}

/// Share of scheduled segment bytes served from the segment cache.
pub fn cache_hit_frac(stats: &[&QueryStats]) -> f64 {
    let hit: u64 = stats.iter().map(|s| s.io.cache_hit_bytes).sum();
    let miss: u64 = stats.iter().map(|s| s.io.cache_miss_bytes).sum();
    ratio(hit as f64, (hit + miss) as f64)
}

/// Whole-file codec decodes per query.
pub fn decode_calls_per_query(stats: &[&QueryStats]) -> f64 {
    let calls: u64 = stats.iter().map(|s| s.io.decode_calls).sum();
    ratio(calls as f64, stats.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json's `per_layer` list must name exactly these
    /// metrics with these units, in this order.
    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = json.split("\"per_layer\"").nth(1).expect("per_layer section");
        let listed: Vec<(String, String)> = section
            .split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap().to_string();
                let unit = entry.split("\"unit\": \"").nth(1).unwrap().split('"').next().unwrap();
                (name, unit.to_string())
            })
            .collect();
        let expected: Vec<(String, String)> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed, expected);
    }
}
