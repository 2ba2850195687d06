//! Workloads that drive `dv_core::Virtualizer` inside this process:
//! set-up, the closed-loop timed window, and the traced calls into each
//! layer's public functions.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dv_core::{
    CompiledDataset, CostParams, CostReport, IoOptions, QueryOptions, QueryStats, SubmitOptions,
    Table, Virtualizer,
};

use crate::host::self_cpu_ms;
use crate::measure::{CostBounds, Measurement, QueryRecord, Span, Window};
use crate::oracle::{Checksum, Expected};
use crate::stats::Outcome;
use crate::trace::{traced, Tracer};

/// Set-up repetitions per run; `setup_s` is their median. The first
/// few of a run are slower while the process and host warm up, so the
/// median needs enough later ones to land among the settled values.
pub const SETUP_REPS: usize = 15;

/// Repetitions of each timed set-up layer call in a traced run.
const COMPILE_REPS: usize = 5;

/// What the in-process runner needs to know about a workload.
pub struct Ctx<'a> {
    /// Descriptor text of the dataset the program reads.
    pub desc: &'a str,
    /// Storage base of that dataset.
    pub base: &'a Path,
    /// Distinct queries, cycled in order.
    pub queries: &'a [String],
    /// Oracle expectations, one per distinct query.
    pub expected: &'a [Expected],
    /// Closed-loop client threads.
    pub clients: usize,
    /// Queries of the warm-up pass.
    pub warmup_len: usize,
}

/// Build a virtualizer at the program's defaults.
pub fn build(desc: &str, base: &Path) -> Result<Virtualizer, String> {
    Virtualizer::builder(desc).storage_base(base).build().map_err(|e| e.to_string())
}

/// Run one query through the service plane's admission path and wait
/// for its single client table.
pub fn execute(v: &Virtualizer, sql: &str) -> dv_core::Result<(Table, QueryStats)> {
    let (mut tables, stats) =
        v.submit(sql, &QueryOptions::default(), &SubmitOptions::default())?.wait()?;
    let table = tables
        .pop()
        .ok_or_else(|| dv_core::DvError::Runtime("query produced no client table".into()))?;
    Ok((table, stats))
}

/// Compare a result with the oracle.
pub fn check(
    result: dv_core::Result<(Table, QueryStats)>,
    expected: &Expected,
) -> (Outcome, Option<QueryStats>) {
    match result {
        Ok((table, stats)) => {
            let same = Checksum::of_table(&table) == expected.checksum;
            (if same { Outcome::Ok } else { Outcome::Mismatch }, Some(stats))
        }
        Err(e) if e.is_cost_rejected() => (Outcome::Refused, None),
        Err(_) => (Outcome::Error, None),
    }
}

/// Build and warm up [`SETUP_REPS`] times, timing each, and keep the
/// last virtualizer for the timed window.
pub fn setup(ctx: &Ctx, m: &mut Measurement) -> Result<Virtualizer, String> {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let v = build(ctx.desc, ctx.base)?;
        let warm = Instant::now();
        for (q, exp) in ctx.queries.iter().zip(ctx.expected).take(ctx.warmup_len) {
            if check(execute(&v, q), exp).0 != Outcome::Ok {
                m.warmup_failures += 1;
            }
        }
        m.warmup_ms.push(warm.elapsed().as_secs_f64() * 1e3);
        m.setup_s.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok(last.expect("SETUP_REPS is at least 1"))
}

/// Run the closed loop: each client submits the stream's next query as
/// soon as its previous one has been checked, until `span` says stop.
pub fn window(v: &Virtualizer, ctx: &Ctx, span: Span, tracer: Option<&Tracer>) -> Window {
    let next = AtomicUsize::new(0);
    let cpu0 = self_cpu_ms();
    let start = Instant::now();
    let mut records = Vec::new();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..ctx.clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed suffices: the counter only deals out
                        // stream positions.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if span.done(start.elapsed(), i) {
                            break mine;
                        }
                        mine.push(one_query(v, ctx, i, tracer));
                    }
                })
            })
            .collect();
        for c in clients {
            records.extend(c.join().expect("a client thread panicked"));
        }
    });
    Window { records, seconds: start.elapsed().as_secs_f64(), cpu_ms: self_cpu_ms() - cpu0 }
}

fn one_query(v: &Virtualizer, ctx: &Ctx, i: usize, tracer: Option<&Tracer>) -> QueryRecord {
    let q = i % ctx.queries.len();
    let sql = &ctx.queries[q];
    let qid = i as u64 + 1;
    traced(tracer, "query", None, qid, |root| {
        let t = Instant::now();
        let bounds = tracer.and_then(|tr| layer_calls(v, sql, tr, root, qid));
        let result = traced(tracer, "service.execute", root, qid, |_| execute(v, sql));
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let (outcome, stats) =
            traced(tracer, "bench.checksum", root, qid, |_| check(result, &ctx.expected[q]));
        QueryRecord { query: q, latency_ms, outcome, stats, bounds }
    })
}

/// Call the front-end layers one by one (bind, plan, cost) inside
/// spans, and return the plan's dv-cost bounds.
pub fn layer_calls(
    v: &Virtualizer,
    sql: &str,
    tr: &Tracer,
    parent: Option<u64>,
    qid: u64,
) -> Option<CostBounds> {
    let bq = tr.span("sql.bind", parent, qid, |_| v.server().bind_sql(sql)).ok()?;
    let plan =
        tr.span("layout.plan", parent, qid, |_| v.server().compiled().plan_query(&bq)).ok()?;
    let report = tr.span("layout.cost", parent, qid, |_| {
        CostReport::analyze(
            &plan,
            &CostParams::new(&IoOptions::default(), 1, bq.predicate.is_some()),
        )
    });
    Some(CostBounds { bytes_read: report.bytes_read.hi, read_syscalls: report.read_syscalls.hi })
}

/// Time the set-up layers `Virtualizer::build` runs — descriptor
/// compile, layout compile and semantic verification — as spans.
pub fn compile_layers(desc: &str, base: &Path, tr: &Tracer) -> Result<(), String> {
    let e = |e: dv_core::DvError| e.to_string();
    for _ in 0..COMPILE_REPS {
        let model =
            Arc::new(tr.span("descriptor.compile", None, 0, |_| {
                dv_descriptor::compile(desc).map_err(e)
            })?);
        let roots = model.nodes.iter().map(|n| base.join(n)).collect();
        let compiled = tr.span("layout.compile", None, 0, |_| {
            CompiledDataset::compile(model.clone(), roots).map_err(e)
        })?;
        let ast = dv_descriptor::parse_descriptor(desc).map_err(e)?;
        let mut sizes = dv_lint::verify::ObservedSizes::new();
        for f in &model.files {
            if let Ok(md) = std::fs::metadata(compiled.file_path(f.id)) {
                sizes.insert((model.nodes[f.node].clone(), f.rel_path.clone()), md.len());
            }
        }
        tr.span("lint.verify", None, 0, |_| dv_lint::verify_ast(&ast, Some(&model), Some(&sizes)));
    }
    Ok(())
}

/// Decode every staged file with its codec, inside spans; returns the
/// logical MiB produced per second of decoding.
pub fn decode_rate(desc: &str, base: &Path, tr: &Tracer) -> Result<f64, String> {
    let model = dv_descriptor::compile(desc).map_err(|e| e.to_string())?;
    let (mut mib, mut secs) = (0.0, 0.0);
    for f in &model.files {
        let path = base.join(&model.nodes[f.node]).join(&f.rel_path);
        let physical = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let t = Instant::now();
        let logical = tr.span("descriptor.codec.decode", None, 0, |_| {
            dv_descriptor::codec::decode_physical(f.codec, f, &model.attr_types, &physical)
        });
        secs += t.elapsed().as_secs_f64();
        mib += logical.map_err(|e| e.to_string())?.len() as f64 / (1024.0 * 1024.0);
    }
    Ok(crate::stats::ratio(mib, secs))
}
