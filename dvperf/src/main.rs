//! # dvperf — end-to-end and per-layer benchmark of datavirt
//!
//! ```text
//! cargo run --release --manifest-path dvperf/Cargo.toml -- \
//!     --workload <interactive_mix|scan_large|export_csv|scan_zstd|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a datavirt checkout. Each run stages the seed's
//! dataset and the oracle's expected results in a child process, sets
//! up the program (timed, several times), runs a closed-loop timed
//! window, checks every result against the hand-written extractor, and
//! prints one JSON object as its last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans as JSON lines under
//! `dvperf/.out/`, and every run appends a record with host diagnostics
//! to `dvperf/.out/runs.jsonl`.

mod cli;
mod host;
mod inproc;
mod layers;
mod measure;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use measure::{Measurement, Metric, Span};
use oracle::Staging;
use stats::Outcome;
use trace::Tracer;
use workload::Workload;

/// Longest an untraced window may run on to reach the queries its p90
/// needs; with staging and set-up, a run still ends well within three
/// minutes.
const MAX_WINDOW: Duration = Duration::from_secs(100);

/// Command-line arguments of a run.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: stage datasets and oracle results into this directory.
    stage_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10, trace: false, stage_dir: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds must be an integer")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--stage" => a.stage_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dvperf: {e}");
            return ExitCode::from(2);
        }
    };
    // DV_* variables (DV_THREADS, DV_SERIAL, ...) change the program
    // under test; clear them before anything reads them, so neither this
    // process nor its children see them.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DV_") {
            eprintln!("dvperf: clearing {}", key.to_string_lossy());
            std::env::remove_var(&key);
        }
    }
    let result = match (&args.stage_dir, args.workload.as_str()) {
        (Some(dir), name) => Workload::parse(name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
            .and_then(|w| oracle::stage(w, args.seed, dir)),
        (None, "all") => run_all(&args),
        (None, name) => match Workload::parse(name) {
            Some(w) => run(w, &args),
            None => Err(format!("unknown workload `{name}`")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dvperf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The checkout root: the current directory, which must hold both the
/// repository's crates and this benchmark.
fn checkout_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    for needed in ["Cargo.toml", "crates/cli", "dvperf/Cargo.toml"] {
        if !root.join(needed).exists() {
            return Err(format!("run from the root of a datavirt checkout (no {needed} here)"));
        }
    }
    Ok(root)
}

/// Run every workload in its own child process (so each one's peak
/// memory is its own) and print a combined summary.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            return Err(format!("workload {} failed ({})", w.name(), out.status));
        }
        for line in stdout.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["metric", name, value, unit] => {
                    println!("{:<16} {name:<42} {value:>14} {unit}", w.name());
                    metrics.push((
                        format!("{}.{name}", w.name()),
                        value.to_string(),
                        unit.to_string(),
                    ));
                }
                ["summary", ok, a, fl] => {
                    correct &= *ok == "true";
                    attempted += a.parse::<u64>().unwrap_or(0);
                    failed += fl.parse::<u64>().unwrap_or(0);
                }
                _ => {}
            }
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

/// Host diagnostics recorded beside every run; not gated.
struct HostDiag {
    calib_start_ms: f64,
    calib_end_ms: f64,
    steal_frac: f64,
    nproc: usize,
    commit: String,
}

fn run(w: Workload, args: &Args) -> Result<(), String> {
    let root = checkout_root()?;
    let calib_start_ms = host::calib_ms();
    let ticks0 = host::CpuTicks::now();
    let bench_dir = root.join("dvperf");
    let work =
        bench_dir.join(".work").join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
    let out_dir = bench_dir.join(".out");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let result = measure_workload(w, args, &root, &work, &out_dir);
    let _ = std::fs::remove_dir_all(&work);
    let (m, tracer) = result?;
    let diag = HostDiag {
        calib_start_ms,
        calib_end_ms: host::calib_ms(),
        steal_frac: host::CpuTicks::now().steal_frac_since(&ticks0),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: host::git_commit(&root),
    };
    report(w, args, &m, tracer.as_ref(), &diag, &out_dir)
}

/// Stage, set up and run the timed window(s) of one workload.
fn measure_workload(
    w: Workload,
    args: &Args,
    root: &Path,
    work: &Path,
    out_dir: &Path,
) -> Result<(Measurement, Option<Tracer>), String> {
    // The CLI is built on every run (a no-op once fresh), so whichever
    // workload runs first in a checkout pays the build.
    let cli_bin = cli::build_cli(root)?;
    let status = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["--workload", w.name(), "--seed", &args.seed.to_string(), "--stage"])
        .arg(work)
        .status()
        .map_err(|e| format!("cannot start the staging process: {e}"))?;
    if !status.success() {
        return Err(format!("staging failed ({status})"));
    }
    let staging = Staging::at(work, w);
    let queries = w.queries(args.seed);
    let expected = oracle::load_expected(&staging.expected, &queries)?;
    let desc = staging.descriptor()?;
    let tracer = args.trace.then(Tracer::default);
    let total = Duration::from_secs(args.seconds);
    // A traced run splits its window: the first half untraced, the
    // second traced, and reports the difference as tracing overhead.
    // An untraced run reports a p90, so on a host slow enough that
    // `--seconds` holds too few queries for one, its window runs on
    // until it has enough (within MAX_WINDOW) instead of failing.
    let plain = if args.trace {
        Span::fixed(total / 2)
    } else {
        Span { dur: total, min_queries: stats::MIN_QUERIES_FOR_P90, cap: total.max(MAX_WINDOW) }
    };
    let traced = Span::fixed(total - plain.dur);
    let mut m = Measurement::default();

    if w == Workload::ExportCsv {
        let desc_path = staging.data.join("ipars.desc");
        let cli =
            cli::Cli { bin: &cli_bin, desc_path: &desc_path, base: &staging.data, out_dir: work };
        cli::setup(&cli, &queries, &expected, &mut m);
        let mut peak = 0.0;
        m.plain = cli::window(&cli, &queries, &expected, plain, None, &mut peak);
        m.peak_rss_mb = peak;
        if let Some(tr) = &tracer {
            m.traced = Some(cli::window(&cli, &queries, &expected, traced, Some(tr), &mut peak));
            let windows: Vec<_> =
                [Some(&m.plain), m.traced.as_ref()].into_iter().flatten().collect();
            for (name, value) in cli::cli_layers(&cli, &queries, &windows, tr)? {
                m.extra.insert(name, value);
            }
            // The CLI prints its counters only as text, so replay each
            // distinct query in this process on a fresh virtualizer —
            // cold, like the CLI's own — to read its QueryStats.
            for (q, (query, exp)) in queries.iter().zip(&expected).enumerate() {
                let v = tr.span("setup.build", None, 0, |_| inproc::build(&desc, &staging.data))?;
                let qid = q as u64 + 1;
                let bounds = inproc::layer_calls(&v, query, tr, None, qid);
                let result = tr.span("service.execute", None, qid, |_| inproc::execute(&v, query));
                let (outcome, stats) = inproc::check(result, exp);
                m.replay.push(measure::QueryRecord {
                    query: q,
                    latency_ms: 0.0,
                    outcome,
                    stats,
                    bounds,
                });
            }
        }
    } else {
        let ctx = inproc::Ctx {
            desc: &desc,
            base: &staging.data,
            queries: &queries,
            expected: &expected,
            clients: w.clients(),
            warmup_len: w.warmup_len(),
        };
        let v = inproc::setup(&ctx, &mut m)?;
        // Memory is the timed window's: the earlier set-up repetitions
        // each built a virtualizer a user builds once.
        host::reset_peak_rss();
        m.plain = inproc::window(&v, &ctx, plain, None);
        m.peak_rss_mb = host::peak_rss_mb();
        if let Some(tr) = &tracer {
            m.traced = Some(inproc::window(&v, &ctx, traced, Some(tr)));
            drop(v);
            let desc_path = staging.data.join("ipars.desc");
            let cli = cli::Cli {
                bin: &cli_bin,
                desc_path: &desc_path,
                base: &staging.data,
                out_dir: work,
            };
            for (name, value) in cli::cli_layers(&cli, &queries, &[], tr)? {
                m.extra.insert(name, value);
            }
        }
    }
    if m.plain.seconds > plain.dur.as_secs_f64() + 1.0 {
        eprintln!(
            "dvperf: window extended to {:.1} s to time {} queries",
            m.plain.seconds,
            m.plain.records.len()
        );
    }
    if let Some(tr) = &tracer {
        inproc::compile_layers(&desc, &staging.data, tr)?;
        m.extra.insert(
            "descriptor.codec.decode_mb_per_s",
            inproc::decode_rate(&desc, &staging.data, tr)?,
        );
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        tr.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("dvperf: spans written to {}", path.display());
    }
    guards(w, &m, &expected)?;
    Ok((m, tracer))
}

/// Workload-intent guards: fail the run when a change to the cache
/// size, the data generator or the program turns one workload into
/// another.
fn guards(w: Workload, m: &Measurement, expected: &[oracle::Expected]) -> Result<(), String> {
    let stats: Vec<&dv_core::QueryStats> =
        m.all_records().filter_map(|r| r.stats.as_ref()).collect();
    let hit = layers::cache_hit_frac(&stats);
    let broken = match w {
        Workload::InteractiveMix if hit < 0.99 => {
            Some(format!("cache_hit_frac {hit:.4} < 0.99 after warm-up"))
        }
        Workload::ScanLarge | Workload::ScanZstd if hit > 0.10 => {
            Some(format!("cache_hit_frac {hit:.4} > 0.10"))
        }
        Workload::ScanZstd if layers::decode_calls_per_query(&stats) <= 0.0 => {
            Some("no codec decode calls on zstd data".to_string())
        }
        Workload::ExportCsv => {
            expected.iter().find(|e| !workload::EXPORT_ROWS.contains(&e.checksum.rows)).map(|e| {
                format!(
                    "an export returns {} rows, outside {:?}",
                    e.checksum.rows,
                    workload::EXPORT_ROWS
                )
            })
        }
        _ => None,
    };
    match broken {
        Some(why) => Err(format!("workload-intent guard broken on {}: {why}", w.name())),
        None => Ok(()),
    }
}

/// Print the metrics, the host diagnostics and the final JSON line, and
/// append the run's record.
fn report(
    w: Workload,
    args: &Args,
    m: &Measurement,
    tracer: Option<&Tracer>,
    diag: &HostDiag,
    out_dir: &Path,
) -> Result<(), String> {
    let (metrics, notes): (Vec<Metric>, Vec<String>) = match tracer {
        Some(tr) => layers::per_layer(m, tr),
        None => (measure::end_to_end(m)?, Vec::new()),
    };
    let mut records = m.plain.records.len();
    let mut failed = m.plain.failed();
    if let Some(t) = &m.traced {
        records += t.records.len();
        failed += t.failed();
    }
    let replay_failed = m.replay.iter().filter(|r| r.outcome != Outcome::Ok).count();
    let correct = failed == 0 && m.warmup_failures == 0 && replay_failed == 0;

    for note in &notes {
        eprintln!("dvperf: unmeasured {note}");
    }
    let host_json = format!(
        "{{\"calib_start_ms\": {}, \"calib_end_ms\": {}, \"steal_frac\": {}, \"nproc\": {}, \
         \"commit\": \"{}\"}}",
        diag.calib_start_ms, diag.calib_end_ms, diag.steal_frac, diag.nproc, diag.commit
    );
    println!("host\t{host_json}");
    println!(
        "queries\t{} attempted in {:.2} s untraced{}",
        m.plain.records.len(),
        m.plain.seconds,
        m.traced.as_ref().map_or(String::new(), |t| format!(", {} traced", t.records.len()))
    );
    for (name, value, unit) in &metrics {
        println!("metric\t{name}\t{value}\t{unit}");
    }
    println!("summary\t{correct}\t{records}\t{failed}");

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {records}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    let mut record = String::new();
    let _ = writeln!(
        record,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host_json}, \
         \"result\": {result}}}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    let runs = out_dir.join("runs.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&runs)
        .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()))
        .map_err(|e| format!("{}: {e}", runs.display()))?;
    println!("{result}");
    Ok(())
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
