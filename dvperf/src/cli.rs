//! The export workload: one client running `datavirt query --format
//! csv` as a child process per query, output written to a file.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::host::{wait_with_usage, ChildUsage};
use crate::measure::{Measurement, QueryRecord, Span, Window};
use crate::oracle::{csv_checksum, Expected};
use crate::stats::{self, Outcome};
use crate::trace::{traced, Tracer};

/// Build the `datavirt` binary from the checkout at `root` (a no-op
/// when it is up to date) and return its path.
pub fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet", "-p", "dv-cli", "--bin", "datavirt"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building datavirt failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    Ok(root.join(target).join("release").join("datavirt"))
}

/// The CLI invocation shared by every export.
pub struct Cli<'a> {
    /// `datavirt` binary.
    pub bin: &'a Path,
    /// Descriptor file of the staged dataset.
    pub desc_path: &'a Path,
    /// Storage base of the staged dataset.
    pub base: &'a Path,
    /// Where exports and the children's stderr go.
    pub out_dir: &'a Path,
}

/// One finished CLI child.
pub struct Export {
    /// Spawn until exit, in ms.
    pub wall_ms: f64,
    /// What `wait4` reported.
    pub usage: ChildUsage,
}

impl Cli<'_> {
    /// Run `sql` with its CSV output going to `out`; with `limit`, the
    /// CLI materializes every row but prints only that many.
    pub fn export(&self, sql: &str, out: &Path, limit: Option<usize>) -> Result<Export, String> {
        let io = |e: std::io::Error| format!("{}: {e}", out.display());
        let stdout = File::create(out).map_err(io)?;
        let stderr = File::options()
            .create(true)
            .append(true)
            .open(self.out_dir.join("cli-stderr.txt"))
            .map_err(io)?;
        let mut cmd = Command::new(self.bin);
        cmd.arg("query").arg(self.desc_path).arg("--base").arg(self.base).args(["--format", "csv"]);
        if let Some(n) = limit {
            cmd.args(["--limit", &n.to_string()]);
        }
        let t = Instant::now();
        let child = cmd
            .arg(sql)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.bin.display()))?;
        let usage = wait_with_usage(child).map_err(|e| format!("waiting for datavirt: {e}"))?;
        Ok(Export { wall_ms: t.elapsed().as_secs_f64() * 1e3, usage })
    }
}

/// Check one export file against the oracle, then delete it.
fn verify(path: &Path, usage: &ChildUsage, expected: &Expected) -> Outcome {
    let outcome = match (usage.exit_code, std::fs::read_to_string(path)) {
        (Some(0), Ok(text)) => match csv_checksum(&text, &expected.types) {
            Ok(c) if c == expected.checksum => Outcome::Ok,
            _ => Outcome::Mismatch,
        },
        _ => Outcome::Error,
    };
    let _ = std::fs::remove_file(path);
    outcome
}

/// Time [`crate::inproc::SETUP_REPS`] first invocations (query 0).
pub fn setup(cli: &Cli, queries: &[String], expected: &[Expected], m: &mut Measurement) {
    for rep in 0..crate::inproc::SETUP_REPS {
        let out = cli.out_dir.join(format!("setup-{rep}.csv"));
        match cli.export(&queries[0], &out, None) {
            Ok(e) => {
                if verify(&out, &e.usage, &expected[0]) != Outcome::Ok {
                    m.warmup_failures += 1;
                }
                m.setup_s.push(e.wall_ms / 1e3);
                m.warmup_ms.push(e.wall_ms);
            }
            Err(_) => m.warmup_failures += 1,
        }
    }
}

/// The closed export loop for `span`: spawn, wait for exit, then read
/// the export back, check it and delete it. The window's clock stops
/// while the benchmark checks a file, so `span` and the window time count
/// only the program's work; deleting each export at once also keeps the
/// writeback of hundreds of megabytes of dirty pages out of later runs.
pub fn window(
    cli: &Cli,
    queries: &[String],
    expected: &[Expected],
    span: Span,
    tracer: Option<&Tracer>,
    peak_rss_mb: &mut f64,
) -> Window {
    let mut clock = Duration::ZERO;
    let mut cpu = Duration::ZERO;
    let mut records = Vec::new();
    let mut i = 0;
    while !span.done(clock, i) {
        let q = i % queries.len();
        let out = cli.out_dir.join(format!("export-{i}.csv"));
        let qid = i as u64 + 1;
        let t = Instant::now();
        let result =
            traced(tracer, "cli.process", None, qid, |_| cli.export(&queries[q], &out, None));
        clock += t.elapsed();
        let (latency_ms, outcome) = match result {
            Ok(e) => {
                cpu += e.usage.cpu;
                *peak_rss_mb = peak_rss_mb.max(e.usage.peak_rss_mb);
                let checked = traced(tracer, "bench.checksum", None, qid, |_| {
                    verify(&out, &e.usage, &expected[q])
                });
                (e.wall_ms, checked)
            }
            Err(_) => (0.0, Outcome::Error),
        };
        records.push(QueryRecord { query: q, latency_ms, outcome, stats: None, bounds: None });
        i += 1;
    }
    Window { records, seconds: clock.as_secs_f64(), cpu_ms: cpu.as_secs_f64() * 1e3 }
}

/// Per-layer figures of the CLI itself: process wall time, output rate,
/// and formatting time (full export minus the same query with
/// `--limit 1`, which materializes every row but prints one). The
/// export workload takes them from its timed windows; the in-process
/// workloads, whose windows hold no CLI run, from one untimed export of
/// each distinct query.
pub fn cli_layers(
    cli: &Cli,
    queries: &[String],
    windows: &[&Window],
    tr: &Tracer,
) -> Result<[(&'static str, f64); 3], String> {
    // Output size, full and `--limit 1` wall time of each distinct query.
    let mut bytes_of = Vec::with_capacity(queries.len());
    let mut probes = Vec::with_capacity(queries.len());
    let mut limited_ms = Vec::with_capacity(queries.len());
    for (q, query) in queries.iter().enumerate() {
        let out = cli.out_dir.join(format!("probe-{q}.csv"));
        let full = tr.span("cli.process", None, 0, |_| cli.export(query, &out, None))?;
        bytes_of.push(std::fs::metadata(&out).map_or(0, |m| m.len()));
        let limited =
            tr.span("cli.process_limit1", None, 0, |_| cli.export(query, &out, Some(1)))?;
        let _ = std::fs::remove_file(&out);
        if full.usage.exit_code != Some(0) || limited.usage.exit_code != Some(0) {
            return Err(format!("datavirt failed on `{query}`; see cli-stderr.txt"));
        }
        probes.push(QueryRecord {
            query: q,
            latency_ms: full.wall_ms,
            outcome: Outcome::Ok,
            stats: None,
            bounds: None,
        });
        limited_ms.push(limited.wall_ms);
    }
    let mut records: Vec<&QueryRecord> = windows.iter().flat_map(|w| w.records.iter()).collect();
    if records.is_empty() {
        records = probes.iter().collect();
    }
    let walls: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    let format_ms: Vec<f64> = (0..queries.len())
        .filter_map(|q| {
            let full: Vec<f64> =
                records.iter().filter(|r| r.query == q).map(|r| r.latency_ms).collect();
            Some(stats::median(&full)? - limited_ms[q])
        })
        .collect();
    let out_mib: f64 =
        records.iter().map(|r| bytes_of[r.query] as f64).sum::<f64>() / (1024.0 * 1024.0);
    let wall_s: f64 = walls.iter().sum::<f64>() / 1e3;
    Ok([
        ("cli.process_ms", stats::median(&walls).unwrap_or(0.0)),
        ("cli.output_mb_per_s", stats::ratio(out_mib, wall_s)),
        ("cli.format_ms", stats::mean(&format_ms)),
    ])
}
