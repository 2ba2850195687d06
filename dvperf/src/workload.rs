//! The four workloads: their datasets, client counts and seeded query
//! streams. Every size here is fixed; the seed picks only data values
//! and query parameters, so two seeds cost the same to run.

use dv_datagen::IparsConfig;
use dv_descriptor::CodecKind;

use crate::host::splitmix;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two in-process clients; small Fig. 8 subsets served from a warm
    /// segment cache.
    InteractiveMix,
    /// One in-process client; full-width scans and aggregates that cycle
    /// through a table about twice the segment cache.
    ScanLarge,
    /// One client running `datavirt query --format csv` per query,
    /// output to a file.
    ExportCsv,
    /// As `ScanLarge`, on zstd-encoded files.
    ScanZstd,
}

/// Grid points per directory of the small table: 4 realizations × 50
/// time steps × 4 directories × 500 points = 400 000 rows, about 27 MB
/// of variable files, under half the default 64 MiB segment cache.
const SMALL_GRID: usize = 500;

/// Directories of the large table, four per node.
const LARGE_DIRS: usize = 16;

/// Grid points per directory of the large table: 4 realizations × 50
/// time steps × 16 directories × 500 points = 1 600 000 rows, about
/// 125 000 KiB of full-width reads, 1.9× the segment cache.
const LARGE_GRID: usize = 500;

/// Realizations of the large table; each scan reads one of them.
const LARGE_RELS: usize = 4;

/// Distinct queries in the interactive stream (eight per shape).
const MIX_DISTINCT: usize = 40;

/// Distinct queries in each scan stream: one scan per realization,
/// then one aggregate.
const SCAN_DISTINCT: usize = LARGE_RELS + 1;

/// Distinct queries in the export stream.
const EXPORT_DISTINCT: usize = 15;

/// Export window lengths in time steps: 10 000 to 14 000 rows each. An
/// odd number of equally common sizes puts the median inside the
/// middle size rather than on the edge between two.
const EXPORT_STEPS: [usize; 3] = [5, 6, 7];

/// Row range every export result must stay within.
pub const EXPORT_ROWS: std::ops::RangeInclusive<u64> = 10_000..=100_000;

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] =
        [Workload::InteractiveMix, Workload::ScanLarge, Workload::ExportCsv, Workload::ScanZstd];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InteractiveMix => "interactive_mix",
            Workload::ScanLarge => "scan_large",
            Workload::ExportCsv => "export_csv",
            Workload::ScanZstd => "scan_zstd",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generator configuration for `seed`.
    pub fn config(self, seed: u64) -> IparsConfig {
        let (dirs, grid_per_dir) = match self {
            Workload::InteractiveMix | Workload::ExportCsv => (4, SMALL_GRID),
            Workload::ScanLarge | Workload::ScanZstd => (LARGE_DIRS, LARGE_GRID),
        };
        IparsConfig {
            realizations: 4,
            time_steps: 50,
            grid_per_dir,
            dirs,
            nodes: 4,
            seed: splitmix(seed ^ 0xDA7A),
        }
    }

    /// Encoding of the files the program reads. The oracle always reads
    /// the binary staging of the same seed.
    pub fn codec(self) -> CodecKind {
        match self {
            Workload::ScanZstd => CodecKind::ZstdSegment,
            _ => CodecKind::FixedBinary,
        }
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        match self {
            Workload::InteractiveMix => {
                std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
            }
            _ => 1,
        }
    }

    /// Queries of the untimed warm-up pass, from the stream's start.
    /// The interactive pass runs every distinct query once, so its
    /// window finds all its bytes in the segment cache; the others run
    /// one query, which finishes the program's lazy set-up (no pass
    /// could leave the next scan's bytes cached).
    pub fn warmup_len(self) -> usize {
        match self {
            Workload::InteractiveMix => MIX_DISTINCT,
            Workload::ScanLarge | Workload::ScanZstd | Workload::ExportCsv => 1,
        }
    }

    /// The distinct queries of the stream for `seed`; clients cycle
    /// through them in order.
    pub fn queries(self, seed: u64) -> Vec<String> {
        let mut rng = Rng(splitmix(seed ^ 0x0051_0E57));
        match self {
            Workload::InteractiveMix => (0..MIX_DISTINCT).map(|k| mix_query(k, &mut rng)).collect(),
            Workload::ScanLarge | Workload::ScanZstd => {
                let mut rels: Vec<u64> = (0..LARGE_RELS as u64).collect();
                for i in (1..rels.len()).rev() {
                    rels.swap(i, rng.range(0, i as u64) as usize);
                }
                (0..SCAN_DISTINCT).map(|k| scan_query(k, &mut rng, &rels)).collect()
            }
            Workload::ExportCsv => {
                (0..EXPORT_DISTINCT).map(|k| export_query(k, &mut rng)).collect()
            }
        }
    }
}

/// Small deterministic generator for query parameters.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix(self.0);
        self.0
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.next() as usize % items.len()]
    }
}

/// Fig. 8 shapes 2–4, a `(REL, TIME)` point subset and a small
/// `GROUP BY`, in rotation; each scans 2000–16 000 rows and returns
/// 10²–10⁴, so no shape dominates the latency tail.
fn mix_query(k: usize, rng: &mut Rng) -> String {
    let t = rng.range(1, 49);
    match k % 5 {
        // 4 realizations × 1 step × 2000 points = 8000 rows.
        0 => format!("SELECT * FROM IparsData WHERE TIME >= {t} AND TIME < {}", t + 1),
        // 16 000 rows scanned, about 30 % kept.
        1 => format!(
            "SELECT * FROM IparsData WHERE TIME >= {t} AND TIME <= {} AND SOIL > 0.7",
            t + 1
        ),
        // 16 000 rows scanned, about 11 % inside the speed sphere.
        2 => format!(
            "SELECT * FROM IparsData WHERE TIME >= {t} AND TIME <= {} AND \
             SPEED(OILVX, OILVY, OILVZ) < 30.0",
            t + 1
        ),
        // One realization at one step: 2000 rows.
        3 => format!("SELECT * FROM IparsData WHERE REL = {} AND TIME = {t}", rng.range(0, 3)),
        // 4 realizations × 50 X values = 200 groups over the 8000 rows
        // of one step.
        _ => format!(
            "SELECT REL, X, COUNT(*), MIN(SOIL), MAX(PGAS), AVG(SWAT) FROM IparsData \
             WHERE TIME = {t} GROUP BY REL, X"
        ),
    }
}

/// Saturations and concentrations are uniform in `[0, 1)`.
const UNIT_VARS: [&str; 5] = ["SOIL", "SGAS", "SWAT", "COIL", "CGAS"];

/// The per-cell variables aggregates draw their columns from.
const VARIABLES: [&str; 17] = [
    "SOIL", "SGAS", "SWAT", "OILVX", "OILVY", "OILVZ", "GASVX", "GASVY", "GASVZ", "WATVX", "WATVY",
    "WATVZ", "POIL", "PGAS", "PWAT", "COIL", "CGAS",
];

/// Full-width predicate scans of one realization each, cycling through
/// all four, that keep about 0.15 % of the realization's 400 000 rows
/// (about 600), then a `GROUP BY REL, TIME` aggregate of one variable
/// over every row (200 groups). A realization is 0.48× the segment
/// cache and a cycle touches 1.9×, so by the time the stream comes back
/// to a realization LRU order has evicted it: every scan misses.
fn scan_query(k: usize, rng: &mut Rng, rels: &[u64]) -> String {
    match rels.get(k) {
        Some(rel) => {
            let var = rng.pick(&UNIT_VARS);
            let threshold = 0.9984 + 0.0002 * rng.unit();
            format!("SELECT * FROM IparsData WHERE REL = {rel} AND {var} > {threshold:.6}")
        }
        None => {
            let var = rng.pick(&VARIABLES);
            format!(
                "SELECT REL, TIME, COUNT(*), MIN({var}), MAX({var}), AVG({var}) \
                 FROM IparsData GROUP BY REL, TIME"
            )
        }
    }
}

/// One realization over a 5–7 step window: 10 000–14 000 rows.
fn export_query(k: usize, rng: &mut Rng) -> String {
    let steps = EXPORT_STEPS[k % EXPORT_STEPS.len()];
    let rel = rng.range(0, 3);
    let t = rng.range(1, (51 - steps) as u64);
    format!(
        "SELECT * FROM IparsData WHERE REL = {rel} AND TIME >= {t} AND TIME <= {}",
        t + steps as u64 - 1
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows one `(REL, TIME)` pair holds in the small table.
    const SMALL_SLAB_ROWS: usize = 4 * SMALL_GRID;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = w.queries(7);
            let b = w.queries(7);
            let c = w.queries(8);
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
            assert!(w.warmup_len() <= a.len());
            for sql in &a {
                dv_sql::parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            }
        }
    }

    #[test]
    fn export_windows_stay_in_the_stated_row_range() {
        for steps in EXPORT_STEPS {
            assert!(EXPORT_ROWS.contains(&((steps * SMALL_SLAB_ROWS) as u64)));
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
