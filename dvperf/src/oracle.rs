//! The correctness oracle: stage a seed's dataset, run every distinct
//! query through the hand-written L0 extractor (`dv_handwritten`),
//! which shares no code with the engine's planner or executor, and keep
//! an order-independent checksum of each result. Engine tables and CSV
//! exports are checksummed the same way and compared.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use dv_datagen::{ipars, IparsLayout};
use dv_handwritten::HandIparsL0;
use dv_sql::UdfRegistry;
use dv_types::{DataType, Table, Value};

use crate::host::splitmix;
use crate::workload::Workload;

/// Order-independent digest of a result: row count plus the wrapping
/// sum of per-row hashes over every value's type and bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checksum {
    /// Rows in the result.
    pub rows: u64,
    /// Wrapping sum of row hashes.
    pub sum: u64,
}

impl Checksum {
    fn add_row<'a>(&mut self, row: impl IntoIterator<Item = &'a Value>) {
        let mut h = 0x243F_6A88_85A3_08D3u64;
        for v in row {
            h = splitmix(h.rotate_left(7) ^ value_bits(v));
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    /// Digest of an engine or oracle table.
    pub fn of_table(table: &Table) -> Checksum {
        let mut c = Checksum::default();
        for row in &table.rows {
            c.add_row(row.iter());
        }
        c
    }
}

/// A value's bits with its type folded in, so `Float(x)` and
/// `Double(x)` never collide.
fn value_bits(v: &Value) -> u64 {
    let (tag, bits) = match *v {
        Value::Char(x) => (1u64, x as u64),
        Value::Short(x) => (2, x as i64 as u64),
        Value::Int(x) => (3, x as i64 as u64),
        Value::Long(x) => (4, x as u64),
        Value::Float(x) => (5, x.to_bits() as u64),
        Value::Double(x) => (6, x.to_bits()),
    };
    bits ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn type_code(t: DataType) -> char {
    match t {
        DataType::Char => 'c',
        DataType::Short => 's',
        DataType::Int => 'i',
        DataType::Long => 'l',
        DataType::Float => 'f',
        DataType::Double => 'd',
    }
}

fn parse_cell(code: u8, cell: &str) -> Option<Value> {
    Some(match code {
        b'c' => Value::Char(cell.parse().ok()?),
        b's' => Value::Short(cell.parse().ok()?),
        b'i' => Value::Int(cell.parse().ok()?),
        b'l' => Value::Long(cell.parse().ok()?),
        b'f' => Value::Float(cell.parse().ok()?),
        b'd' => Value::Double(cell.parse().ok()?),
        _ => return None,
    })
}

/// Parse a `datavirt query --format csv` export back into typed rows
/// (one type code per column) and checksum it.
pub fn csv_checksum(text: &str, types: &str) -> Result<Checksum, String> {
    let codes = types.as_bytes();
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty CSV export")?;
    if header.split(',').count() != codes.len() {
        return Err(format!("CSV header `{header}` does not have {} columns", codes.len()));
    }
    let mut c = Checksum::default();
    let mut row = Vec::with_capacity(codes.len());
    for (n, line) in lines.enumerate() {
        row.clear();
        for (i, cell) in line.split(',').enumerate() {
            let code = *codes.get(i).ok_or_else(|| format!("CSV line {} is too wide", n + 2))?;
            row.push(
                parse_cell(code, cell)
                    .ok_or_else(|| format!("CSV line {}: bad cell `{cell}`", n + 2))?,
            );
        }
        if row.len() != codes.len() {
            return Err(format!("CSV line {} is too narrow", n + 2));
        }
        c.add_row(row.iter());
    }
    Ok(c)
}

/// What the oracle expects of one distinct query.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Digest of the oracle's result.
    pub checksum: Checksum,
    /// One type code per output column (for parsing CSV exports).
    pub types: String,
}

/// Where a staged run keeps its files.
pub struct Staging {
    /// Binary L0 dataset (the oracle's input; the program's too unless
    /// the workload uses another codec).
    pub binary: PathBuf,
    /// Dataset the program reads.
    pub data: PathBuf,
    /// Oracle results, one line per distinct query.
    pub expected: PathBuf,
}

impl Staging {
    /// Layout of a staging directory.
    pub fn at(work: &Path, workload: Workload) -> Staging {
        let binary = work.join("binary");
        let data = match workload.codec() {
            dv_descriptor::CodecKind::FixedBinary => binary.clone(),
            _ => work.join("encoded"),
        };
        Staging { binary, data, expected: work.join("expected.tsv") }
    }

    /// Descriptor text of the dataset the program reads.
    pub fn descriptor(&self) -> Result<String, String> {
        let path = self.data.join("ipars.desc");
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Generate the datasets of `workload` for `seed` under `work` and
/// write the oracle's expectations. Runs in its own process, so that
/// neither its memory nor its time shows in the measured process.
pub fn stage(workload: Workload, seed: u64, work: &Path) -> Result<(), String> {
    let s = Staging::at(work, workload);
    let cfg = workload.config(seed);
    let e = |e: dv_types::DvError| e.to_string();
    let desc = ipars::generate(&s.binary, &cfg, IparsLayout::L0).map_err(e)?;
    write(&s.binary.join("ipars.desc"), &desc)?;
    if s.data != s.binary {
        let encoded = ipars::generate_with_codec(&s.data, &cfg, IparsLayout::L0, workload.codec())
            .map_err(e)?;
        write(&s.data.join("ipars.desc"), &encoded)?;
    }
    let schema = dv_descriptor::compile(&desc).map_err(e)?.schema;
    let udfs = UdfRegistry::with_builtins();
    let hand = HandIparsL0::new(s.binary.clone(), cfg, UdfRegistry::with_builtins());
    let mut out = String::new();
    for sql in workload.queries(seed) {
        let bq = dv_sql::bind(&dv_sql::parse(&sql).map_err(e)?, &schema, &udfs).map_err(e)?;
        let table = match bq.agg {
            Some(_) => hand.execute_agg(&bq).map_err(e)?,
            None => hand.execute(&bq).map_err(e)?.0,
        };
        let c = Checksum::of_table(&table);
        let types: String =
            bq.output_schema().attributes().iter().map(|a| type_code(a.dtype)).collect();
        let _ = writeln!(out, "{}\t{:016x}\t{types}\t{}", c.rows, c.sum, sql);
    }
    write(&s.expected, &out)?;
    // Flush the staged files now, so that their writeback does not land
    // inside a later timed window.
    sync_tree(work)
}

fn sync_tree(dir: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", dir.display());
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let path = entry.map_err(err)?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            std::fs::File::open(&path).and_then(|f| f.sync_all()).map_err(err)?;
        }
    }
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Read the oracle's expectations back, checking they were made for
/// exactly `queries`.
pub fn load_expected(path: &Path, queries: &[String]) -> Result<Vec<Expected>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != queries.len() {
        return Err(format!("oracle has {} results for {} queries", lines.len(), queries.len()));
    }
    lines
        .iter()
        .zip(queries)
        .map(|(line, q)| {
            let f: Vec<&str> = line.splitn(4, '\t').collect();
            let bad = || format!("malformed oracle line `{line}`");
            if f.len() != 4 || f[3] != q {
                return Err(bad());
            }
            Ok(Expected {
                checksum: Checksum {
                    rows: f[0].parse().map_err(|_| bad())?,
                    sum: u64::from_str_radix(f[1], 16).map_err(|_| bad())?,
                },
                types: f[2].to_string(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_types::{Attribute, Schema};

    fn table(rows: Vec<Vec<Value>>) -> Table {
        let schema = Schema::new(
            "t",
            vec![Attribute::new("A", DataType::Short), Attribute::new("B", DataType::Float)],
        )
        .unwrap();
        Table { schema, rows }
    }

    #[test]
    fn checksum_ignores_row_order_but_not_values() {
        let a = table(vec![
            vec![Value::Short(1), Value::Float(0.5)],
            vec![Value::Short(2), Value::Float(-0.0)],
        ]);
        let mut b = a.clone();
        b.rows.reverse();
        assert_eq!(Checksum::of_table(&a), Checksum::of_table(&b));
        let mut c = a.clone();
        c.rows[1][1] = Value::Float(0.0);
        assert_ne!(Checksum::of_table(&a), Checksum::of_table(&c));
    }

    #[test]
    fn csv_export_round_trips_to_the_same_checksum() {
        let t = table(vec![
            vec![Value::Short(-3), Value::Float(0.1)],
            vec![Value::Short(7), Value::Float(f32::NAN)],
            vec![Value::Short(0), Value::Float(1.0e-7)],
        ]);
        let mut text = String::from("A,B\n");
        for r in &t.rows {
            let _ = writeln!(text, "{},{}", r[0], r[1]);
        }
        assert_eq!(csv_checksum(&text, "sf"), Ok(Checksum::of_table(&t)));
        assert!(csv_checksum("A,B\n1\n", "sf").is_err());
        assert!(csv_checksum("A,B\n1,x\n", "sf").is_err());
        assert!(csv_checksum("", "sf").is_err());
    }
}
