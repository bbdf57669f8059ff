//! Result checks: every operation's output is compared with a reference
//! computed before the timed phase.

use datablocks::{Column, ColumnData};
use exec::Batch;

/// Order-sensitive digest of a result, independent of how the rows are split
/// into batches. Equal digests mean byte-identical values (up to a 64-bit hash
/// collision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Result rows.
    pub rows: usize,
    /// Hash over every value, column by column, in row order.
    pub hash: u64,
}

/// Streaming digest builder (feed batches in result order).
#[derive(Debug, Clone, Default)]
pub struct Digester {
    rows: usize,
    columns: Vec<u64>,
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(23) ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

impl Digester {
    /// Fold in the next batch of the result.
    pub fn add(&mut self, batch: &Batch) {
        if self.columns.is_empty() {
            self.columns = vec![SEED; batch.column_count()];
        }
        assert_eq!(
            self.columns.len(),
            batch.column_count(),
            "batches of one result differ in width"
        );
        for (h, column) in self.columns.iter_mut().zip(batch.columns()) {
            *h = digest_column(*h, column);
        }
        self.rows += batch.len();
    }

    /// The digest of everything added so far.
    pub fn finish(&self) -> Digest {
        let hash = self
            .columns
            .iter()
            .fold(mix(SEED, self.columns.len() as u64), |h, &c| mix(h, c));
        Digest {
            rows: self.rows,
            hash,
        }
    }
}

fn digest_column(mut h: u64, column: &Column) -> u64 {
    let valid = |row: usize| !column.is_null(row);
    match &column.data {
        ColumnData::Int(values) => {
            for (row, &v) in values.iter().enumerate() {
                h = mix(h, if valid(row) { v as u64 } else { u64::MAX });
                h = mix(h, valid(row) as u64);
            }
        }
        ColumnData::Double(values) => {
            for (row, &v) in values.iter().enumerate() {
                h = mix(h, if valid(row) { v.to_bits() } else { u64::MAX });
                h = mix(h, valid(row) as u64);
            }
        }
        ColumnData::Str(values) => {
            for (row, v) in values.iter().enumerate() {
                h = mix(h, valid(row) as u64);
                h = mix(h, v.len() as u64);
                for chunk in v.as_bytes().chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    h = mix(h, u64::from_le_bytes(word));
                }
            }
        }
    }
    h
}

/// Digest of a whole result.
pub fn digest(batches: &[Batch]) -> Digest {
    let mut d = Digester::default();
    for batch in batches {
        d.add(batch);
    }
    d.finish()
}

/// What a result must equal.
#[derive(Debug, Clone)]
pub enum Expected {
    /// Byte-identical values in the same order.
    Exact(Digest),
    /// The same rows; doubles may differ by a relative [`CLOSE_REL_TOL`]
    /// (a parallel aggregation re-associates floating-point sums).
    Close(Batch),
}

/// Relative tolerance of [`Expected::Close`].
pub const CLOSE_REL_TOL: f64 = 1e-9;

impl Expected {
    /// Check an operation's result batches.
    pub fn check(&self, batches: &[Batch]) -> Result<(), String> {
        match self {
            Expected::Exact(want) => {
                let got = digest(batches);
                if got == *want {
                    Ok(())
                } else {
                    Err(format!(
                        "result differs: {} rows (digest {:016x}), expected {} rows (digest {:016x})",
                        got.rows, got.hash, want.rows, want.hash
                    ))
                }
            }
            Expected::Close(want) => {
                let mut got = Batch::new(&want.types());
                for batch in batches {
                    if batch.column_count() != want.column_count() {
                        return Err(format!(
                            "{} columns, expected {}",
                            batch.column_count(),
                            want.column_count()
                        ));
                    }
                    got.append(batch);
                }
                compare_close(want, &got)
            }
        }
    }
}

/// Compare two results row by row: equal row and column counts, doubles within
/// a relative [`CLOSE_REL_TOL`], every other value identical.
pub fn compare_close(expected: &Batch, actual: &Batch) -> Result<(), String> {
    if expected.len() != actual.len() {
        return Err(format!(
            "{} rows, expected {}",
            actual.len(),
            expected.len()
        ));
    }
    if expected.column_count() != actual.column_count() {
        return Err(format!(
            "{} columns, expected {}",
            actual.column_count(),
            expected.column_count()
        ));
    }
    for row in 0..expected.len() {
        for col in 0..expected.column_count() {
            let (e, a) = (expected.value(row, col), actual.value(row, col));
            let same = match (&e, &a) {
                (datablocks::Value::Double(x), datablocks::Value::Double(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() / scale <= CLOSE_REL_TOL
                }
                _ => e == a,
            };
            if !same {
                return Err(format!("row {row} col {col}: {a:?}, expected {e:?}"));
            }
        }
    }
    Ok(())
}
