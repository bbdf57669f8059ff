//! Seeded query parameters and operation order.
//!
//! The seed drives every substitution parameter and the order of operations;
//! the TPC-H and TPC-C data generators keep their own built-in seeds. Each
//! query class gets a small pool of variants: variant 0 of a TPC-H class is
//! the repository's checked-in text, the others substitute seeded TPC-H-style
//! parameters into it. Range selections draw their width from strata of the
//! class's selectivity band, so every seed covers the band evenly and per-class
//! medians do not depend on which widths a seed happens to draw.

use datablocks::{date_to_days, CmpOp, Restriction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use storage::Database;
use workloads::tpch::query_sql;

/// The TPC-H classes of `olap_mem`.
pub const OLAP_CLASSES: [&str; 5] = ["Q1", "Q3", "Q6", "Q12", "Q14"];

/// The classes of `scan_cold`: Q6 plus four bands of range selections.
pub const SCAN_CLASSES: [&str; 5] = ["Q6", "R1", "R2", "R3", "R4"];

/// Selectivity band (fraction of lineitem, before the optional quantity
/// filter) of each range-selection class.
const RANGE_BANDS: [(&str, f64, f64); 4] = [
    ("R1", 0.002, 0.006),
    ("R2", 0.006, 0.025),
    ("R3", 0.025, 0.08),
    ("R4", 0.08, 0.2),
];

/// Columns a range selection may return.
const RANGE_COLUMNS: [&str; 10] = [
    "l_orderkey",
    "l_partkey",
    "l_suppkey",
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_returnflag",
    "l_shipdate",
    "l_commitdate",
    "l_shipmode",
];

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// A pushed-down predicate of a leaf scan.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `column <= v`.
    Le(&'static str, i64),
    /// `column < v`.
    Lt(&'static str, i64),
    /// `column > v`.
    Gt(&'static str, i64),
    /// `column BETWEEN lo AND hi`.
    Between(&'static str, i64, i64),
    /// `column = 'v'`.
    EqStr(&'static str, &'static str),
}

/// One base-table scan of a query, with the predicates the planner pushes
/// into it (as in the golden plans under `crates/workloads/queries/plans`).
#[derive(Debug, Clone, PartialEq)]
pub struct LeafScan {
    /// Scanned relation.
    pub relation: &'static str,
    /// Projected columns.
    pub columns: Vec<&'static str>,
    /// Pushed-down predicates.
    pub preds: Vec<Pred>,
}

impl LeafScan {
    /// Column indices and restrictions against `db`'s schema.
    pub fn resolve(&self, db: &Database) -> (Vec<usize>, Vec<Restriction>) {
        let schema = db.relation(self.relation).schema();
        let projection = self.columns.iter().map(|c| schema.idx(c)).collect();
        let restrictions = self
            .preds
            .iter()
            .map(|pred| match *pred {
                Pred::Le(c, v) => Restriction::cmp(schema.idx(c), CmpOp::Le, v),
                Pred::Lt(c, v) => Restriction::cmp(schema.idx(c), CmpOp::Lt, v),
                Pred::Gt(c, v) => Restriction::cmp(schema.idx(c), CmpOp::Gt, v),
                Pred::Between(c, lo, hi) => Restriction::between(schema.idx(c), lo, hi),
                Pred::EqStr(c, v) => Restriction::eq(schema.idx(c), v),
            })
            .collect();
        (projection, restrictions)
    }
}

/// One query variant.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Class name (`Q1` … `Q14`, `R1` … `R4`).
    pub class: &'static str,
    /// SQL text sent to the server.
    pub sql: String,
    /// Is this the repository's checked-in text (checked against the
    /// hand-built operator trees of `workloads::tpch`)?
    pub checked_in: bool,
    /// The query's base-table scans.
    pub leaves: Vec<LeafScan>,
}

fn class_rng(seed: u64, class: &str) -> StdRng {
    let salt = class.bytes().fold(0x9E37_79B9_7F4A_7C15u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    StdRng::seed_from_u64(seed ^ salt)
}

/// Replace the single occurrence of `from` in `sql`.
fn substitute(sql: &str, from: &str, to: &str) -> String {
    assert_eq!(
        sql.matches(from).count(),
        1,
        "checked-in query text changed: {from:?} must occur exactly once"
    );
    sql.replacen(from, to, 1)
}

fn year_range(year: i32) -> (i64, i64) {
    (date_to_days(year, 1, 1), date_to_days(year + 1, 1, 1) - 1)
}

/// `count` variants of `class` for `seed`.
pub fn variants(class: &'static str, seed: u64, count: usize) -> Vec<QuerySpec> {
    let mut rng = class_rng(seed, class);
    (0..count)
        .map(|i| match class {
            "Q1" | "Q3" | "Q6" | "Q12" | "Q14" => tpch_variant(class, i == 0, &mut rng),
            _ => range_variant(class, i, count, &mut rng),
        })
        .collect()
}

/// Checked-in parameters, as they appear in `crates/workloads/queries/sql`.
const Q1_CUTOFF: i64 = 10471;
const Q3_DATE: i64 = 9204;
const Q6_YEAR: i32 = 1994;
const Q6_DISCOUNT: i64 = 6;
const Q6_QUANTITY: i64 = 24;
const Q12_YEAR: i32 = 1994;
const Q14_MONTH: (i32, u32) = (1995, 9);

fn tpch_variant(class: &'static str, checked_in: bool, rng: &mut StdRng) -> QuerySpec {
    let text = query_sql(class);
    let (sql, leaves) = match class {
        "Q1" => {
            let cutoff = if checked_in {
                Q1_CUTOFF
            } else {
                date_to_days(1998, 12, 1) - rng.gen_range(60..=120i64)
            };
            let sql = substitute(
                text,
                &format!("l_shipdate <= {Q1_CUTOFF}"),
                &format!("l_shipdate <= {cutoff}"),
            );
            let leaves = vec![LeafScan {
                relation: "lineitem",
                columns: vec![
                    "l_returnflag",
                    "l_linestatus",
                    "l_quantity",
                    "l_extendedprice",
                    "l_discount",
                    "l_tax",
                ],
                preds: vec![Pred::Le("l_shipdate", cutoff)],
            }];
            (sql, leaves)
        }
        "Q3" => {
            let (segment, date) = if checked_in {
                ("BUILDING", Q3_DATE)
            } else {
                (
                    SEGMENTS[rng.gen_range(0..SEGMENTS.len())],
                    date_to_days(1995, 3, 1) + rng.gen_range(0..=30i64),
                )
            };
            let sql = substitute(
                text,
                "c_mktsegment = 'BUILDING'",
                &format!("c_mktsegment = '{segment}'"),
            );
            let sql = substitute(
                &sql,
                &format!("o_orderdate < {Q3_DATE}"),
                &format!("o_orderdate < {date}"),
            );
            let sql = substitute(
                &sql,
                &format!("l_shipdate > {Q3_DATE}"),
                &format!("l_shipdate > {date}"),
            );
            let leaves = vec![
                LeafScan {
                    relation: "customer",
                    columns: vec!["c_custkey"],
                    preds: vec![Pred::EqStr("c_mktsegment", segment)],
                },
                LeafScan {
                    relation: "orders",
                    columns: vec!["o_orderdate", "o_shippriority", "o_custkey", "o_orderkey"],
                    preds: vec![Pred::Lt("o_orderdate", date)],
                },
                LeafScan {
                    relation: "lineitem",
                    columns: vec!["l_orderkey", "l_extendedprice", "l_discount"],
                    preds: vec![Pred::Gt("l_shipdate", date)],
                },
            ];
            (sql, leaves)
        }
        "Q6" => {
            let (year, discount, quantity) = if checked_in {
                (Q6_YEAR, Q6_DISCOUNT, Q6_QUANTITY)
            } else {
                (
                    rng.gen_range(1993..=1997),
                    rng.gen_range(2..=9i64),
                    rng.gen_range(24..=25i64),
                )
            };
            let (lo, hi) = year_range(year);
            let (ck_lo, ck_hi) = year_range(Q6_YEAR);
            let sql = substitute(
                text,
                &format!("l_shipdate BETWEEN {ck_lo} AND {ck_hi}"),
                &format!("l_shipdate BETWEEN {lo} AND {hi}"),
            );
            let sql = substitute(
                &sql,
                &format!(
                    "l_discount BETWEEN {} AND {}",
                    Q6_DISCOUNT - 1,
                    Q6_DISCOUNT + 1
                ),
                &format!("l_discount BETWEEN {} AND {}", discount - 1, discount + 1),
            );
            let sql = substitute(
                &sql,
                &format!("l_quantity < {Q6_QUANTITY}"),
                &format!("l_quantity < {quantity}"),
            );
            let leaves = vec![LeafScan {
                relation: "lineitem",
                columns: vec!["l_extendedprice", "l_discount"],
                preds: vec![
                    Pred::Between("l_shipdate", lo, hi),
                    Pred::Between("l_discount", discount - 1, discount + 1),
                    Pred::Lt("l_quantity", quantity),
                ],
            }];
            (sql, leaves)
        }
        "Q12" => {
            let (modes, year) = if checked_in {
                (["MAIL", "SHIP"], Q12_YEAR)
            } else {
                let first = rng.gen_range(0..SHIP_MODES.len());
                let second = (first + rng.gen_range(1..SHIP_MODES.len())) % SHIP_MODES.len();
                (
                    [SHIP_MODES[first], SHIP_MODES[second]],
                    rng.gen_range(1993..=1997),
                )
            };
            let (lo, hi) = year_range(year);
            let (ck_lo, ck_hi) = year_range(Q12_YEAR);
            let sql = substitute(
                text,
                "l_shipmode = 'MAIL' OR l_shipmode = 'SHIP'",
                &format!("l_shipmode = '{}' OR l_shipmode = '{}'", modes[0], modes[1]),
            );
            let sql = substitute(
                &sql,
                &format!("l_receiptdate BETWEEN {ck_lo} AND {ck_hi}"),
                &format!("l_receiptdate BETWEEN {lo} AND {hi}"),
            );
            let leaves = vec![
                LeafScan {
                    relation: "orders",
                    columns: vec!["o_orderpriority", "o_orderkey"],
                    preds: vec![],
                },
                LeafScan {
                    relation: "lineitem",
                    columns: vec![
                        "l_shipmode",
                        "l_orderkey",
                        "l_commitdate",
                        "l_receiptdate",
                        "l_shipdate",
                    ],
                    preds: vec![Pred::Between("l_receiptdate", lo, hi)],
                },
            ];
            (sql, leaves)
        }
        "Q14" => {
            let (year, month) = if checked_in {
                Q14_MONTH
            } else {
                (rng.gen_range(1993..=1997), rng.gen_range(1..=12u32))
            };
            let month_range = |(y, m): (i32, u32)| {
                let next = if m == 12 { (y + 1, 1) } else { (y, m + 1) };
                (date_to_days(y, m, 1), date_to_days(next.0, next.1, 1) - 1)
            };
            let (lo, hi) = month_range((year, month));
            let (ck_lo, ck_hi) = month_range(Q14_MONTH);
            let sql = substitute(
                text,
                &format!("l_shipdate BETWEEN {ck_lo} AND {ck_hi}"),
                &format!("l_shipdate BETWEEN {lo} AND {hi}"),
            );
            let leaves = vec![
                LeafScan {
                    relation: "part",
                    columns: vec!["p_type", "p_partkey"],
                    preds: vec![],
                },
                LeafScan {
                    relation: "lineitem",
                    columns: vec!["l_extendedprice", "l_discount", "l_partkey"],
                    preds: vec![Pred::Between("l_shipdate", lo, hi)],
                },
            ];
            (sql, leaves)
        }
        other => panic!("{other} is not a TPC-H class"),
    };
    QuerySpec {
        class,
        sql,
        checked_in,
        leaves,
    }
}

/// Variant `i` of `count` of a range-selection class: the selectivity is drawn
/// log-uniformly from stratum `i` of the class's band; odd variants add a
/// quantity filter.
fn range_variant(class: &'static str, i: usize, count: usize, rng: &mut StdRng) -> QuerySpec {
    let &(_, lo_sel, hi_sel) = RANGE_BANDS
        .iter()
        .find(|(name, _, _)| *name == class)
        .unwrap_or_else(|| panic!("unknown query class {class}"));
    // Ship dates are spread evenly over 1992-05-02 … 1998-08-01 (the generator
    // ramps up and down over 121 days at either end of its range).
    let (ship_lo, ship_hi) = (date_to_days(1992, 5, 2), date_to_days(1998, 8, 1));
    let span = (ship_hi - ship_lo) as f64;
    let u = (i as f64 + rng.gen_range(0.0..1.0)) / count as f64;
    let selectivity = lo_sel * (hi_sel / lo_sel).powf(u);
    let width = ((selectivity * span).round() as i64).max(1);
    let start = rng.gen_range(ship_lo..=ship_hi - width);
    let end = start + width - 1;

    let mut pool = RANGE_COLUMNS.to_vec();
    let ncols = rng.gen_range(2..=4usize);
    for k in 0..ncols {
        let pick = rng.gen_range(k..pool.len());
        pool.swap(k, pick);
    }
    let columns: Vec<&'static str> = pool[..ncols].to_vec();

    let mut preds = vec![Pred::Between("l_shipdate", start, end)];
    let mut sql = format!(
        "SELECT {} FROM lineitem WHERE l_shipdate BETWEEN {start} AND {end}",
        columns.join(", ")
    );
    if i % 2 == 1 {
        let quantity = rng.gen_range(25..=50i64);
        preds.push(Pred::Lt("l_quantity", quantity));
        sql.push_str(&format!(" AND l_quantity < {quantity}"));
    }
    QuerySpec {
        class,
        sql,
        checked_in: false,
        leaves: vec![LeafScan {
            relation: "lineitem",
            columns,
            preds,
        }],
    }
}

/// A seeded operation order over `classes × variants`, in rounds. A round
/// runs every class once, in a shuffled order; each class takes its next
/// variant from its own shuffled deck, so every `variants` rounds cover each
/// (class, variant) pair exactly once. Loops stop only at a round boundary,
/// which keeps the class mix of every run exact.
pub struct OpOrder {
    rng: StdRng,
    /// Per class, the variants still to run in the current deck.
    decks: Vec<Vec<usize>>,
    variants: usize,
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for k in (1..items.len()).rev() {
        items.swap(k, rng.gen_range(0..=k));
    }
}

impl OpOrder {
    /// The order for `seed`; `stream` separates concurrent clients.
    pub fn new(seed: u64, stream: u64, classes: usize, variants: usize) -> OpOrder {
        OpOrder {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ stream),
            decks: vec![Vec::new(); classes],
            variants,
        }
    }

    /// The next round: one (class, variant) pair per class.
    pub fn next_round(&mut self) -> Vec<(usize, usize)> {
        let mut classes: Vec<usize> = (0..self.decks.len()).collect();
        shuffle(&mut self.rng, &mut classes);
        classes
            .into_iter()
            .map(|class| {
                if self.decks[class].is_empty() {
                    let mut deck: Vec<usize> = (0..self.variants).collect();
                    shuffle(&mut self.rng, &mut deck);
                    self.decks[class] = deck;
                }
                let variant = self.decks[class].pop().expect("deck refilled above");
                (class, variant)
            })
            .collect()
    }
}
