//! `oltp_hybrid`: TPC-C with 2 warehouses through `TpccDb` on one thread.
//!
//! Set-up generates the data, preloads order history with new-order
//! transactions and freezes the full neworder/orderline chunks. The closed
//! loop then mixes hot-tier writes (new_order), hot point reads
//! (order_status), SARG scans of the hot stock relation (stock_level) and
//! primary-key reads of frozen order history (order_lookup). Whenever
//! orderline has filled a hot chunk the loop freezes it, so freezes recur
//! about every eight thousand operations and show in the latency tail.

use std::time::Instant;

use datablocks::{CmpOp, Restriction, Value};
use exec::{RelationScanner, ScanConfig, ScanStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::tpcc::STOCK_PER_WAREHOUSE;
use workloads::TpccDb;

use crate::stats::mean;
use crate::tpch_bench::{finish_trace, set_io_metrics};
use crate::trace::Tracer;
use crate::{
    class_median_delta, cpu_ticks, footprint, latencies_by_class, ms, per_call_us, rss_mib,
    set_end_to_end, steal_share, Measured, Op, Outcome, RunArgs,
};

/// The operation classes behind `class1_ms` … `class5_ms`.
pub const CLASSES: [&str; 5] = [
    "new_order",
    "order_status",
    "stock_level",
    "order_lookup",
    "freeze",
];
const NEW_ORDER: usize = 0;
const ORDER_STATUS: usize = 1;
const STOCK_LEVEL: usize = 2;
const ORDER_LOOKUP: usize = 3;
const FREEZE: usize = 4;

/// Share of each transaction class, in percent (freezes are triggered by
/// state, not drawn).
const MIX: [(usize, u32); 4] = [
    (NEW_ORDER, 75),
    (ORDER_STATUS, 10),
    (STOCK_LEVEL, 10),
    (ORDER_LOOKUP, 5),
];

const WAREHOUSES: i64 = 2;
/// New orders run at set-up: more than one neworder chunk, so part of the
/// history is frozen before the timed phase.
const PRELOAD_ORDERS: usize = 70_000;
/// Set-ups per untraced run; `setup_s` is their median, as on the TPC-H
/// workloads.
const SETUPS: usize = 5;
/// `no_ol_cnt` column of neworder, and the line-count range it holds.
const NO_OL_CNT: usize = 6;

/// A loaded database plus the keys of its frozen and hot neworder rows.
struct Loaded {
    tpcc: TpccDb,
    cold_keys: Vec<i64>,
    hot_keys: Vec<i64>,
    generate_s: f64,
    freeze_s: f64,
}

fn load(tracer: &mut Tracer) -> Loaded {
    let (mut tpcc, generate_s) = tracer.timed("setup.generate", || {
        let mut tpcc = TpccDb::generate(WAREHOUSES);
        for _ in 0..PRELOAD_ORDERS {
            tpcc.new_order();
        }
        tpcc
    });
    let ((), freeze_s) = tracer.timed("setup.freeze", || tpcc.freeze_old_neworders());

    // Classify the preloaded orders by where their rows now live (untimed).
    let neworder = tpcc.db.relation("neworder");
    let key_col = neworder.schema().idx("no_key");
    let (mut cold_keys, mut hot_keys) = (Vec::new(), Vec::new());
    tracer.span("check.classify_orders", None, 0, || {
        let mut scanner =
            RelationScanner::new(neworder, vec![key_col], vec![], ScanConfig::default());
        while let Some(batch) = scanner.next_batch() {
            let keys = batch.column(0);
            for row in 0..batch.len() {
                let key = keys.get(row).as_int().expect("no_key is an int");
                match neworder.lookup_pk(key).map(|id| id.segment) {
                    Some(storage::Segment::Cold(_)) => cold_keys.push(key),
                    Some(storage::Segment::Hot(_)) => hot_keys.push(key),
                    None => {}
                }
            }
        }
    });
    Loaded {
        tpcc,
        cold_keys,
        hot_keys,
        generate_s,
        freeze_s,
    }
}

/// Set up `repeats` times, keep the last database.
fn prepare(repeats: usize, tracer: &mut Tracer) -> (Loaded, Vec<f64>) {
    let mut setups = Vec::new();
    loop {
        let loaded = load(tracer);
        setups.push(loaded.generate_s + loaded.freeze_s);
        if setups.len() == repeats {
            return (loaded, setups);
        }
    }
}

/// The closed loop's outcome.
struct LoopResult {
    ops: Vec<Op>,
    wall_s: f64,
    new_orders: usize,
}

fn orderline_has_full_chunk(tpcc: &TpccDb) -> bool {
    tpcc.db
        .relation("orderline")
        .hot_chunks()
        .iter()
        .any(|chunk| chunk.is_full())
}

/// Run the mix until `seconds` have passed.
fn closed_loop(
    loaded: &mut Loaded,
    rng: &mut StdRng,
    seconds: f64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> LoopResult {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    let mut new_orders = 0;
    let mut request = 0u64;
    while Instant::now() < deadline {
        request += 1;
        let class = if orderline_has_full_chunk(&loaded.tpcc) {
            FREEZE
        } else {
            let draw = rng.gen_range(0..100u32);
            let mut acc = 0;
            MIX.iter()
                .find(|(_, share)| {
                    acc += share;
                    draw < acc
                })
                .map_or(NEW_ORDER, |(class, _)| *class)
        };
        let live_before = (class == FREEZE).then(|| live_rows(&loaded.tpcc));
        let lookup_key = (class == ORDER_LOOKUP)
            .then(|| loaded.cold_keys[rng.gen_range(0..loaded.cold_keys.len())]);
        let tpcc = &mut loaded.tpcc;
        let root = tracer.begin("op", None, request);
        let t = Instant::now();
        let result: Result<(), String> = match class {
            NEW_ORDER => {
                tracer.span("workloads.new_order", Some(root), request, || {
                    tpcc.new_order()
                });
                Ok(())
            }
            ORDER_STATUS => {
                let touched = tracer.span("workloads.order_status", Some(root), request, || {
                    tpcc.order_status()
                });
                if touched >= 1 {
                    Ok(())
                } else {
                    Err("order_status found no customer".into())
                }
            }
            STOCK_LEVEL => {
                let count = tracer.span("workloads.stock_level", Some(root), request, || {
                    tpcc.stock_level()
                });
                if count as i64 <= STOCK_PER_WAREHOUSE {
                    Ok(())
                } else {
                    Err(format!(
                        "stock_level counted {count} > {STOCK_PER_WAREHOUSE} stock rows"
                    ))
                }
            }
            ORDER_LOOKUP => {
                let key = lookup_key.expect("drawn above");
                let neworder = tpcc.db.relation("neworder");
                let id = tracer.span("storage.lookup_pk", Some(root), request, || {
                    neworder.lookup_pk(key)
                });
                match id {
                    Some(id) => {
                        let lines = tracer.span("storage.get", Some(root), request, || {
                            neworder.get(id, NO_OL_CNT)
                        });
                        match lines {
                            Value::Int(5..=15) => Ok(()),
                            other => Err(format!("order {key}: line count {other:?}")),
                        }
                    }
                    None => Err(format!("frozen order {key} not found")),
                }
            }
            _ => {
                tracer.span("storage.freeze", Some(root), request, || {
                    tpcc.freeze_old_neworders()
                });
                Ok(())
            }
        };
        let latency = t.elapsed();
        tracer.end(root);
        if class == NEW_ORDER {
            new_orders += 1;
        }
        let result = result.and_then(|()| match live_before {
            Some(before) if before != live_rows(&loaded.tpcc) => Err(format!(
                "freeze changed live rows from {before:?} to {:?}",
                live_rows(&loaded.tpcc)
            )),
            _ => Ok(()),
        });
        if let Err(err) = &result {
            outcome.fail(format!("{}: {err}", CLASSES[class]));
        }
        ops.push(Op {
            class,
            latency_ns: latency.as_nanos() as u64,
            ttfb_ns: latency.as_nanos() as u64,
            ok: result.is_ok(),
        });
    }
    outcome.attempted += ops.len() as u64;
    LoopResult {
        ops,
        wall_s: start.elapsed().as_secs_f64(),
        new_orders,
    }
}

/// Live rows of neworder and orderline.
fn live_rows(tpcc: &TpccDb) -> (usize, usize) {
    (
        tpcc.db.relation("neworder").live_row_count(),
        tpcc.db.relation("orderline").live_row_count(),
    )
}

/// neworder must hold one live row per new order ever run.
fn check_history(tpcc: &TpccDb, new_orders: usize, outcome: &mut Outcome) {
    let live = tpcc.db.relation("neworder").live_row_count();
    let want = PRELOAD_ORDERS + new_orders;
    outcome.attempted += 1;
    if live != want {
        outcome.fail(format!("neworder holds {live} live rows, expected {want}"));
    }
}

fn rng_for(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x7CC0_7CC0_7CC0_7CC0)
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(Instant::now(), false);
    let (mut loaded, setups) = prepare(SETUPS, &mut tracer);
    let (stored, uncompressed, _, _) = footprint(&loaded.tpcc.db);
    // The database grows with every new order, so a resident set taken after
    // the loop would grow with throughput; take it after set-up instead.
    let rss = rss_mib();
    let mut rng = rng_for(args.seed);
    let ticks = cpu_ticks();
    let result = closed_loop(
        &mut loaded,
        &mut rng,
        args.seconds,
        &mut tracer,
        &mut outcome,
    );
    let steal = steal_share(ticks, cpu_ticks());
    check_history(&loaded.tpcc, result.new_orders, &mut outcome);
    set_end_to_end(
        &mut outcome,
        args.workload,
        &Measured {
            setups: &setups,
            ops: &result.ops,
            wall_s: result.wall_s,
            footprint: (stored, uncompressed),
            rss_mib: rss,
            steal,
        },
    );
    outcome
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, true);
    let (mut loaded, _) = prepare(1, &mut tracer);
    outcome.set("setup.generate_s", loaded.generate_s);
    outcome.set("setup.freeze_s", loaded.freeze_s);
    outcome.set("setup.spill_s", 0.0);
    let (stored, uncompressed, _, _) = footprint(&loaded.tpcc.db);

    // Point-access probes on the freshly frozen history.
    let probe_keys = |keys: &[i64]| -> Vec<i64> {
        let step = (keys.len() / 2000).max(1);
        keys.iter().step_by(step).copied().collect()
    };
    let cold = probe_keys(&loaded.cold_keys);
    let hot = probe_keys(&loaded.hot_keys);
    let neworder = loaded.tpcc.db.relation("neworder");
    let (hot_us, hot_ok) = tracer.span("storage.lookup_pk", None, 0, || {
        per_call_us(&hot, |key| neworder.lookup_pk(key).is_some())
    });
    let (cold_us, cold_ok) = tracer.span("storage.lookup_pk", None, 0, || {
        per_call_us(&cold, |key| neworder.lookup_pk(key).is_some())
    });
    let cold_ids: Vec<_> = cold
        .iter()
        .filter_map(|&key| neworder.lookup_pk(key))
        .collect();
    let (get_us, get_ok) = tracer.span("storage.get", None, 0, || {
        per_call_us(&cold_ids, |id| {
            matches!(neworder.get(id, NO_OL_CNT), Value::Int(5..=15))
        })
    });
    outcome.attempted += 3;
    for (ok, what) in [
        (hot_ok, "hot lookup_pk"),
        (cold_ok, "cold lookup_pk"),
        (get_ok, "cold get"),
    ] {
        if !ok {
            outcome.fail(format!("{what} probe missed a preloaded order"));
        }
    }
    outcome.set("storage.lookup_pk_hot_us", hot_us);
    outcome.set("storage.lookup_pk_cold_us", cold_us);
    outcome.set("storage.get_cold_us", get_us);

    // Untraced then traced halves of the closed loop.
    let mut rng = rng_for(args.seed);
    let mut silent = Tracer::new(epoch, false);
    let untraced = closed_loop(
        &mut loaded,
        &mut rng,
        args.seconds / 2.0,
        &mut silent,
        &mut outcome,
    );
    let traced = closed_loop(
        &mut loaded,
        &mut rng,
        args.seconds / 2.0,
        &mut tracer,
        &mut outcome,
    );
    check_history(
        &loaded.tpcc,
        untraced.new_orders + traced.new_orders,
        &mut outcome,
    );
    let overhead = class_median_delta(
        &latencies_by_class(&untraced.ops),
        &latencies_by_class(&traced.ops),
    );
    outcome.set("trace.overhead_ms", overhead);
    outcome.notes.push(format!(
        "tracing overhead: traced minus untraced latency, {overhead:.5} ms per operation \
         (median over classes of the per-class median differences)"
    ));
    let freezes: Vec<f64> = untraced
        .ops
        .iter()
        .chain(&traced.ops)
        .filter(|op| op.class == FREEZE)
        .map(|op| ms(op.latency_ns))
        .collect();
    outcome.set("storage.freeze_ms", mean(&freezes));

    // SARG scan probe over the hot stock relation (stock_level's scan).
    let stock = loaded.tpcc.db.relation("stock");
    let schema = stock.schema();
    let mut scan = ScanStats::default();
    let t = Instant::now();
    const SCAN_PROBES: usize = 20;
    for probe in 0..SCAN_PROBES {
        let restrictions = vec![
            Restriction::eq(schema.idx("s_w_id"), 1 + (probe as i64 % WAREHOUSES)),
            Restriction::cmp(schema.idx("s_quantity"), CmpOp::Lt, 15i64),
        ];
        let mut scanner = RelationScanner::new(
            stock,
            vec![schema.idx("s_i_id")],
            restrictions,
            ScanConfig::default(),
        );
        tracer.span("scan", None, 0, || while scanner.next_batch().is_some() {});
        scan.merge(&scanner.stats());
    }
    let scan_ns = t.elapsed().as_nanos() as u64;
    let probes = SCAN_PROBES as f64;
    outcome.set("scan.ms", ms(scan_ns) / probes);
    outcome.set(
        "scan.ns_per_row",
        scan_ns as f64 / scan.rows_scanned.max(1) as f64,
    );
    outcome.set("scan.blocks_total", scan.blocks_total as f64 / probes);
    outcome.set("scan.blocks_skipped", scan.blocks_skipped as f64 / probes);
    outcome.set("scan.rows_scanned", scan.rows_scanned as f64 / probes);
    outcome.set("scan.rows_matched", scan.rows_matched as f64 / probes);
    outcome.set(
        "scan.skip_ratio",
        scan.blocks_skipped as f64 / scan.blocks_total.max(1) as f64,
    );
    outcome.set(
        "scan.narrow_ratio",
        scan.rows_scanned as f64 / (stock.row_count() as f64 * probes),
    );
    outcome.set(
        "scan.match_ratio",
        scan.rows_matched as f64 / scan.rows_scanned.max(1) as f64,
    );

    let (_, _, hot_rows, cold_rows) = footprint(&loaded.tpcc.db);
    outcome.set("storage.footprint_bytes", stored as f64);
    outcome.set("storage.uncompressed_bytes", uncompressed as f64);
    outcome.set("storage.lineitem_compression_ratio", 0.0);
    outcome.set("storage.hot_rows", hot_rows as f64);
    outcome.set("storage.cold_rows", cold_rows as f64);
    // No spill store, query service or wire in this workload.
    let none = storage::IoStats::default();
    set_io_metrics(&mut outcome, &none, &none, &[]);
    for name in [
        "query.compile_ms",
        "service.open_ms",
        "service.running_max",
        "wire.encode_ms",
        "wire.decode_ms",
        "wire.result_bytes",
        "wire.batches",
        "wire.overhead_ms",
        "wire.protocol_errors",
        "wire.peak_unacked_batches",
        "exec.pull_ms",
        "exec.first_batch_ms",
        "exec.rows_out",
        "exec.batches",
        "exec.operator_ms",
    ] {
        outcome.set(name, 0.0);
    }
    finish_trace(&mut outcome, &tracer, args);
    outcome
}
