//! `olap_mem` and `scan_cold`: TPC-H SF 0.1 served over loopback TCP.
//!
//! Set-up generates and freezes the data (and, for `scan_cold`, spills it
//! behind a block cache smaller than lineitem), then starts a
//! [`WireServer`] and connects the clients. Before the timed phase every
//! query variant is compiled and run once in process to get its reference
//! result. Each client then runs a closed loop until the deadline: send one
//! query, drain its result, check it, send the next.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use exec::{Batch, RelationScanner, ScanConfig, ScanStats};
use query::net::frame::{decode_batch, encode_batch};
use query::net::{ClientConfig, WireClient, WireConfig, WireServer};
use query::{Connect, QueryService, ServiceConfig, Session};
use storage::{Database, IoStats, SpillPolicy};
use workloads::tpch::run_query;
use workloads::TpchDb;

use crate::check::{compare_close, digest, Expected};
use crate::params::{variants, OpOrder, QuerySpec};
use crate::trace::{summarize, Tracer};
use crate::{
    class_median_delta, cpu_ticks, footprint, latencies_by_class, ms, per_call_us, rss_mib,
    set_end_to_end, steal_share, Measured, Op, Outcome, RunArgs, Workload, WORK_DIR,
};

/// TPC-H scale factor: 600k lineitem rows.
const SCALE_FACTOR: f64 = 0.1;
/// Block-cache budget per spilled relation in `scan_cold`: about three of
/// lineitem's ten ~1.44 MB frames, so a scan over lineitem misses.
const COLD_CACHE_BYTES: usize = 4 << 20;
/// Admission budget each client session asks for.
const SESSION_BUDGET: usize = 32 << 20;
/// Set-ups per untraced run; `setup_s` is their median. One set-up's time
/// varies by up to a third within a run, so a median of three stays unsteady.
const SETUPS: usize = 5;
const AUTH: &str = "perfbench";

/// How a TPC-H workload is driven.
struct Shape {
    clients: usize,
    scan_threads: usize,
    variants: usize,
    spill: bool,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        Workload::OlapMem => Shape {
            clients: 2,
            scan_threads: 1,
            variants: 4,
            spill: false,
        },
        Workload::ScanCold => Shape {
            clients: 1,
            scan_threads: 2,
            variants: 6,
            spill: true,
        },
        Workload::OltpHybrid => unreachable!("oltp_hybrid is not a TPC-H workload"),
    }
}

/// Set-up phase timings, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    generate: f64,
    freeze: f64,
    spill: f64,
    serve: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate + self.freeze + self.spill + self.serve
    }
}

/// Generate, freeze and (for `scan_cold`) spill the data.
fn load(
    workload: Workload,
    spill_dir: &Path,
    times: &mut SetupTimes,
    tracer: &mut Tracer,
) -> std::io::Result<TpchDb> {
    let spill = shape(workload).spill;
    let mut tpch;
    (tpch, times.generate) = tracer.timed("setup.generate", || TpchDb::generate(SCALE_FACTOR));
    ((), times.freeze) = tracer.timed("setup.freeze", || {
        if spill {
            tpch.freeze_lineitem_sorted_by_shipdate();
        } else {
            tpch.freeze();
        }
    });
    if spill {
        let spilled;
        (spilled, times.spill) = tracer.timed("setup.spill", || {
            std::fs::create_dir_all(spill_dir)?;
            tpch.db.enable_spill(SpillPolicy {
                cache_capacity_bytes: COLD_CACHE_BYTES,
                path: Some(spill_dir.to_path_buf()),
                ..SpillPolicy::default()
            })
        });
        spilled?;
    }
    Ok(tpch)
}

/// A running server with connected clients.
struct Serving {
    service: Arc<QueryService>,
    server: WireServer,
    clients: Vec<WireClient>,
}

fn scan_config(workload: Workload) -> ScanConfig {
    ScanConfig::default().with_threads(shape(workload).scan_threads)
}

/// Start the service and server and perform every client's handshake.
fn serve(workload: Workload, db: Arc<Database>) -> Result<Serving, String> {
    let clients = shape(workload).clients;
    let service = Arc::new(QueryService::new(
        db,
        scan_config(workload),
        ServiceConfig {
            max_concurrent: clients,
            total_budget_bytes: clients * SESSION_BUDGET,
        },
    ));
    let server = WireServer::serve(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireConfig {
            auth_token: AUTH.into(),
            ..WireConfig::default()
        },
    )
    .map_err(|err| format!("binding the wire server: {err}"))?;
    let config = ClientConfig {
        auth_token: AUTH.into(),
        budget_bytes: SESSION_BUDGET as u64,
        window: 4,
    };
    let clients = (0..clients)
        .map(|_| WireClient::connect(server.local_addr(), &config))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| format!("wire handshake: {err}"))?;
    Ok(Serving {
        service,
        server,
        clients,
    })
}

impl Serving {
    /// Disconnect the clients and shut the server down, joining its threads.
    fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Every query variant of the workload, per class.
fn specs(workload: Workload, seed: u64) -> Vec<Vec<QuerySpec>> {
    let count = shape(workload).variants;
    workload
        .classes()
        .iter()
        .map(|class| variants(class, seed, count))
        .collect()
}

fn drain(mut stream: query::QueryStream<'_>) -> Result<Vec<Batch>, String> {
    let mut batches = Vec::new();
    while let Some(batch) = stream.next_batch().map_err(|err| err.to_string())? {
        batches.push(batch);
    }
    Ok(batches)
}

fn concat(batches: &[Batch], types: &[datablocks::DataType]) -> Batch {
    let mut out = Batch::new(types);
    for batch in batches {
        out.append(batch);
    }
    out
}

/// Scan one leaf with `RelationScanner`, handing each batch to `sink`.
fn scan_leaf(
    db: &Database,
    leaf: &crate::params::LeafScan,
    config: ScanConfig,
    mut sink: impl FnMut(Batch),
) -> ScanStats {
    let (projection, restrictions) = leaf.resolve(db);
    let mut scanner =
        RelationScanner::new(db.relation(leaf.relation), projection, restrictions, config);
    while let Some(batch) = scanner.next_batch() {
        sink(batch);
    }
    scanner.stats()
}

/// Compile `spec`, run it in process at one thread and check that result
/// against the independent computations this class has; returns what the
/// wire result must equal.
pub fn reference(tpch: &TpchDb, spec: &QuerySpec, wire_threads: usize) -> Result<Expected, String> {
    let serial = ScanConfig::default().with_threads(1);
    let session = tpch.db.connect().with_config(serial);
    let label = |err: String| format!("{} `{}`: {err}", spec.class, spec.sql);
    let plan = session
        .compile_sql(&spec.sql)
        .map_err(|e| label(e.to_string()))?;
    let types = plan.output_types().to_vec();
    let batches = drain(
        session
            .execute_plan(&plan)
            .map_err(|e| label(e.to_string()))?,
    )
    .map_err(label)?;
    if batches.is_empty() {
        return Err(label("reference result is empty".into()));
    }
    if spec.checked_in {
        let hand_built = run_query(tpch, spec.class, serial).batch;
        if digest(&[hand_built]) != digest(&batches) {
            return Err(label(
                "SQL result differs from the hand-built operator tree".into(),
            ));
        }
    }
    let aggregate = spec.class.starts_with('Q');
    if spec.class == "Q6" {
        let mut revenue = 0.0;
        scan_leaf(&tpch.db, &spec.leaves[0], serial, |batch| {
            let (price, discount) = (batch.column(0), batch.column(1));
            for row in 0..batch.len() {
                let (p, d) = (price.get(row), discount.get(row));
                if let (Some(p), Some(d)) = (p.as_int(), d.as_int()) {
                    revenue += (p * d) as f64 / 100.0;
                }
            }
        });
        let direct = Batch::from_rows(&types, &[vec![datablocks::Value::Double(revenue)]]);
        compare_close(&direct, &concat(&batches, &types))
            .map_err(|err| label(format!("differs from a direct RelationScanner sum: {err}")))?;
    } else if !aggregate {
        let mut scanned = crate::check::Digester::default();
        scan_leaf(&tpch.db, &spec.leaves[0], serial, |batch| {
            scanned.add(&batch)
        });
        if scanned.finish() != digest(&batches) {
            return Err(label("differs from a direct RelationScanner scan".into()));
        }
    }
    // Parallel aggregation re-associates floating-point sums; everything else
    // (serial plans, and row-returning scans, whose batch order is fixed) is
    // byte-identical.
    Ok(if aggregate && wire_threads > 1 {
        Expected::Close(concat(&batches, &types))
    } else {
        Expected::Exact(digest(&batches))
    })
}

/// Σ block-store counters over every spilled relation.
fn io_stats(db: &Database) -> IoStats {
    let mut total = IoStats::default();
    for store in db.relations().filter_map(|rel| rel.spill_store()) {
        let s = store.stats();
        total.block_reads += s.block_reads;
        total.bytes_read += s.bytes_read;
        total.cache_hits += s.cache_hits;
        total.cache_misses += s.cache_misses;
        total.evictions += s.evictions;
        total.prefetch_reads += s.prefetch_reads;
        total.retries += s.retries;
        total.prefetch_errors += s.prefetch_errors;
    }
    total
}

/// Everything the closed loops of one phase produced.
struct LoopResult {
    ops: Vec<Op>,
    wall_s: f64,
    errors: Vec<String>,
    tracer: Tracer,
}

/// Run one query over the wire, drain its result and check it against
/// `expected`. A failed or wrong query comes back with `ok == false` and the
/// reason.
pub fn wire_query(
    client: &mut WireClient,
    spec: &QuerySpec,
    class: usize,
    expected: &Expected,
    tracer: &mut Tracer,
    request: u64,
) -> (Op, Option<String>) {
    let root = tracer.begin("op", None, request);
    let sent = Instant::now();
    let mut ttfb = None;
    let result = (|| {
        let query = tracer.begin("wire.query", Some(root), request);
        let stream = client.query_sql(&spec.sql);
        tracer.end(query);
        let mut stream = stream.map_err(|err| err.to_string())?;
        let mut batches = Vec::new();
        loop {
            let pull = tracer.begin("wire.next_batch", Some(root), request);
            let next = stream.next_batch();
            tracer.end(pull);
            match next.map_err(|err| err.to_string())? {
                Some(batch) => {
                    ttfb.get_or_insert_with(|| sent.elapsed());
                    batches.push(batch);
                }
                None => return Ok::<_, String>(batches),
            }
        }
    })();
    let latency = sent.elapsed();
    tracer.end(root);
    let checked = result.and_then(|batches| expected.check(&batches));
    let op = Op {
        class,
        latency_ns: latency.as_nanos() as u64,
        ttfb_ns: ttfb.unwrap_or(latency).as_nanos() as u64,
        ok: checked.is_ok(),
    };
    (
        op,
        checked
            .err()
            .map(|err| format!("{} `{}`: {err}", spec.class, spec.sql)),
    )
}

/// Run one client's closed loop until `deadline`.
fn client_loop(
    client: &mut WireClient,
    specs: &[Vec<QuerySpec>],
    expected: &[Vec<Expected>],
    mut order: OpOrder,
    deadline: Instant,
    tracer: &mut Tracer,
    request_base: u64,
) -> (Vec<Op>, Vec<String>, Instant) {
    let mut ops = Vec::new();
    let mut errors = Vec::new();
    let mut last = Instant::now();
    let mut request = request_base;
    // A broken connection fails every later query at once; past this many
    // failures the run has failed anyway, so stop instead of spinning.
    const MAX_ERRORS: usize = 100;
    while Instant::now() < deadline && errors.len() < MAX_ERRORS {
        for (class, variant) in order.next_round() {
            request += 1;
            let (op, error) = wire_query(
                client,
                &specs[class][variant],
                class,
                &expected[class][variant],
                tracer,
                request,
            );
            last = Instant::now();
            ops.push(op);
            errors.extend(error);
        }
    }
    (ops, errors, last)
}

/// Run every client's loop for `seconds`; `stream_base` separates the
/// operation orders of successive phases. With `trace_epoch` set the loops
/// record spans on that clock.
fn wire_phase(
    prepared: &mut Prepared,
    seed: u64,
    stream_base: u64,
    seconds: f64,
    trace_epoch: Option<Instant>,
) -> LoopResult {
    let (serving, specs, expected) = (&mut prepared.serving, &prepared.specs, &prepared.expected);
    let traced = trace_epoch.is_some();
    let epoch = trace_epoch.unwrap_or_else(Instant::now);
    let classes = specs.len();
    let variants = specs[0].len();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = serving
            .clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let order = OpOrder::new(seed, stream_base + k as u64, classes, variants);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch, traced);
                    let (ops, errors, last) = client_loop(
                        client,
                        specs,
                        expected,
                        order,
                        deadline,
                        &mut tracer,
                        (k as u64 + 1) << 40,
                    );
                    (ops, errors, last, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut result = LoopResult {
        ops: Vec::new(),
        wall_s: 0.0,
        errors: Vec::new(),
        tracer: Tracer::new(epoch, traced),
    };
    let mut end = start;
    for (ops, errors, last, client_tracer) in outcomes {
        result.ops.extend(ops);
        result.errors.extend(errors);
        end = end.max(last);
        result.tracer.absorb(client_tracer);
    }
    result.wall_s = (end - start).as_secs_f64();
    result
}

/// This process's spill directory, removed with everything in it on drop.
struct SpillRoot(PathBuf);

impl SpillRoot {
    fn new() -> SpillRoot {
        SpillRoot(Path::new(WORK_DIR).join(format!("spill-{}", std::process::id())))
    }
}

impl Drop for SpillRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything set up and checked, ready for the timed phase.
struct Prepared {
    serving: Serving,
    specs: Vec<Vec<QuerySpec>>,
    expected: Vec<Vec<Expected>>,
    setups: Vec<SetupTimes>,
    footprint: (usize, usize, usize, usize),
    lineitem_ratio: f64,
}

/// Set up `repeats` times (the last one is kept) and compute the references.
fn prepare(
    args: &RunArgs,
    repeats: usize,
    spill: &SpillRoot,
    tracer: &mut Tracer,
) -> Result<Prepared, String> {
    let workload = args.workload;
    let specs = specs(workload, args.seed);
    let mut setups = Vec::new();
    for rep in 0..repeats {
        let spill_dir = spill.0.join(rep.to_string());
        let mut times = SetupTimes::default();
        let tpch = load(workload, &spill_dir, &mut times, tracer)
            .map_err(|err| format!("loading TPC-H: {err}"))?;
        if rep + 1 < repeats {
            let serving;
            (serving, times.serve) =
                tracer.timed("setup.serve", || serve(workload, Arc::new(tpch.db)));
            setups.push(times);
            serving?.stop();
            continue;
        }
        let wire_threads = shape(workload).scan_threads;
        let expected = specs
            .iter()
            .map(|class| {
                class
                    .iter()
                    .map(|spec| {
                        tracer.span("check.reference", None, 0, || {
                            reference(&tpch, spec, wire_threads)
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let footprint = tracer.span("storage.stats", None, 0, || footprint(&tpch.db));
        let lineitem_ratio = tpch
            .db
            .relation("lineitem")
            .storage_stats()
            .compression_ratio();
        let serving;
        (serving, times.serve) = tracer.timed("setup.serve", || serve(workload, Arc::new(tpch.db)));
        let serving = serving?;
        setups.push(times);
        return Ok(Prepared {
            serving,
            specs,
            expected,
            setups,
            footprint,
            lineitem_ratio,
        });
    }
    unreachable!("at least one set-up runs")
}

fn record_errors(outcome: &mut Outcome, phase: &LoopResult) {
    outcome.attempted += phase.ops.len() as u64;
    outcome.failed += phase.ops.iter().filter(|op| !op.ok).count() as u64;
    if let Some(err) = phase.errors.first() {
        outcome.first_error.get_or_insert_with(|| err.clone());
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let spill = SpillRoot::new();
    let mut silent = Tracer::new(Instant::now(), false);
    let mut prepared = match prepare(args, SETUPS, &spill, &mut silent) {
        Ok(p) => p,
        Err(err) => {
            outcome.fail(err);
            return outcome;
        }
    };
    let ticks = cpu_ticks();
    let phase = wire_phase(&mut prepared, args.seed, 0, args.seconds, None);
    let steal = steal_share(ticks, cpu_ticks());
    let rss = rss_mib();
    record_errors(&mut outcome, &phase);

    let setups: Vec<f64> = prepared.setups.iter().map(SetupTimes::total).collect();
    let (stored, uncompressed, _, _) = prepared.footprint;
    set_end_to_end(
        &mut outcome,
        args.workload,
        &Measured {
            setups: &setups,
            ops: &phase.ops,
            wall_s: phase.wall_s,
            footprint: (stored, uncompressed),
            rss_mib: rss,
            steal,
        },
    );
    prepared.serving.stop();
    outcome
}

/// Per-query sums from the in-process replay.
#[derive(Default)]
struct Replay {
    queries: usize,
    compile_ns: u64,
    open_ns: u64,
    pull_ns: u64,
    first_batch_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    result_bytes: u64,
    batches: u64,
    rows: u64,
    scan_ns: u64,
    scan: ScanStats,
    leaf_rows: u64,
    /// In-process latency (compile + open + pulls) per class.
    in_process_ms: Vec<Vec<f64>>,
}

/// Replay queries in process until `deadline`: compile → open → pull each
/// batch, encoding and decoding every batch as the server and client would;
/// then probe each leaf scan with `RelationScanner`.
#[allow(clippy::too_many_arguments)]
fn replay(
    session: &Session<'_>,
    db: &Database,
    specs: &[Vec<QuerySpec>],
    expected: &[Vec<Expected>],
    seed: u64,
    deadline: Instant,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Replay {
    let mut out = Replay {
        in_process_ms: vec![Vec::new(); specs.len()],
        ..Replay::default()
    };
    let config = session.effective_config();
    let mut order = OpOrder::new(seed, 1 << 20, specs.len(), specs[0].len());
    let mut request = 3u64 << 40;
    let mut round = Vec::new().into_iter();
    loop {
        let Some((class, variant)) = round.next() else {
            if Instant::now() >= deadline {
                break;
            }
            round = order.next_round().into_iter();
            continue;
        };
        let spec = &specs[class][variant];
        request += 1;
        outcome.attempted += 1;
        let root = tracer.begin("op", None, request);
        let result = (|| {
            let t = Instant::now();
            let plan = tracer.span("query.compile", Some(root), request, || {
                session.compile_sql(&spec.sql)
            });
            let compile = t.elapsed().as_nanos() as u64;
            let plan = plan.map_err(|err| err.to_string())?;
            let t = Instant::now();
            let stream = tracer.span("service.open", Some(root), request, || {
                session.execute_plan(&plan)
            });
            let open = t.elapsed().as_nanos() as u64;
            let mut stream = stream.map_err(|err| err.to_string())?;
            let types = stream.output_types().to_vec();
            // Drain first, encode after: a parallel scan keeps working while
            // the consumer is busy, so encoding between pulls would hide scan
            // time from `exec.pull`.
            let (mut pull, mut first, mut batches) = (0u64, None, Vec::new());
            loop {
                let t = Instant::now();
                let next = tracer.span("exec.pull", Some(root), request, || stream.next_batch());
                let took = t.elapsed().as_nanos() as u64;
                pull += took;
                first.get_or_insert(took);
                match next.map_err(|err| err.to_string())? {
                    Some(batch) => batches.push(batch),
                    None => break,
                }
            }
            let mut decoded = Vec::new();
            for batch in batches {
                let t = Instant::now();
                let payload =
                    tracer.span("wire.encode", Some(root), request, || encode_batch(&batch));
                out.encode_ns += t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let back = tracer.span("wire.decode", Some(root), request, || {
                    decode_batch(&payload, &types)
                });
                out.decode_ns += t.elapsed().as_nanos() as u64;
                out.result_bytes += payload.len() as u64;
                out.batches += 1;
                out.rows += batch.len() as u64;
                decoded.push(back.map_err(|err| err.to_string())?);
            }
            out.compile_ns += compile;
            out.open_ns += open;
            out.pull_ns += pull;
            out.first_batch_ns += first.unwrap_or(0);
            out.in_process_ms[class].push(ms(compile + open + pull));
            expected[class][variant].check(&decoded)
        })();
        tracer.end(root);
        if let Err(err) = result {
            outcome.fail(format!("{} `{}` in process: {err}", spec.class, spec.sql));
        }
        for leaf in &spec.leaves {
            let t = Instant::now();
            let stats = tracer.span("scan", None, request, || {
                scan_leaf(db, leaf, config, |batch| drop(std::hint::black_box(batch)))
            });
            out.scan_ns += t.elapsed().as_nanos() as u64;
            out.scan.merge(&stats);
            out.leaf_rows += db.relation(leaf.relation).row_count() as u64;
        }
        out.queries += 1;
    }
    out
}

/// Time `try_cold_block` on lineitem blocks that miss the cache: three
/// sequential passes over a relation larger than the cache.
fn pin_probe(db: &Database, tracer: &mut Tracer) -> Result<Vec<f64>, String> {
    let lineitem = db.relation("lineitem");
    let Some(store) = lineitem.spill_store() else {
        return Ok(Vec::new());
    };
    let mut pins = Vec::new();
    for _ in 0..3 {
        for idx in 0..lineitem.cold_block_count() {
            let before = store.stats().cache_misses;
            let t = Instant::now();
            let block = tracer.span("io.pin", None, 0, || lineitem.try_cold_block(idx));
            let took = t.elapsed().as_nanos() as u64;
            let block = block.map_err(|err| format!("pinning lineitem block {idx}: {err}"))?;
            drop(block);
            if store.stats().cache_misses > before {
                pins.push(ms(took));
            }
        }
    }
    Ok(pins)
}

/// Orders probed by [`point_probe`].
const POINT_PROBES: usize = 2000;

/// Point access into frozen (on `scan_cold`, spilled) data: microseconds per
/// `Relation::lookup_pk` and per `Relation::get` over evenly spaced `orders`
/// keys. Every key must be found, and `get` must return it.
fn point_probe(db: &Database, tracer: &mut Tracer) -> Result<(f64, f64), String> {
    let orders = db.relation("orders");
    let key_col = orders.schema().idx("o_orderkey");
    let mut keys = Vec::new();
    tracer.span("check.orders_keys", None, 0, || {
        let mut scanner =
            RelationScanner::new(orders, vec![key_col], vec![], ScanConfig::default());
        while let Some(batch) = scanner.next_batch() {
            let col = batch.column(0);
            keys.extend((0..batch.len()).filter_map(|row| col.get(row).as_int()));
        }
    });
    let step = (keys.len() / POINT_PROBES).max(1);
    let keys: Vec<i64> = keys.into_iter().step_by(step).collect();
    let (lookup_us, found) = tracer.span("storage.lookup_pk", None, 0, || {
        per_call_us(&keys, |key| orders.lookup_pk(key).is_some())
    });
    if !found {
        return Err("orders: lookup_pk missed a key".into());
    }
    let rows: Vec<_> = keys
        .iter()
        .filter_map(|&key| Some((key, orders.lookup_pk(key)?)))
        .collect();
    let (get_us, same) = tracer.span("storage.get", None, 0, || {
        per_call_us(&rows, |(key, id)| {
            orders.get(id, key_col) == datablocks::Value::Int(key)
        })
    });
    if !same {
        return Err("orders: get returned another key".into());
    }
    Ok((lookup_us, get_us))
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, true);
    let spill = SpillRoot::new();
    let mut prepared = match prepare(args, 1, &spill, &mut tracer) {
        Ok(p) => p,
        Err(err) => {
            outcome.fail(err);
            return outcome;
        }
    };
    let times = prepared.setups[0];
    outcome.set("setup.generate_s", times.generate);
    outcome.set("setup.freeze_s", times.freeze);
    outcome.set("setup.spill_s", times.spill);

    // Phase A: untraced wire loop, the baseline of the tracing overhead and of
    // the wire overhead.
    let quarter = args.seconds / 4.0;
    let untraced = wire_phase(&mut prepared, args.seed, 100, quarter, None);
    record_errors(&mut outcome, &untraced);

    // Phase B: the same loop with spans, while a monitor polls the service's
    // admission state every millisecond.
    let db = Arc::clone(prepared.serving.service.database());
    let io_before = tracer.span("io.stats", None, 0, || io_stats(&db));
    let stop = AtomicBool::new(false);
    let service = Arc::clone(&prepared.serving.service);
    let (traced, (monitor_tracer, running_max)) = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut local = Tracer::new(epoch, true);
            let mut running_max = 0;
            while !stop.load(Ordering::Relaxed) {
                let running = local.span("service.stats", None, 0, || service.stats().running);
                running_max = running_max.max(running);
                std::thread::sleep(Duration::from_millis(1));
            }
            (local, running_max)
        });
        let phase = wire_phase(&mut prepared, args.seed, 200, quarter, Some(epoch));
        stop.store(true, Ordering::Relaxed);
        (phase, monitor.join().expect("monitor thread panicked"))
    });
    let io_after = tracer.span("io.stats", None, 0, || io_stats(&db));
    let wire_stats = tracer.span("wire.stats", None, 0, || prepared.serving.server.stats());
    record_errors(&mut outcome, &traced);

    // Phase C: in-process replay and scan probes.
    let session = prepared.serving.service.session(SESSION_BUDGET);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    let replayed = replay(
        &session,
        &db,
        &prepared.specs,
        &prepared.expected,
        args.seed,
        deadline,
        &mut tracer,
        &mut outcome,
    );
    drop(session);
    let pins = match pin_probe(&db, &mut tracer) {
        Ok(pins) => pins,
        Err(err) => {
            outcome.fail(err);
            Vec::new()
        }
    };
    outcome.attempted += 1;
    let (lookup_us, get_us) = point_probe(&db, &mut tracer).unwrap_or_else(|err| {
        outcome.fail(err);
        (0.0, 0.0)
    });

    let untraced_ms = latencies_by_class(&untraced.ops);
    let overhead = class_median_delta(&untraced_ms, &latencies_by_class(&traced.ops));
    outcome.set("trace.overhead_ms", overhead);
    outcome.notes.push(format!(
        "tracing overhead: traced minus untraced wire latency, {overhead:.4} ms per query \
         (median over classes of the per-class median differences)"
    ));
    outcome.set("service.running_max", running_max as f64);
    outcome.set("wire.protocol_errors", wire_stats.protocol_errors as f64);
    outcome.set(
        "wire.peak_unacked_batches",
        wire_stats.peak_unacked_batches as f64,
    );

    let q = replayed.queries.max(1) as f64;
    let per_query_ms = |ns: u64| ms(ns) / q;
    outcome.set("query.compile_ms", per_query_ms(replayed.compile_ns));
    outcome.set("service.open_ms", per_query_ms(replayed.open_ns));
    outcome.set("exec.pull_ms", per_query_ms(replayed.pull_ns));
    outcome.set("exec.first_batch_ms", per_query_ms(replayed.first_batch_ns));
    outcome.set("exec.rows_out", replayed.rows as f64 / q);
    outcome.set("exec.batches", replayed.batches as f64 / q);
    outcome.set(
        "exec.operator_ms",
        per_query_ms(replayed.pull_ns) - per_query_ms(replayed.scan_ns),
    );
    outcome.set("wire.encode_ms", per_query_ms(replayed.encode_ns));
    outcome.set("wire.decode_ms", per_query_ms(replayed.decode_ns));
    outcome.set("wire.result_bytes", replayed.result_bytes as f64 / q);
    outcome.set("wire.batches", replayed.batches as f64 / q);
    outcome.set(
        "wire.overhead_ms",
        class_median_delta(&replayed.in_process_ms, &untraced_ms),
    );

    let s = replayed.scan;
    outcome.set("scan.ms", per_query_ms(replayed.scan_ns));
    outcome.set(
        "scan.ns_per_row",
        replayed.scan_ns as f64 / s.rows_scanned.max(1) as f64,
    );
    outcome.set("scan.blocks_total", s.blocks_total as f64 / q);
    outcome.set("scan.blocks_skipped", s.blocks_skipped as f64 / q);
    outcome.set("scan.rows_scanned", s.rows_scanned as f64 / q);
    outcome.set("scan.rows_matched", s.rows_matched as f64 / q);
    outcome.set(
        "scan.skip_ratio",
        s.blocks_skipped as f64 / s.blocks_total.max(1) as f64,
    );
    outcome.set(
        "scan.narrow_ratio",
        s.rows_scanned as f64 / replayed.leaf_rows.max(1) as f64,
    );
    outcome.set(
        "scan.match_ratio",
        s.rows_matched as f64 / s.rows_scanned.max(1) as f64,
    );

    set_io_metrics(&mut outcome, &io_before, &io_after, &pins);
    let (stored, uncompressed, hot_rows, cold_rows) = prepared.footprint;
    outcome.set("storage.footprint_bytes", stored as f64);
    outcome.set("storage.uncompressed_bytes", uncompressed as f64);
    outcome.set(
        "storage.lineitem_compression_ratio",
        prepared.lineitem_ratio,
    );
    outcome.set("storage.hot_rows", hot_rows as f64);
    outcome.set("storage.cold_rows", cold_rows as f64);
    outcome.set("storage.lookup_pk_cold_us", lookup_us);
    outcome.set("storage.get_cold_us", get_us);
    // TPC-H data is frozen whole and not written afterwards.
    outcome.set("storage.lookup_pk_hot_us", 0.0);
    outcome.set("storage.freeze_ms", 0.0);

    tracer.absorb(traced.tracer);
    tracer.absorb(monitor_tracer);
    finish_trace(&mut outcome, &tracer, args);
    drop(db);
    prepared.serving.stop();
    outcome
}

/// Per-layer block-store metrics: counter deltas over the traced wire phase
/// plus the pin probe.
pub(crate) fn set_io_metrics(
    outcome: &mut Outcome,
    before: &IoStats,
    after: &IoStats,
    pins: &[f64],
) {
    let delta = |f: fn(&IoStats) -> u64| (f(after) - f(before)) as f64;
    let hits = delta(|s| s.cache_hits);
    let misses = delta(|s| s.cache_misses);
    outcome.set("io.pin_ms", crate::stats::mean(pins));
    outcome.set("io.cache_hits", hits);
    outcome.set("io.cache_misses", misses);
    outcome.set(
        "io.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    outcome.set("io.block_reads", delta(|s| s.block_reads));
    outcome.set("io.bytes_read", delta(|s| s.bytes_read));
    outcome.set("io.prefetch_reads", delta(|s| s.prefetch_reads));
    outcome.set("io.evictions", delta(|s| s.evictions));
    outcome.set("io.retries", delta(|s| s.retries));
    outcome.set("io.prefetch_errors", delta(|s| s.prefetch_errors));
}

/// Print the span summary (count, total and self time per span name) and
/// write every span to `.perfbench/trace-<workload>-<seed>.jsonl`.
pub(crate) fn finish_trace(outcome: &mut Outcome, tracer: &Tracer, args: &RunArgs) {
    outcome.set("trace.spans", tracer.spans().len() as f64);
    outcome.notes.push(format!(
        "{:<24} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    ));
    for (name, (count, total, self_ns)) in summarize(tracer.spans()) {
        outcome.notes.push(format!(
            "{name:<24} {count:>9} {:>12.3} {:>12.3}",
            ms(total),
            ms(self_ns)
        ));
    }
    let path = Path::new(WORK_DIR).join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(WORK_DIR)
        .and_then(|()| tracer.write_jsonl(&path))
        .map(|()| path);
    match written {
        Ok(path) => outcome
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(err) => outcome.notes.push(format!("spans not written: {err}")),
    }
}
