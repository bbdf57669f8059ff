//! End-to-end and per-layer benchmark of the Data Blocks stack.
//!
//! `src/main.rs` is the command; this library holds the workloads and the
//! helpers that `tests/helpers.rs` checks. See `README.md` for the workloads,
//! the metrics and how to run them.

pub mod check;
pub mod params;
pub mod stats;
pub mod tpcc_bench;
pub mod tpch_bench;
pub mod trace;

use std::collections::BTreeMap;

/// End-to-end metrics of an untraced run: (name, unit), in output order.
/// `class1_ms` … `class5_ms` are the per-class median latencies; which class
/// each slot holds depends on the workload ([`Workload::classes`]).
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ratio", "ratio"),
    ("ttfb_p50_ms", "ms"),
    ("footprint_ratio", "ratio"),
    ("rss_mb", "MiB"),
    ("class1_ms", "ms"),
    ("class2_ms", "ms"),
    ("class3_ms", "ms"),
    ("class4_ms", "ms"),
    ("class5_ms", "ms"),
];

/// Per-layer metrics of a traced run: (name, unit), in output order. A metric
/// that does not apply to a workload reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("setup.generate_s", "s"),
    ("setup.freeze_s", "s"),
    ("setup.spill_s", "s"),
    ("query.compile_ms", "ms"),
    ("service.open_ms", "ms"),
    ("service.running_max", "count"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.result_bytes", "bytes"),
    ("wire.batches", "count"),
    ("wire.overhead_ms", "ms"),
    ("wire.protocol_errors", "count"),
    ("wire.peak_unacked_batches", "count"),
    ("exec.pull_ms", "ms"),
    ("exec.first_batch_ms", "ms"),
    ("exec.rows_out", "count"),
    ("exec.batches", "count"),
    ("exec.operator_ms", "ms"),
    ("scan.ms", "ms"),
    ("scan.ns_per_row", "ns"),
    ("scan.blocks_total", "count"),
    ("scan.blocks_skipped", "count"),
    ("scan.rows_scanned", "count"),
    ("scan.rows_matched", "count"),
    ("scan.skip_ratio", "ratio"),
    ("scan.narrow_ratio", "ratio"),
    ("scan.match_ratio", "ratio"),
    ("io.pin_ms", "ms"),
    ("io.cache_hits", "count"),
    ("io.cache_misses", "count"),
    ("io.hit_ratio", "ratio"),
    ("io.block_reads", "count"),
    ("io.bytes_read", "bytes"),
    ("io.prefetch_reads", "count"),
    ("io.evictions", "count"),
    ("io.retries", "count"),
    ("io.prefetch_errors", "count"),
    ("storage.footprint_bytes", "bytes"),
    ("storage.uncompressed_bytes", "bytes"),
    ("storage.lineitem_compression_ratio", "ratio"),
    ("storage.lookup_pk_hot_us", "us"),
    ("storage.lookup_pk_cold_us", "us"),
    ("storage.get_cold_us", "us"),
    ("storage.freeze_ms", "ms"),
    ("storage.hot_rows", "count"),
    ("storage.cold_rows", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TPC-H SF 0.1 frozen in memory, 2 wire clients.
    OlapMem,
    /// TPC-H SF 0.1, lineitem sorted by ship date, spilled behind a small cache.
    ScanCold,
    /// TPC-C, 2 warehouses, frozen order history.
    OltpHybrid,
}

impl Workload {
    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "olap_mem" => Some(Workload::OlapMem),
            "scan_cold" => Some(Workload::ScanCold),
            "oltp_hybrid" => Some(Workload::OltpHybrid),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapMem => "olap_mem",
            Workload::ScanCold => "scan_cold",
            Workload::OltpHybrid => "oltp_hybrid",
        }
    }

    /// The operation classes behind `class1_ms` … `class5_ms`.
    pub fn classes(self) -> [&'static str; 5] {
        match self {
            Workload::OlapMem => params::OLAP_CLASSES,
            Workload::ScanCold => params::SCAN_CLASSES,
            Workload::OltpHybrid => tpcc_bench::CLASSES,
        }
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of parameters and operation order.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run?
    pub trace: bool,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The first failure seen, if any.
    pub first_error: Option<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a failed operation.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }

    /// The result line: every metric of `names`, in that order; `None` if one
    /// of them was not recorded (the run stopped before measuring it).
    pub fn result_json(&self, names: &[(&str, &str)]) -> Option<String> {
        let metrics = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name)?;
                Some(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                ))
            })
            .collect::<Option<Vec<String>>>()?;
        Some(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite JSON number (non-finite values, which only a failed run can
/// produce, print as `f64::MAX`).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

/// Resident set size of this process in MiB (`VmRSS`; 0 where unavailable).
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmRSS:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Machine-wide CPU time so far, from `/proc/stat`: (stolen ticks, all
/// ticks). Stolen time is time a virtual CPU was ready but not running,
/// because the host ran something else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Share of CPU time stolen by the host between two [`cpu_ticks`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Where runs keep their files, relative to the working directory: spill
/// files (removed when a run ends) and traced runs' span dumps.
pub const WORK_DIR: &str = ".perfbench";

/// One timed operation of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Index of the operation class (`class1_ms` is class 0).
    pub class: usize,
    /// Start → completion.
    pub latency_ns: u64,
    /// Start → first result batch (the latency when there is none, and for
    /// transactions, which return their result at once).
    pub ttfb_ns: u64,
    /// Did the operation succeed with the expected result?
    pub ok: bool,
}

/// Latencies in ms of `ops` (of one class, if given); a failed operation
/// counts as +∞, missing every latency limit.
pub fn latencies_ms(ops: &[Op], class: Option<usize>) -> Vec<f64> {
    ops.iter()
        .filter(|op| class.is_none_or(|c| op.class == c))
        .map(|op| {
            if op.ok {
                ms(op.latency_ns)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Latencies of `ops` per class.
pub fn latencies_by_class(ops: &[Op]) -> Vec<Vec<f64>> {
    (0..5).map(|class| latencies_ms(ops, Some(class))).collect()
}

/// The per-class percentile that `latency_tail_ratio` compares with the
/// class's median. It is fixed, so that a faster program, which takes more
/// samples, is not judged at a more extreme percentile than its parent.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// `latency_tail_ratio`: the geometric mean over classes of each class's
/// [`TAIL_PERCENTILE`] ÷ its median, skipping classes without samples (`None`
/// if all are empty), plus each class's tail. Taking the tail within each
/// class keeps the slowest class from owning the top of a pooled
/// distribution; the geometric mean lets a spike in any class move the
/// result by the same share, whatever the mix; dividing by the median leaves
/// out a slowdown of a whole class, which the medians already show.
pub fn tail_ratio(by_class: &[Vec<f64>]) -> Option<(f64, Vec<Option<stats::Tail>>)> {
    let tails: Vec<Option<stats::Tail>> = by_class
        .iter()
        .map(|samples| stats::tail(samples, TAIL_PERCENTILE))
        .collect();
    let ratios: Vec<f64> = by_class
        .iter()
        .zip(&tails)
        .filter_map(|(samples, tail)| Some(tail.as_ref()?.value / stats::median(samples)))
        .collect();
    (!ratios.is_empty()).then(|| (stats::geomean(&ratios), tails))
}

/// Median over classes of `median(b[class]) - median(a[class])`, skipping
/// classes without samples on either side. Comparing per class keeps the
/// mix of each side from deciding the result; the median over classes keeps
/// one class with few, slow samples (freezes, Q1) from deciding it.
pub fn class_median_delta(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    let deltas: Vec<f64> = a
        .iter()
        .zip(b)
        .filter(|(a, b)| !a.is_empty() && !b.is_empty())
        .map(|(a, b)| stats::median(b) - stats::median(a))
        .collect();
    stats::median(&deltas)
}

/// Σ storage stats over every relation: (stored bytes, uncompressed bytes of
/// the same rows, hot rows, cold rows).
pub fn footprint(db: &storage::Database) -> (usize, usize, usize, usize) {
    db.relations().fold((0, 0, 0, 0), |acc, rel| {
        let s = rel.storage_stats();
        (
            acc.0 + s.total_bytes(),
            acc.1 + s.hot_bytes + s.cold_bytes_uncompressed,
            acc.2 + s.hot_rows,
            acc.3 + s.cold_rows,
        )
    })
}

/// What an untraced run measured.
pub struct Measured<'a> {
    /// Duration of each set-up, in seconds.
    pub setups: &'a [f64],
    /// Every operation of the timed phase.
    pub ops: &'a [Op],
    /// Wall time of the timed phase, in seconds.
    pub wall_s: f64,
    /// Stored and uncompressed bytes after set-up.
    pub footprint: (usize, usize),
    /// Resident set, in MiB.
    pub rss_mib: f64,
    /// Share of CPU time the host stole during the timed phase.
    pub steal: Option<f64>,
}

/// Record every end-to-end metric of an untraced run.
pub fn set_end_to_end(outcome: &mut Outcome, workload: Workload, m: &Measured<'_>) {
    outcome.set("setup_s", stats::median(m.setups));
    outcome.notes.push(format!(
        "setup_s: median of {} set-ups {:?} s",
        m.setups.len(),
        m.setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    if let Some(steal) = m.steal {
        outcome.notes.push(format!(
            "cpu time stolen by the host during the timed phase: {:.1} %",
            steal * 100.0
        ));
    }
    outcome.set("ops_per_s", m.ops.len() as f64 / m.wall_s);
    outcome.set("latency_p50_ms", stats::median(&latencies_ms(m.ops, None)));
    let by_class = latencies_by_class(m.ops);
    if let Some((value, tails)) = tail_ratio(&by_class) {
        outcome.set("latency_tail_ratio", value);
        let beyond: usize = tails.iter().flatten().map(|t| t.beyond).sum();
        outcome.notes.push(format!(
            "latency_tail_ratio: geometric mean over {} classes of each class's \
             p{TAIL_PERCENTILE} / p50; {beyond} samples beyond the p{TAIL_PERCENTILE}s in all{}",
            tails.iter().flatten().count(),
            if beyond >= stats::TAIL_SAMPLES_BEYOND {
                ""
            } else {
                " (fewer than 10: the tail is under-sampled)"
            }
        ));
        for (class, t) in workload.classes().iter().zip(&tails) {
            let Some(t) = t else { continue };
            outcome.notes.push(format!(
                "  {class}: p{} = {:.6} ms, {} of {} samples beyond it{}",
                t.percentile,
                t.value,
                t.beyond,
                t.samples,
                if t.supported() {
                    ""
                } else {
                    " (under-sampled)"
                }
            ));
        }
    }
    let ttfb: Vec<f64> = m
        .ops
        .iter()
        .map(|op| if op.ok { ms(op.ttfb_ns) } else { f64::INFINITY })
        .collect();
    outcome.set("ttfb_p50_ms", stats::median(&ttfb));
    outcome.set(
        "footprint_ratio",
        m.footprint.0 as f64 / m.footprint.1 as f64,
    );
    outcome.set("rss_mb", m.rss_mib);
    for (slot, samples) in by_class.iter().enumerate() {
        let name = END_TO_END[7 + slot].0;
        outcome.set(name, stats::median(samples));
        outcome.notes.push(format!(
            "{name}: {}, median of {} operations",
            workload.classes()[slot],
            samples.len()
        ));
    }
}

/// Mean microseconds per call of `f` over `items`, and whether every call
/// returned true.
pub fn per_call_us<T: Copy>(items: &[T], mut f: impl FnMut(T) -> bool) -> (f64, bool) {
    let t = std::time::Instant::now();
    let mut all_ok = true;
    for &item in items {
        all_ok &= std::hint::black_box(f(item));
    }
    (
        t.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64,
        all_ok,
    )
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
