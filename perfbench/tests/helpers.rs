//! Tests of the benchmark's own helpers: the tail-percentile rule, span self
//! time, seeded parameters, query compilation and the result checks.

use std::sync::Arc;
use std::time::Instant;

use datablocks::{DataType, Value};
use exec::{Batch, ScanConfig};
use perfbench::check::{compare_close, digest, Expected};
use perfbench::params::{variants, OpOrder, OLAP_CLASSES, SCAN_CLASSES};
use perfbench::stats::{median, tail};
use perfbench::tpch_bench::{reference, wire_query};
use perfbench::trace::{self_times, Span, Tracer};
use perfbench::{tail_ratio, Outcome, END_TO_END, PER_LAYER, TAIL_PERCENTILE};
use query::net::{ClientConfig, WireClient, WireConfig, WireServer};
use query::{Connect, QueryService, ServiceConfig};
use workloads::TpchDb;

fn samples(n: usize) -> Vec<f64> {
    // Shuffled 1..=n: the rule must not depend on input order.
    (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
}

#[test]
fn tail_with_fewer_than_ten_samples_beyond_is_flagged() {
    let t = tail(&samples(7), 90.0).expect("samples");
    assert_eq!((t.value, t.beyond, t.samples), (7.0, 0, 7));
    assert!(!t.supported());
    assert!(tail(&[], 90.0).is_none());
    // p99.99 of 1000 samples is the maximum, with nothing beyond it.
    let t = tail(&samples(1000), 99.99).expect("samples");
    assert_eq!((t.value, t.beyond), (1000.0, 0));
    assert!(!t.supported());
}

#[test]
fn tail_is_the_nearest_rank_percentile() {
    let t = tail(&samples(100), 90.0).expect("samples");
    assert_eq!((t.value, t.beyond), (90.0, 10));
    assert!(t.supported());
    let t = tail(&samples(1000), 90.0).expect("samples");
    assert_eq!((t.value, t.beyond), (900.0, 100));
    let t = tail(&samples(1000), 99.0).expect("samples");
    assert_eq!((t.value, t.beyond), (990.0, 10));
    assert_eq!(median(&samples(1000)), 500.5);
}

#[test]
fn tail_ratio_is_taken_within_each_class() {
    let scaled = |n: usize, by: f64| samples(n).iter().map(|v| v * by).collect::<Vec<_>>();
    // A slow class that is a third of the samples would own a pooled p90.
    let by_class = vec![scaled(100, 1.0), scaled(100, 4.0), scaled(100, 1000.0)];
    let (value, tails) = tail_ratio(&by_class).expect("samples");
    assert_eq!(TAIL_PERCENTILE, 90.0);
    assert_eq!(
        tails.iter().map(|t| t.unwrap().value).collect::<Vec<_>>(),
        vec![90.0, 360.0, 90_000.0]
    );
    // Each class's p90 is 90 / 50.5 times its median.
    assert!((value - 90.0 / 50.5).abs() < 1e-9);
    // Neither the mix nor a slowdown of a whole class moves it.
    let mut remixed = by_class.clone();
    remixed[0] = by_class[0].repeat(10);
    remixed[1] = scaled(100, 12.0);
    assert!((tail_ratio(&remixed).unwrap().0 - value).abs() < 1e-9);
    // A tail spike in any class does, by the same share.
    for class in 0..by_class.len() {
        let (mut spiked, p90) = (by_class.clone(), tails[class].unwrap().value);
        for v in spiked[class].iter_mut().filter(|v| **v >= p90) {
            *v *= 8.0;
        }
        assert!((tail_ratio(&spiked).unwrap().0 / value - 2.0).abs() < 1e-9);
    }
    // Empty classes are skipped; a failed operation (+inf) is never hidden.
    let (value, tails) = tail_ratio(&[vec![], scaled(10, 1.0)]).expect("samples");
    assert!((value - 9.0 / 5.5).abs() < 1e-9 && tails[0].is_none());
    assert!(tail_ratio(&[vec![], vec![]]).is_none());
    let mut failed = by_class.clone();
    failed[1].extend([f64::INFINITY; 20]);
    assert!(tail_ratio(&failed).unwrap().0.is_infinite());
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s",
        start_ns,
        end_ns,
        parent,
        request: 1,
    }
}

#[test]
fn self_time_subtracts_nested_and_adjacent_children_once() {
    let spans = vec![
        span(0, 100, None),     // 0: root
        span(10, 30, Some(0)),  // 1: child
        span(30, 50, Some(0)),  // 2: adjacent child
        span(40, 60, Some(0)),  // 3: overlaps child 2
        span(12, 20, Some(1)),  // 4: grandchild, not the root's business
        span(90, 120, Some(0)), // 5: runs past the root's end
    ];
    let got = self_times(&spans);
    // Root: 100 - (10..60 = 50) - (90..100 = 10).
    assert_eq!(got, vec![40, 12, 20, 20, 8, 30]);
}

#[test]
fn tracer_keeps_parent_links_when_absorbing() {
    let epoch = Instant::now();
    let mut a = Tracer::new(epoch, true);
    let root = a.begin("op", None, 1);
    a.span("child", Some(root), 1, || ());
    a.end(root);
    let mut b = Tracer::new(epoch, true);
    b.absorb(a);
    let mut c = Tracer::new(epoch, true);
    let root = c.begin("op", None, 2);
    c.span("child", Some(root), 2, || ());
    c.end(root);
    b.absorb(c);
    let parents: Vec<_> = b.spans().iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![None, Some(0), None, Some(2)]);

    let mut off = Tracer::new(epoch, false);
    off.span("x", None, 0, || ());
    assert!(off.spans().is_empty());
}

#[test]
fn parameters_are_determined_by_the_seed() {
    for class in OLAP_CLASSES.iter().chain(&SCAN_CLASSES) {
        let a = variants(class, 7, 8);
        assert_eq!(
            a,
            variants(class, 7, 8),
            "{class}: same seed, same variants"
        );
        let b = variants(class, 8, 8);
        // Variant 0 of a TPC-H class is the checked-in text for every seed.
        let seeded = usize::from(class.starts_with('Q'));
        assert_eq!(a[0].checked_in, seeded == 1, "{class}");
        assert_ne!(
            a[seeded..],
            b[seeded..],
            "{class}: distinct seeds must differ"
        );
        let distinct: std::collections::BTreeSet<_> = a.iter().map(|v| &v.sql).collect();
        assert!(distinct.len() > 1, "{class}: variants must differ");
    }
    let rounds = |seed| {
        let mut order = OpOrder::new(seed, 0, 5, 4);
        (0..8).map(|_| order.next_round()).collect::<Vec<_>>()
    };
    let first = rounds(3);
    assert_eq!(first, rounds(3));
    assert_ne!(first, rounds(4));
    // Each round runs every class once; every 4 rounds cover each (class,
    // variant) pair once.
    for round in &first {
        let mut classes: Vec<_> = round.iter().map(|&(c, _)| c).collect();
        classes.sort_unstable();
        assert_eq!(classes, vec![0, 1, 2, 3, 4]);
    }
    for window in first.chunks(4) {
        let mut pairs: Vec<_> = window.concat();
        pairs.sort_unstable();
        let all: Vec<_> = (0..5).flat_map(|c| (0..4).map(move |v| (c, v))).collect();
        assert_eq!(pairs, all);
    }
}

fn small_tpch() -> TpchDb {
    let mut tpch = TpchDb::generate(0.01);
    tpch.freeze();
    tpch
}

#[test]
fn every_generated_query_compiles_and_passes_its_reference_checks() {
    let tpch = small_tpch();
    let session = tpch.db.connect();
    for seed in [1, 2, 3] {
        for class in OLAP_CLASSES.iter().chain(&SCAN_CLASSES) {
            for spec in variants(class, seed, 8) {
                session
                    .compile_sql(&spec.sql)
                    .unwrap_or_else(|err| panic!("{} does not compile: {err}", spec.sql));
            }
        }
    }
    for class in OLAP_CLASSES.iter().chain(&SCAN_CLASSES) {
        for spec in variants(class, 1, 3) {
            reference(&tpch, &spec, 2).unwrap_or_else(|err| panic!("{err}"));
        }
    }
}

fn ints(values: &[i64]) -> Batch {
    let rows: Vec<Vec<Value>> = values.iter().map(|&v| vec![Value::Int(v)]).collect();
    Batch::from_rows(&[DataType::Int], &rows)
}

fn doubles(values: &[f64]) -> Batch {
    let rows: Vec<Vec<Value>> = values.iter().map(|&v| vec![Value::Double(v)]).collect();
    Batch::from_rows(&[DataType::Double], &rows)
}

#[test]
fn exact_check_flags_one_row_and_one_ulp() {
    let want = Expected::Exact(digest(&[doubles(&[1.5, 2.5])]));
    // Batch boundaries do not matter.
    assert!(want.check(&[doubles(&[1.5]), doubles(&[2.5])]).is_ok());
    assert!(want.check(&[doubles(&[1.5])]).is_err(), "a missing row");
    assert!(
        want.check(&[doubles(&[1.5, 2.5, 2.5])]).is_err(),
        "an extra row"
    );
    let ulp = f64::from_bits(2.5f64.to_bits() + 1);
    assert!(want.check(&[doubles(&[1.5, ulp])]).is_err(), "one ulp");
    assert!(
        Expected::Exact(digest(&[ints(&[1, 2])]))
            .check(&[ints(&[2, 1])])
            .is_err(),
        "row order"
    );
}

#[test]
fn close_check_flags_one_row_and_real_differences() {
    let want = Expected::Close(doubles(&[1000.0]));
    assert!(
        want.check(&[doubles(&[1000.0 + 1e-10])]).is_ok(),
        "re-association noise"
    );
    assert!(
        want.check(&[doubles(&[1000.001])]).is_err(),
        "a real difference"
    );
    assert!(
        want.check(&[doubles(&[1000.0, 1.0])]).is_err(),
        "an extra row"
    );
    assert!(
        compare_close(&ints(&[1]), &ints(&[2])).is_err(),
        "integers are exact"
    );
}

#[test]
fn a_corrupted_expected_result_counts_as_a_failure() {
    let tpch = small_tpch();
    let spec = variants("Q6", 5, 2).remove(1);
    let good = reference(&tpch, &spec, 1).expect("reference");
    let Expected::Exact(d) = good.clone() else {
        panic!("a serial plan is checked exactly");
    };
    let corrupted = Expected::Exact(perfbench::check::Digest {
        hash: d.hash ^ 1,
        ..d
    });

    let service = Arc::new(QueryService::new(
        Arc::new(tpch.db),
        ScanConfig::default(),
        ServiceConfig::default(),
    ));
    let server = WireServer::serve(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireConfig {
            auth_token: "t".into(),
            ..WireConfig::default()
        },
    )
    .expect("bind");
    let mut client = WireClient::connect(
        server.local_addr(),
        &ClientConfig {
            auth_token: "t".into(),
            ..ClientConfig::default()
        },
    )
    .expect("handshake");
    let mut tracer = Tracer::new(Instant::now(), false);
    let (op, err) = wire_query(&mut client, &spec, 0, &good, &mut tracer, 1);
    assert!(op.ok && err.is_none(), "{err:?}");
    let (op, err) = wire_query(&mut client, &spec, 0, &corrupted, &mut tracer, 2);
    assert!(!op.ok && err.is_some());
    drop(client);
    server.shutdown();

    let mut outcome = Outcome {
        attempted: 2,
        ..Outcome::default()
    };
    outcome.fail(err.expect("failure"));
    for (name, _) in END_TO_END {
        outcome.set(name, 1.0);
    }
    let line = outcome.result_json(&END_TO_END).expect("all metrics");
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
}

#[test]
fn benchmark_json_lists_every_metric_the_command_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        spec.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}
