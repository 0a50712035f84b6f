//! Self-tests of the benchmark's own checks and statistics.

use kite::api::Op;
use kite_common::{Key, Val};
use perfbench::stats::{quantile_with_failures, sorted};
use perfbench::workload::{check_value, open_schedule, spec, tagged, Gen, WORKLOADS};

#[test]
fn provenance_rejects_a_forged_read() {
    let key = Key(7);
    // Legitimate: the key's own value with an already-submitted tag, or
    // the never-written empty value.
    assert!(check_value(key, &tagged(key, 5), 5).is_ok());
    assert!(check_value(key, &Val::EMPTY, 5).is_ok());
    // Another key's value.
    assert!(check_value(key, &tagged(Key(8), 5), 5).is_err());
    // A tag nobody submitted yet.
    assert!(check_value(key, &tagged(key, 6), 5).is_err());
    // Tag 0 is never handed out.
    assert!(check_value(key, &tagged(key, 0), 5).is_err());
    // A value of the wrong shape.
    assert!(check_value(key, &Val::from_u64(7), 5).is_err());
}

#[test]
fn failed_ops_count_as_infinite_latency() {
    let ok = sorted((1..=98).map(f64::from).collect());
    // 98 completed + 2 failed: the top 1% is failures.
    assert_eq!(quantile_with_failures(&ok, 2, 0.99), f64::INFINITY);
    assert_eq!(quantile_with_failures(&ok, 2, 0.50), 50.0);
    // 99 completed + 1 failed: p99 is the 99th sample, p100 the failure.
    let ok = sorted((1..=99).map(f64::from).collect());
    assert_eq!(quantile_with_failures(&ok, 1, 0.99), 99.0);
    assert_eq!(quantile_with_failures(&ok, 1, 1.0), f64::INFINITY);
    // Every op failed.
    assert_eq!(quantile_with_failures(&[], 3, 0.50), f64::INFINITY);
}

fn fingerprint(plan: &[perfbench::workload::Planned]) -> Vec<(u64, usize, String)> {
    plan.iter().map(|p| (p.at_ns, p.conn, format!("{:?}", p.op))).collect()
}

#[test]
fn seeded_arrival_schedules_repeat() {
    for w in WORKLOADS.iter().filter(|w| matches!(w.drive, perfbench::workload::Drive::Open { .. }))
    {
        let perfbench::workload::Drive::Open { rate } = w.drive else { unreachable!() };
        let s = spec(w.name).expect("listed workload");
        let a = open_schedule(&mut Gen::new(s, 42, 1), rate, 0.2);
        let b = open_schedule(&mut Gen::new(s, 42, 1), rate, 0.2);
        let c = open_schedule(&mut Gen::new(s, 43, 1), rate, 0.2);
        assert!(!a.is_empty());
        assert_eq!(fingerprint(&a), fingerprint(&b), "{}: same seed, same schedule", w.name);
        assert_ne!(fingerprint(&a), fingerprint(&c), "{}: another seed, another schedule", w.name);
        assert!(a.windows(2).all(|p| p[0].at_ns <= p[1].at_ns), "arrivals are ordered");
        // The schedule holds the offered rate (Poisson: well within 20%).
        let n = a.len() as f64;
        assert!((n - rate * 0.2).abs() < rate * 0.2 * 0.2, "{}: {n} arrivals", w.name);
    }
}

#[test]
fn generated_writes_carry_their_key_and_unique_tags() {
    let s = spec("write_rmw_closed").expect("listed workload");
    let mut g = Gen::new(s, 9, 100);
    let mut tags = Vec::new();
    for _ in 0..2000 {
        if let Op::Write { key, val } | Op::Release { key, val } = g.op() {
            assert!(check_value(key, &val, g.next_tag() - 1).is_ok());
            tags.push(u64::from_le_bytes(val.as_bytes()[8..].try_into().unwrap()));
        }
    }
    let n = tags.len();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), n, "tags are unique");
    assert_eq!(tags[0], 100, "tags start at the first tag");
}
