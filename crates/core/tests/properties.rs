//! Property tests of the real runtime: parallel evaluation of random
//! expression trees agrees with serial evaluation, under every scheduler
//! mode and any hint assignment.

use numa_ws::{join, join_at, Place, Pool, SchedPolicy};
use nws_sync::atomic::{AtomicU64, Ordering};
use proptest::prelude::*;
use std::ops::Range;

/// A random expression tree with place hints on the stealable branches.
#[derive(Debug, Clone)]
enum Expr {
    Leaf(u64),
    Add(Box<Expr>, Box<Expr>, u8),
    Mul(Box<Expr>, Box<Expr>, u8),
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = any::<u64>().prop_map(Expr::Leaf);
    leaf.prop_recursive(6, 64, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), any::<u8>()).prop_map(|(a, b, p)| Expr::Add(
                Box::new(a),
                Box::new(b),
                p
            )),
            (inner.clone(), inner, any::<u8>()).prop_map(|(a, b, p)| Expr::Mul(
                Box::new(a),
                Box::new(b),
                p
            )),
        ]
    })
}

fn eval_serial(e: &Expr) -> u64 {
    match e {
        Expr::Leaf(v) => *v,
        Expr::Add(a, b, _) => eval_serial(a).wrapping_add(eval_serial(b)),
        Expr::Mul(a, b, _) => eval_serial(a).wrapping_mul(eval_serial(b)),
    }
}

fn eval_parallel(e: &Expr) -> u64 {
    match e {
        Expr::Leaf(v) => *v,
        Expr::Add(a, b, p) => {
            let place = if *p > 200 { Place::ANY } else { Place((*p % 4) as usize) };
            let (x, y) = join_at(|| eval_parallel(a), || eval_parallel(b), place);
            x.wrapping_add(y)
        }
        Expr::Mul(a, b, p) => {
            let place = if *p > 200 { Place::ANY } else { Place((*p % 4) as usize) };
            let (x, y) = join_at(|| eval_parallel(a), || eval_parallel(b), place);
            x.wrapping_mul(y)
        }
    }
}

/// Runs `body(i)` for every `i` in `range` by recursive `join` halving down
/// to `grain`-sized sequential leaves.
fn par_for(range: Range<usize>, grain: usize, body: &(impl Fn(usize) + Sync)) {
    if range.len() <= grain {
        range.for_each(body);
    } else {
        let mid = range.start + range.len() / 2;
        join(|| par_for(range.start..mid, grain, body), || par_for(mid..range.end, grain, body));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_eval_matches_serial(e in expr()) {
        // One shared pool per policy would be nicer, but proptest shrinking
        // appreciates isolation; pools are cheap at 4 workers.
        for policy in [SchedPolicy::vanilla(), SchedPolicy::numa_ws()] {
            let pool = Pool::builder().workers(4).places(2).policy(policy).build().unwrap();
            let serial = eval_serial(&e);
            let parallel = pool.install(|| eval_parallel(&e));
            prop_assert_eq!(parallel, serial, "policy {}", policy);
        }
    }

    #[test]
    fn par_for_equals_serial_fold(n in 1usize..3000, grain in 1usize..256) {
        let pool = Pool::builder().workers(4).places(2).build().unwrap();
        let acc = AtomicU64::new(0);
        pool.install(|| par_for(0..n, grain, &|i| {
            acc.fetch_add((i as u64).wrapping_mul(2654435761), Ordering::Relaxed);
        }));
        let expect: u64 = (0..n as u64)
            .map(|i| i.wrapping_mul(2654435761))
            .fold(0u64, u64::wrapping_add);
        prop_assert_eq!(acc.into_inner(), expect);
    }
}
