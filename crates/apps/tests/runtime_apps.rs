//! Cross-crate integration: every paper benchmark runs on the *real*
//! threaded runtime in every scheduler mode and agrees with its serial
//! elision / oracle.

use numa_ws::{Pool, SchedPolicy};
use nws_apps::{cg, cilksort, common, heat, hull, matmul, strassen};
use nws_layout::{BlockedZ, Matrix};

fn pools() -> Vec<Pool> {
    [SchedPolicy::vanilla(), SchedPolicy::numa_ws()]
        .into_iter()
        .map(|policy| Pool::builder().workers(8).places(4).policy(policy).build().unwrap())
        .collect()
}

/// The bit patterns of `v`: heat and cg fix the order of every
/// floating-point operation in their recursions, so the pool must match
/// the serial elision exactly.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn all_benchmarks_correct_on_both_modes() {
    for pool in pools() {
        // cilksort
        let p = cilksort::Params::test();
        let mut data = common::random_keys(p.n, 1);
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut tmp = vec![0u64; p.n];
        pool.install(|| cilksort::sort_parallel(&mut data, &mut tmp, p, 4));
        assert_eq!(data, expect, "cilksort on {}", pool.policy());

        // heat
        let p = heat::Params::test();
        let mut g1 = heat::initial_grid(p.rows, p.cols);
        let mut s1 = vec![0.0; g1.len()];
        heat::run_serial(&mut g1, &mut s1, p);
        let mut g2 = heat::initial_grid(p.rows, p.cols);
        let mut s2 = vec![0.0; g2.len()];
        pool.install(|| heat::run_parallel(&mut g2, &mut s2, p, 4));
        assert_eq!(bits(&g1), bits(&g2), "heat on {}", pool.policy());

        // cg
        let p = cg::Params::test();
        let a = cg::Csr::random_spd(p, 2);
        let b: Vec<f64> = (0..p.n).map(|i| (i as f64).sin()).collect();
        let xs = cg::solve_serial(&a, &b, p);
        let xp = pool.install(|| cg::solve_parallel(&a, &b, p, 4));
        assert_eq!(bits(&xs), bits(&xp), "cg on {}", pool.policy());

        // hull (both datasets)
        let p = hull::Params::test();
        for pts in [common::points_in_disk(p.n, 3), common::points_on_circle(p.n, 3)] {
            let hs = hull::hull_serial(&pts);
            let hp = pool.install(|| hull::hull_parallel(&pts, p, 4));
            let norm = |h: &[common::Point]| {
                let mut v: Vec<(i64, i64)> =
                    h.iter().map(|q| ((q.x * 1e9) as i64, (q.y * 1e9) as i64)).collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            assert_eq!(norm(&hs), norm(&hp), "hull on {}", pool.policy());
        }

        // matmul (both layouts)
        let p = matmul::Params::test();
        let a = Matrix::from_fn(p.n, p.n, |i, j| ((i + j) % 5) as f64);
        let b = Matrix::from_fn(p.n, p.n, |i, j| ((i * 2 + j) % 7) as f64);
        let mut c_serial = Matrix::zeros(p.n, p.n);
        matmul::mul_serial(&a, &b, &mut c_serial, p);
        let mut c_par = Matrix::zeros(p.n, p.n);
        pool.install(|| matmul::mul_parallel(&a, &b, &mut c_par, p));
        assert_eq!(c_par, c_serial, "matmul on {}", pool.policy());

        let za = BlockedZ::from_matrix(&a, p.block);
        let zb = BlockedZ::from_matrix(&b, p.block);
        let mut zc = BlockedZ::zeros(p.n, p.block);
        pool.install(|| matmul::mul_blocked_parallel(&za, &zb, &mut zc, p));
        assert_eq!(zc.to_matrix(), c_serial, "matmul-z on {}", pool.policy());

        // strassen
        let p = strassen::Params::test();
        let a = Matrix::from_fn(p.n, p.n, |i, j| ((i * 3 + j) % 4) as f64);
        let b = Matrix::from_fn(p.n, p.n, |i, j| ((i + 2 * j) % 6) as f64);
        let cs = strassen::mul_serial(&a, &b, p);
        let cp = pool.install(|| strassen::mul_parallel(&a, &b, p));
        assert_eq!(cp, cs, "strassen on {}", pool.policy());
    }
}

#[test]
fn processor_obliviousness_same_code_any_pool_shape() {
    // Paper §V-C: the same application code runs across worker/socket
    // counts with no modification — only the pool configuration changes.
    let p = cilksort::Params::test();
    let keys = common::random_keys(p.n, 9);
    let mut expect = keys.clone();
    expect.sort_unstable();
    for (workers, places) in [(1, 1), (2, 1), (3, 1), (4, 2), (6, 3), (8, 4)] {
        let pool = Pool::builder().workers(workers).places(places).build().unwrap();
        let mut data = keys.clone();
        let mut tmp = vec![0u64; p.n];
        // The code always names 4 quarters; hints wrap modulo `places`.
        pool.install(|| cilksort::sort_parallel(&mut data, &mut tmp, p, 4));
        assert_eq!(data, expect, "P={workers} S={places}");
    }
}

#[test]
fn stats_expose_numa_ws_machinery_only_in_numa_mode() {
    let p = heat::Params::test();
    for (policy, expect_pushes) in [(SchedPolicy::vanilla(), false), (SchedPolicy::numa_ws(), true)]
    {
        let pool = Pool::builder().workers(8).places(4).policy(policy).build().unwrap();
        // Run a few times to give stealing a window.
        for _ in 0..5 {
            let mut g = heat::initial_grid(p.rows, p.cols);
            let mut s = vec![0.0; g.len()];
            pool.install(|| heat::run_parallel(&mut g, &mut s, p, 4));
        }
        let pushes = pool.stats().total_push_deliveries();
        if expect_pushes {
            // NUMA-WS is allowed to push (not strictly required on a tiny
            // grid, but attempts should at least be possible) — assert the
            // counters are wired rather than a specific count.
            let attempts: u64 = pool.stats().workers.iter().map(|w| w.push_attempts).sum();
            assert!(attempts >= pushes);
        } else {
            assert_eq!(pushes, 0, "classic mode must never push");
        }
    }
}
