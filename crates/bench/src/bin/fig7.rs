//! Regenerates the paper's **Figure 7** table: `TS`, `T1`, `T32` for every
//! benchmark on both platforms, with spawn overhead (`T1/TS`) and
//! scalability (`T1/T32`) in parentheses.
//!
//! Run: `cargo run --release -p nws_bench --bin fig7`
//! Host-scale work-efficiency check: `... --bin fig7 -- --real`

use nws_bench::{measure, secs, BenchId};
use nws_topology::SchedPolicy;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--real") {
        real_mode();
        return;
    }
    let p = 32;
    let mut table = nws_metrics::Table::new(vec![
        "benchmark",
        "TS",
        "T1 classic",
        "T32 classic",
        "T1 numa-ws",
        "T32 numa-ws",
    ]);
    println!("Figure 7: execution times in simulated milliseconds (2.2 GHz), P = {p}");
    println!("(parentheses: T1 column = spawn overhead T1/TS; T32 column = scalability T1/T32)\n");
    let ms = |cycles: u64| secs(cycles) * 1e3;
    for bench in BenchId::all() {
        let classic = measure(bench, SchedPolicy::vanilla(), p, 42);
        let numa = measure(bench, SchedPolicy::numa_ws(), p, 42);
        table.row(vec![
            bench.name().to_string(),
            format!("{:.2}", ms(classic.ts)),
            format!("{:.2} ({:.2}x)", ms(classic.t1), classic.spawn_overhead()),
            format!("{:.2} ({:.2}x)", ms(classic.tp), classic.scalability()),
            format!("{:.2} ({:.2}x)", ms(numa.t1), numa.spawn_overhead()),
            format!("{:.2} ({:.2}x)", ms(numa.tp), numa.scalability()),
        ]);
    }
    println!("{table}");
}

/// Host-scale supplement: runs the *real* runtime on this machine and
/// reports TS, T1 and T_P wall-clock for each benchmark — the
/// work-efficiency claim (`T1/TS ≈ 1`) on real hardware.
fn real_mode() {
    use numa_ws::{Pool, SchedPolicy};
    use nws_apps::{cg, cilksort, heat, hull, matmul, strassen};
    use std::time::Instant;

    let host = std::thread::available_parallelism().map_or(8, |n| n.get()).min(24);
    let places = 4.min(host);
    println!("Figure 7 (real runtime on this host): P = {host}, places = {places}\n");
    let mut table = nws_metrics::Table::new(vec![
        "benchmark",
        "TS",
        "T1 classic",
        "TP classic",
        "T1 numa-ws",
        "TP numa-ws",
    ]);

    let time = |f: &mut dyn FnMut()| -> f64 {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    // The four timed cells of every row: T1 and TP under each platform.
    let (vanilla, numa) = (SchedPolicy::vanilla(), SchedPolicy::numa_ws());
    let cells = [(vanilla, 1), (vanilla, host), (numa, 1), (numa, host)];
    let pool_t = |policy: SchedPolicy, workers: usize, f: &mut (dyn FnMut() + Send)| -> f64 {
        let pool = Pool::builder()
            .workers(workers)
            .places(places.min(workers))
            .policy(policy)
            .stats(false)
            .build()
            .expect("pool");
        let t0 = Instant::now();
        pool.install(f);
        t0.elapsed().as_secs_f64()
    };

    // cilksort
    {
        let p = cilksort::Params::default();
        let data = nws_apps::common::random_keys(p.n, 7);
        let run_serial = |d: &mut Vec<u64>| {
            let mut tmp = vec![0u64; d.len()];
            cilksort::sort_serial(d, &mut tmp, p);
        };
        let mut d = data.clone();
        let ts = time(&mut || run_serial(&mut d));
        let mut row = vec!["cilksort".to_string(), format!("{ts:.2}")];
        for (policy, workers) in cells {
            let mut d = data.clone();
            let mut tmp = vec![0u64; d.len()];
            let t = pool_t(policy, workers, &mut || {
                cilksort::sort_parallel(&mut d, &mut tmp, p, places)
            });
            row.push(format!("{t:.2} ({:.2}x)", if workers == 1 { t / ts } else { ts / t }));
        }
        table.row(row);
    }

    // heat
    {
        let p = heat::Params::default();
        let mut row = vec!["heat".to_string()];
        let mut g = heat::initial_grid(p.rows, p.cols);
        let mut s = vec![0.0; g.len()];
        let ts = time(&mut || heat::run_serial(&mut g, &mut s, p));
        row.push(format!("{ts:.2}"));
        for (policy, workers) in cells {
            let mut g = heat::initial_grid(p.rows, p.cols);
            let mut s = vec![0.0; g.len()];
            let t = pool_t(policy, workers, &mut || heat::run_parallel(&mut g, &mut s, p, places));
            row.push(format!("{t:.2} ({:.2}x)", if workers == 1 { t / ts } else { ts / t }));
        }
        table.row(row);
    }

    // matmul + matmul-z
    {
        let p = matmul::Params::default();
        let a = nws_layout::Matrix::from_fn(p.n, p.n, |i, j| ((i + j) % 7) as f64);
        let b = nws_layout::Matrix::from_fn(p.n, p.n, |i, j| ((i * 3 + j) % 5) as f64);
        let mut c = nws_layout::Matrix::zeros(p.n, p.n);
        let ts = time(&mut || matmul::mul_serial(&a, &b, &mut c, p));
        let mut row = vec!["matmul".to_string(), format!("{ts:.2}")];
        for (policy, workers) in cells {
            let mut c = nws_layout::Matrix::zeros(p.n, p.n);
            let t = pool_t(policy, workers, &mut || matmul::mul_parallel(&a, &b, &mut c, p));
            row.push(format!("{t:.2} ({:.2}x)", if workers == 1 { t / ts } else { ts / t }));
        }
        table.row(row);

        let za = nws_layout::BlockedZ::from_matrix(&a, p.block);
        let zb = nws_layout::BlockedZ::from_matrix(&b, p.block);
        let mut zc = nws_layout::BlockedZ::zeros(p.n, p.block);
        let ts = time(&mut || matmul::mul_blocked_serial(&za, &zb, &mut zc, p));
        let mut row = vec!["matmul-z".to_string(), format!("{ts:.2}")];
        for (policy, workers) in cells {
            let mut zc = nws_layout::BlockedZ::zeros(p.n, p.block);
            let t =
                pool_t(policy, workers, &mut || matmul::mul_blocked_parallel(&za, &zb, &mut zc, p));
            row.push(format!("{t:.2} ({:.2}x)", if workers == 1 { t / ts } else { ts / t }));
        }
        table.row(row);
    }

    // strassen (z form only at host scale; row-major adds transforms)
    {
        let p = strassen::Params::default();
        let a = nws_layout::Matrix::from_fn(p.n, p.n, |i, j| ((i + 2 * j) % 9) as f64);
        let b = nws_layout::Matrix::from_fn(p.n, p.n, |i, j| ((2 * i + j) % 11) as f64);
        let ts = time(&mut || {
            let _ = strassen::mul_serial(&a, &b, p);
        });
        let mut row = vec!["strassen".to_string(), format!("{ts:.2}")];
        for (policy, workers) in cells {
            let t = pool_t(policy, workers, &mut || {
                let _ = strassen::mul_parallel(&a, &b, p);
            });
            row.push(format!("{t:.2} ({:.2}x)", if workers == 1 { t / ts } else { ts / t }));
        }
        table.row(row);
    }

    // hull1 + hull2
    for (name, pts) in [
        ("hull1", nws_apps::common::points_in_disk(hull::Params::default().n, 11)),
        ("hull2", nws_apps::common::points_on_circle(hull::Params::default().n, 12)),
    ] {
        let p = hull::Params::default();
        let ts = time(&mut || {
            let _ = hull::hull_serial(&pts);
        });
        let mut row = vec![name.to_string(), format!("{ts:.2}")];
        for (policy, workers) in cells {
            let t = pool_t(policy, workers, &mut || {
                let _ = hull::hull_parallel(&pts, p);
            });
            row.push(format!("{t:.2} ({:.2}x)", if workers == 1 { t / ts } else { ts / t }));
        }
        table.row(row);
    }

    // cg
    {
        let p = cg::Params::default();
        let a = cg::Csr::random_spd(p, 13);
        let b: Vec<f64> = (0..p.n).map(|i| (i as f64).cos()).collect();
        let ts = time(&mut || {
            let _ = cg::solve_serial(&a, &b, p);
        });
        let mut row = vec!["cg".to_string(), format!("{ts:.2}")];
        for (policy, workers) in cells {
            let t = pool_t(policy, workers, &mut || {
                let _ = cg::solve_parallel(&a, &b, p, places);
            });
            row.push(format!("{t:.2} ({:.2}x)", if workers == 1 { t / ts } else { ts / t }));
        }
        table.row(row);
    }

    println!("{table}");
    println!(
        "(T1 parentheses: spawn overhead T1/TS — the work-efficiency claim; TP: speedup TS/TP)"
    );
}
