//! The policy-sweep driver: one ablation grid, two substrates.
//!
//! Runs the paper's four-cell scheduling-policy grid — vanilla /
//! bias-only / mailbox-only / full NUMA-WS, the presets of
//! `nws_topology::SchedPolicy::ablation_grid` — on **both** execution
//! substrates from a single driver:
//!
//! - the discrete-event simulator (`nws_sim`), on the Figure 1 paper
//!   machine with 32 workers over the heat benchmark's DAG, and
//! - the real threaded runtime (`numa_ws`), on this host, over a
//!   place-hinted join tree plus a scope round (so ingress, wakeup,
//!   scope-spawn, and pushback counters all light up).
//!
//! Because both substrates consume the *same* `SchedPolicy` value, each
//! table row is one policy described once — the repo's first end-to-end
//! Figure-style ablation. Output is three `nws_metrics` tables: the
//! side-by-side grid summary, then the full counter set per substrate.
//!
//! Since PR 7 the sweep also covers the *scheduler* axis: the three
//! [`Scheduler`](nws_sim::Scheduler) implementations (`numa-ws`,
//! `vanilla-ws`, `epoch-sync`, the presets of
//! `SchedPolicy::scheduler_grid`) run over the regular heat DAG **and**
//! the two irregular workloads (`gcmark`'s marking flood, `pipeline`'s
//! service mix) in the simulator, with the steal-based pair mirrored on
//! the real pool (`epoch-sync` needs the simulator's global clock and is
//! sim-only). A final section records a trace from the real pool and
//! replays it through every scheduler, asserting the replay is
//! deterministic — the same record→replay loop the golden tests pin.
//!
//! Run: `cargo run --release -p nws_bench --bin policy_sweep [-- --quick]`
//! (`--quick` is the CI smoke configuration: one grid cell, shrunk
//! workloads).

use numa_ws::{join_at, Place, Pool};
use nws_apps::{gcmark, pipeline};
use nws_bench::{machine, BenchId};
use nws_metrics::{counter_table, Table};
use nws_sim::{trace_to_dag, Counters, Dag, SchedPolicy, SimConfig, SimReport, Simulation};
use std::time::{Duration, Instant};

/// One grid cell's simulator measurement.
struct SimCell {
    makespan: u64,
    remote_share: f64,
    counters: Vec<(&'static str, u64)>,
}

/// The simulator's counters by name. Spawns come from the DAG; the
/// runtime-only counters (ingress, wakeups, overflow, scope spawns, batch
/// steals) have no analogue in the simulator's single-root model.
fn sim_counters(dag: &Dag, c: &Counters) -> Vec<(&'static str, u64)> {
    vec![
        ("spawns", dag.num_spawns()),
        ("steal_attempts", c.steal_attempts),
        ("steals", c.steals),
        ("remote_steals", c.remote_steals),
        ("mailbox_takes", c.mailbox_takes),
        ("push_attempts", c.push_attempts),
        ("push_deliveries", c.push_deliveries),
        ("push_failures", c.push_failures),
        ("epoch_waits", c.epoch_waits),
    ]
}

fn run_sim(policy: SchedPolicy, quick: bool) -> SimCell {
    let topo = machine();
    let bench = if quick { BenchId::Cilksort } else { BenchId::Heat };
    let dag = bench.dag(4);
    let cfg = SimConfig::with_policy(policy, 32).with_seed(42);
    let report = Simulation::new(&topo, cfg, &dag).expect("32 workers fit").run();
    SimCell {
        makespan: report.makespan,
        remote_share: report.counters.remote_steals as f64 / report.counters.steals.max(1) as f64,
        counters: sim_counters(&dag, &report.counters),
    }
}

/// A fine-grained binary tree whose stealable halves carry rotating place
/// hints — under a mailbox policy this exercises the coin flip and lazy
/// pushback; under vanilla the hints are ignored.
fn hinted_tree(d: u32, place: usize, places: usize) -> u64 {
    if d == 0 {
        // ~0.5µs of honest leaf work: the black_box keeps the loop from
        // const-folding to nothing, so thieves get a window to engage.
        let mut acc = std::hint::black_box(1u64);
        for i in 0..1000u64 {
            acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        return acc | 1;
    }
    let next = (place + 1) % places;
    let (a, b) = join_at(
        || hinted_tree(d - 1, place, places),
        || hinted_tree(d - 1, next, places),
        Place(next),
    );
    a.wrapping_add(b)
}

/// One grid cell's real-runtime measurement.
struct RealCell {
    wall: Duration,
    remote_share: f64,
    counters: Vec<(&'static str, u64)>,
}

fn run_real(policy: SchedPolicy, quick: bool) -> RealCell {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Floor of two workers: the steal protocol (and with it the whole
    // ablation surface) needs a thief, even on a one-core container —
    // oversubscription skews the wall column there, but the counters stay
    // meaningful.
    let workers = host.clamp(2, 8);
    let places = 2.min(workers);
    let pool = Pool::builder()
        .workers(workers)
        .places(places)
        .policy(policy)
        .seed(42)
        .build()
        .expect("pool");
    let depth = if quick { 6 } else { 10 };
    let roots = if quick { 2 } else { 8 };
    let scope_tasks: u64 = if quick { 64 } else { 1024 };
    // Warm up (thread startup, first faults), then measure from a clean
    // counter slate.
    pool.install(|| std::hint::black_box(hinted_tree(depth.min(6), 0, places)));
    pool.reset_stats();
    let start = Instant::now();
    // Roots through ingress (injector_takes), forking with hints (steals,
    // pushback), then a scope round (scope_spawns) per place.
    for r in 0..roots {
        let total = pool
            .install_at(Place(r % places), || std::hint::black_box(hinted_tree(depth, 0, places)));
        assert!(total != 0);
    }
    use nws_sync::atomic::{AtomicU64, Ordering};
    let acc = AtomicU64::new(0);
    pool.scope(|s| {
        for i in 0..scope_tasks {
            let acc = &acc;
            s.spawn_at(Place(i as usize % places), move |_| {
                acc.fetch_add(std::hint::black_box(i) | 1, Ordering::Relaxed);
            });
        }
    });
    assert!(acc.into_inner() > 0);
    let wall = start.elapsed();
    let stats = pool.stats();
    RealCell {
        wall,
        remote_share: stats.total_remote_steals() as f64 / stats.total_steals().max(1) as f64,
        counters: stats.counter_totals(),
    }
}

/// The scheduler-axis workloads: heat (regular) plus the two irregular
/// additions, at a scale keyed to `--quick`.
fn workloads(quick: bool) -> Vec<(&'static str, Dag)> {
    let (gp, pp) = if quick {
        (gcmark::Params::test(), pipeline::Params::test())
    } else {
        (gcmark::Params::sim(), pipeline::Params::sim())
    };
    vec![
        ("heat", if quick { BenchId::Cilksort.dag(4) } else { BenchId::Heat.dag(4) }),
        ("gcmark", gcmark::dag(gp, 4)),
        ("pipeline", pipeline::dag(pp, 4)),
    ]
}

fn sim_run(policy: &SchedPolicy, dag: &Dag, workers: usize) -> SimReport {
    let cfg = SimConfig::with_policy(*policy, workers).with_seed(42);
    Simulation::new(&machine(), cfg, dag).expect("workers fit").run()
}

/// Real-pool wall time for the two irregular workloads under a policy.
fn real_irregular(policy: &SchedPolicy, quick: bool) -> (Duration, Duration) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(2, 8);
    let places = 2.min(workers);
    let pool = Pool::builder()
        .workers(workers)
        .places(places)
        .policy(*policy)
        .seed(42)
        .build()
        .expect("pool");
    let gp = if quick { gcmark::Params::test() } else { gcmark::Params::default() };
    let g = gcmark::random_graph(gp);
    let t0 = Instant::now();
    let marked = pool.install(|| gcmark::run_parallel(&g, gp, places));
    assert!(marked.iter().any(|&m| m), "the flood must mark something");
    let gc_wall = t0.elapsed();
    let pp = if quick { pipeline::Params::test() } else { pipeline::Params::default() };
    let mut data = pipeline::initial_data(pp);
    let t0 = Instant::now();
    pool.install(|| pipeline::run_parallel(&mut data, pp, places));
    assert!(pipeline::checksum(&data) != 0);
    (gc_wall, t0.elapsed())
}

/// The scheduler-axis sweep: every `Scheduler` impl over every workload on
/// the simulator, the steal-based pair mirrored on the real pool.
fn scheduler_grid_section(quick: bool) {
    println!("-- scheduler grid: three Scheduler impls x three workloads --");
    let dags = workloads(quick);
    let mut table = Table::new(vec![
        "scheduler",
        "workload",
        "sim T32 (kcyc)",
        "sim steals",
        "epoch waits",
        "real gc (ms)",
        "real pipe (ms)",
    ]);
    for (name, policy) in SchedPolicy::scheduler_grid() {
        // epoch-sync needs the simulator's global clock: sim-only.
        let real =
            (policy.algo != nws_sim::SchedAlgo::EpochSync).then(|| real_irregular(&policy, quick));
        for (wname, dag) in &dags {
            let r = sim_run(&policy, dag, 32);
            let (gc, pipe) =
                real.as_ref().map_or(("-".into(), "-".into()), |(g, p): &(Duration, Duration)| {
                    (
                        format!("{:.2}", g.as_secs_f64() * 1e3),
                        format!("{:.2}", p.as_secs_f64() * 1e3),
                    )
                });
            table.row(vec![
                name.to_string(),
                wname.to_string(),
                format!("{}", r.makespan / 1000),
                r.counters.steals.to_string(),
                r.counters.epoch_waits.to_string(),
                gc,
                pipe,
            ]);
        }
    }
    println!("{table}");
}

/// Record a trace on the real pool, replay it through every scheduler, and
/// assert the replay is deterministic (the record→replay loop).
fn trace_replay_section(quick: bool) {
    println!("-- record/replay: real-pool trace through every scheduler --");
    let pool =
        Pool::builder().workers(4).places(2).seed(42).record_trace(true).build().expect("pool");
    let gp = if quick { gcmark::Params::test() } else { gcmark::Params::sim() };
    let g = gcmark::random_graph(gp);
    pool.install(|| std::hint::black_box(gcmark::run_parallel(&g, gp, 2)));
    let trace = pool.take_trace("policy_sweep-gcmark").expect("recording was enabled");
    trace.validate().expect("recorded trace is well-formed");
    let dag = trace_to_dag(&trace, nws_sim::DEFAULT_NS_PER_CYCLE);
    println!(
        "recorded {} tasks ({} started) over {} ns; replaying as a {}-frame DAG",
        trace.tasks.len(),
        trace.num_started(),
        trace.total_ns(),
        dag.num_frames()
    );
    let mut table = Table::new(vec!["scheduler", "replay T32 (kcyc)", "steals", "deterministic"]);
    for (name, policy) in SchedPolicy::scheduler_grid() {
        let cfg = SimConfig::with_policy(policy, 32).with_seed(42).with_log_schedule(true);
        let a = Simulation::new(&machine(), cfg.clone(), &dag).expect("fits").run();
        let b = Simulation::new(&machine(), cfg, &dag).expect("fits").run();
        assert_eq!(a.schedule, b.schedule, "{name}: replay must be deterministic");
        assert_eq!(a.makespan, b.makespan, "{name}: replay must be deterministic");
        table.row(vec![
            name.to_string(),
            format!("{}", a.makespan / 1000),
            a.counters.steals.to_string(),
            "yes".to_string(),
        ]);
    }
    println!("{table}");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let grid: Vec<(&'static str, SchedPolicy)> = if quick {
        vec![("numa-ws", SchedPolicy::numa_ws())]
    } else {
        SchedPolicy::ablation_grid().to_vec()
    };

    let cells: Vec<(&'static str, SchedPolicy, SimCell, RealCell)> = grid
        .into_iter()
        .map(|(name, policy)| {
            let sim = run_sim(policy, quick);
            let real = run_real(policy, quick);
            (name, policy, sim, real)
        })
        .collect();

    println!("== Policy sweep: the NUMA-WS ablation grid on both substrates ==");
    println!("(one SchedPolicy value per row drives the simulator AND the real pool)\n");
    let mut summary = Table::new(vec![
        "policy",
        "sim T32 (kcyc)",
        "sim remote share",
        "real wall (ms)",
        "real remote share",
    ]);
    for (name, _, sim, real) in &cells {
        summary.row(vec![
            name.to_string(),
            format!("{}", sim.makespan / 1000),
            format!("{:.2}", sim.remote_share),
            format!("{:.2}", real.wall.as_secs_f64() * 1e3),
            format!("{:.2}", real.remote_share),
        ]);
    }
    println!("{summary}");

    println!("-- simulator counters (heat DAG, 32 workers, paper machine) --");
    let sim_rows: Vec<_> =
        cells.iter().map(|(name, _, sim, _)| (*name, sim.counters.clone())).collect();
    println!("{}", counter_table("policy", &sim_rows));

    println!("-- runtime counters (hinted tree + scope round, this host) --");
    let real_rows: Vec<_> =
        cells.iter().map(|(name, _, _, real)| (*name, real.counters.clone())).collect();
    println!("{}", counter_table("policy", &real_rows));

    for (name, policy, _, _) in &cells {
        println!("{name:>14}: {policy}");
    }
    println!();

    scheduler_grid_section(quick);
    trace_replay_section(quick);
}
