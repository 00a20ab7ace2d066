//! Ablations of the NUMA-WS design choices the paper argues for (§III-B,
//! §IV, §V-A): mailbox capacity, pushing threshold, the coin flip, biased
//! victim selection, locality hints, the OS page policy, and strassen's
//! top-eight-way hints.
//!
//! Run: `cargo run --release -p nws_bench --bin ablation [-- <name>]`
//! where `<name>` is `all` (the default) or one of `mailbox`,
//! `threshold`, `coinflip`, `bias`, `hints`, `policy`, `top8`. Any other
//! name prints the valid ones and exits with status 2.

use nws_bench::{machine, BenchId};
use nws_sim::{CoinFlip, SimConfig, Simulation, StealBias};

fn run_with(cfg: SimConfig, bench: BenchId) -> (u64, f64) {
    let topo = machine();
    let places = nws_bench::places_for(cfg.workers);
    let dag = bench.dag(places);
    let r = Simulation::new(&topo, cfg, &dag).expect("fits").run();
    let t1 = {
        let dag1 = bench.dag(1);
        Simulation::new(&topo, SimConfig::numa_ws(1), &dag1).expect("fits").run().makespan
    };
    (r.makespan, r.total_work() as f64 / t1 as f64)
}

fn mailbox() {
    println!("== Ablation: mailbox capacity (paper requires exactly 1; §IV top-heavy deques) ==");
    let mut t = nws_metrics::Table::new(vec!["capacity", "heat T32 (kcyc)", "inflation"]);
    for cap in [0usize, 1, 4, 16] {
        let mut cfg = SimConfig::numa_ws(32);
        cfg.policy.mailbox_capacity = cap;
        let (tp, infl) = run_with(cfg, BenchId::Heat);
        t.row(vec![cap.to_string(), format!("{}", tp / 1000), format!("{infl:.2}x")]);
    }
    println!("{t}");
}

fn threshold() {
    println!("== Ablation: pushing threshold (constant needed for §IV amortization) ==");
    let mut t =
        nws_metrics::Table::new(vec!["threshold", "heat T32 (kcyc)", "push attempts", "failures"]);
    for th in [0u32, 1, 4, 16, 64] {
        let mut cfg = SimConfig::numa_ws(32);
        cfg.policy.push_threshold = th;
        let topo = machine();
        let dag = BenchId::Heat.dag(4);
        let r = Simulation::new(&topo, cfg, &dag).expect("fits").run();
        t.row(vec![
            th.to_string(),
            format!("{}", r.makespan / 1000),
            r.counters.push_attempts.to_string(),
            r.counters.push_failures.to_string(),
        ]);
    }
    println!("{t}");
}

fn coinflip() {
    println!("== Ablation: thief coin flip (fair coin required for the §IV bound) ==");
    let mut t = nws_metrics::Table::new(vec!["protocol", "cg T32 (kcyc)", "steal attempts"]);
    for (name, flip) in [
        ("fair coin", CoinFlip::Fair),
        ("mailbox first", CoinFlip::MailboxFirst),
        ("deque only", CoinFlip::DequeOnly),
    ] {
        let mut cfg = SimConfig::numa_ws(32);
        cfg.policy.coin_flip = flip;
        let topo = machine();
        let dag = BenchId::Cg.dag(4);
        let r = Simulation::new(&topo, cfg, &dag).expect("fits").run();
        t.row(vec![
            name.to_string(),
            format!("{}", r.makespan / 1000),
            r.counters.steal_attempts.to_string(),
        ]);
    }
    println!("{t}");
}

fn bias() {
    println!("== Ablation: locality-biased vs uniform victim selection ==");
    let mut t =
        nws_metrics::Table::new(vec!["selection", "bench", "T32 (kcyc)", "remote steal share"]);
    for (name, biased) in [("biased", true), ("uniform", false)] {
        for bench in [BenchId::Heat, BenchId::Cg] {
            let mut cfg = SimConfig::numa_ws(32);
            cfg.policy.bias = if biased { StealBias::InverseDistance } else { StealBias::Uniform };
            let topo = machine();
            let dag = bench.dag(4);
            let r = Simulation::new(&topo, cfg, &dag).expect("fits").run();
            let share = r.counters.remote_steals as f64 / r.counters.steals.max(1) as f64;
            t.row(vec![
                name.to_string(),
                bench.name().to_string(),
                format!("{}", r.makespan / 1000),
                format!("{share:.2}"),
            ]);
        }
    }
    println!("{t}");
}

fn hints() {
    println!("== Ablation: locality hints on/off under NUMA-WS ==");
    println!("(paper §III-B: \"not specifying locality hints would not hurt performance");
    println!(" much and result in comparable performance with ... Cilk Plus\")\n");
    use nws_apps::heat;
    let topo = machine();
    let mut t = nws_metrics::Table::new(vec!["configuration", "heat T32 (kcyc)", "inflation"]);
    // Hinted DAG (normal) vs the same DAG with every place hint erased.
    for (name, places) in [("hints on (4 places)", 4usize), ("hints off (1 place id)", 1)] {
        // places=1 collapses every hint to place 0 — workers 8..32 see all
        // frames as foreign-but-wrapped, i.e. effectively unhinted.
        let dag = heat::dag(heat::Params::sim(), places);
        let r = Simulation::new(&topo, SimConfig::numa_ws(32), &dag).expect("fits").run();
        let dag1 = heat::dag(heat::Params::sim(), 1);
        let t1 = Simulation::new(&topo, SimConfig::numa_ws(1), &dag1).expect("fits").run().makespan;
        t.row(vec![
            name.to_string(),
            format!("{}", r.makespan / 1000),
            format!("{:.2}x", r.total_work() as f64 / t1 as f64),
        ]);
    }
    // Classic for reference.
    let dag = heat::dag(heat::Params::sim(), 4);
    let r = Simulation::new(&topo, SimConfig::vanilla(32), &dag).expect("fits").run();
    let dag1 = heat::dag(heat::Params::sim(), 1);
    let t1 = Simulation::new(&topo, SimConfig::vanilla(1), &dag1).expect("fits").run().makespan;
    t.row(vec![
        "classic (reference)".to_string(),
        format!("{}", r.makespan / 1000),
        format!("{:.2}x", r.total_work() as f64 / t1 as f64),
    ]);
    println!("{t}");
}

fn policy() {
    println!("== Ablation: OS page policy under the classic scheduler ==");
    println!("(the paper runs vanilla Cilk Plus under first-touch AND interleave and");
    println!(" reports the better; partitioned binding is what NUMA-WS's hints exploit)\n");
    use nws_sim::PagePolicy;
    let topo = machine();
    let mut t = nws_metrics::Table::new(vec!["policy", "heat T32 (kcyc)", "remote line share"]);
    let base = BenchId::Heat.dag(4);
    for (name, pol) in [
        ("first-touch", PagePolicy::FirstTouch),
        ("interleave", PagePolicy::Interleave),
        ("partitioned", PagePolicy::Chunked { chunks: 4 }),
    ] {
        let dag = base.with_policy(pol);
        let r = Simulation::new(&topo, SimConfig::vanilla(32), &dag).expect("fits").run();
        t.row(vec![
            name.to_string(),
            format!("{}", r.makespan / 1000),
            format!("{:.2}", r.remote_fraction()),
        ]);
    }
    println!("{t}");
}

fn top8() {
    println!("== Ablation: strassen vs the top-eight-way hinted variant (§V-A) ==");
    println!("(the paper tried hinting strassen by doing 8-way D&C at the top level;");
    println!(" it reduced inflation but cost ~15% more T1, so they kept the plain version)\n");
    use nws_apps::matmul::Layout;
    use nws_apps::strassen;
    let topo = machine();
    let p = strassen::Params::sim();
    let mut t = nws_metrics::Table::new(vec!["variant", "T1 (kcyc)", "T32 (kcyc)", "inflation"]);
    let plain = strassen::dag(p, Layout::BlockedZ);
    let plain1 = strassen::dag(p, Layout::BlockedZ);
    let eight = strassen::dag_top8(p, Layout::BlockedZ, 4);
    let eight1 = strassen::dag_top8(p, Layout::BlockedZ, 1);
    for (name, dag, dag1) in
        [("strassen-z (7-way)", &plain, &plain1), ("top-eight-way", &eight, &eight1)]
    {
        let t1 = Simulation::new(&topo, SimConfig::numa_ws(1), dag1).expect("fits").run().makespan;
        let r = Simulation::new(&topo, SimConfig::numa_ws(32), dag).expect("fits").run();
        t.row(vec![
            name.to_string(),
            format!("{}", t1 / 1000),
            format!("{}", r.makespan / 1000),
            format!("{:.2}x", r.total_work() as f64 / t1 as f64),
        ]);
    }
    println!("{t}");
}

/// Every ablation, under the name that selects it.
const ABLATIONS: [(&str, fn()); 7] = [
    ("mailbox", mailbox),
    ("threshold", threshold),
    ("coinflip", coinflip),
    ("bias", bias),
    ("hints", hints),
    ("policy", policy),
    ("top8", top8),
];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if which == "all" {
        ABLATIONS.iter().for_each(|(_, run)| run());
        return;
    }
    match ABLATIONS.iter().find(|(name, _)| *name == which) {
        Some((_, run)) => run(),
        None => {
            let names: Vec<&str> = ABLATIONS.iter().map(|(name, _)| *name).collect();
            eprintln!("unknown ablation {which:?}; expected `all` or one of: {}", names.join(", "));
            std::process::exit(2);
        }
    }
}
