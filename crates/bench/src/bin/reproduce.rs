//! Regenerates every simulated table of the paper's 32-core results
//! (arXiv 1806.11128), in order:
//! - **Figure 3**: total processing time on the classic (Cilk Plus)
//!   scheduler, normalized to `TS`, at P=1 and P=32, with the P=32 bar
//!   split into work / scheduling / idle;
//! - **Figure 7**: `TS`, `T1`, `T32` on both platforms, with spawn
//!   overhead (`T1/TS`) and scalability (`T1/T32`) in parentheses;
//! - **Figure 8**: `T1`, `W32`, `S32`, `I32` per platform, with work
//!   inflation (`W32/T1`) in parentheses;
//! - **Figure 9**: NUMA-WS scalability `T1/TP` against the core count,
//!   with workers packed onto the fewest sockets (for 24 cores, 3);
//! - **§IV bounds**: `T_P` against `T1/P + T∞` and steal attempts against
//!   `P·T∞` on synthetic DAGs, for both schedulers;
//! - **seven ablations** of the design choices §III-B, §IV and §V-A argue
//!   for: mailbox capacity, pushing threshold, the coin flip, biased
//!   victim selection, locality hints, the OS page policy, and strassen's
//!   top-eight-way hints;
//! - **golden trace replay**: the committed real-pool trace replayed at
//!   P = 4, 8 and 32 under the four `SchedPolicy::ablation_grid()`
//!   presets;
//! - **policy grid**: heat at P = 32 under the same four presets, with
//!   the simulator's scheduler counters.
//!
//! Every table reads one [`Cells`] memo, so each (DAG, policy, P, seed)
//! cell is simulated once. The figures, the golden replay and the policy
//! grid use seed [`FIGURE_SEED`]; the bounds and the ablations keep
//! [`ABLATION_SEED`]. The output is deterministic and committed as
//! `crates/bench/expected/reproduce.txt`.
//!
//! Run: `cargo run --release -p nws_bench --bin reproduce`

use nws_bench::{
    cycles_to_seconds as secs, golden_trace, BenchId, Cells, DagId, Table, FIGURE_SEED,
};
use nws_sim::{CoinFlip, PagePolicy, StealBias};
use nws_topology::SchedPolicy;

/// The seed of the bounds and ablation tables: `SimConfig`'s default, the
/// seed they were first printed with. The tables are single-seed, and at
/// seed 42 some rows reverse (DESIGN.md §3, "The policy layer").
const ABLATION_SEED: u64 = 0x5EED;

/// The seven benchmarks of Figure 3 (no `-z` variants).
const FIG3: [BenchId; 7] = [
    BenchId::Cilksort,
    BenchId::Heat,
    BenchId::Strassen,
    BenchId::Hull1,
    BenchId::Hull2,
    BenchId::Cg,
    BenchId::Matmul,
];

/// The seven curves of Figure 9 (the `-z` variants replace the plain
/// matrix benchmarks, as in the paper's legend).
const FIG9: [BenchId; 7] = [
    BenchId::Cilksort,
    BenchId::Heat,
    BenchId::StrassenZ,
    BenchId::Hull1,
    BenchId::Hull2,
    BenchId::Cg,
    BenchId::MatmulZ,
];

fn main() {
    let mut cells = Cells::default();
    fig3(&mut cells);
    fig7(&mut cells);
    fig8(&mut cells);
    fig9(&mut cells);
    bounds(&mut cells);
    mailbox(&mut cells);
    threshold(&mut cells);
    coinflip(&mut cells);
    bias(&mut cells);
    hints(&mut cells);
    page_policy(&mut cells);
    top8(&mut cells);
    golden_replay(&mut cells);
    policy_grid(&mut cells);
}

fn fig3(cells: &mut Cells) {
    println!("Figure 3: normalized total processing time on the classic scheduler");
    println!("(each value = total processing time / TS; P=32 split into work+sched+idle)\n");
    let mut table = Table::new(vec!["benchmark", "P=1", "P=32 total", "work", "sched", "idle"]);
    for bench in FIG3 {
        let m = cells.measure(bench, SchedPolicy::vanilla(), 32);
        let ts = m.ts as f64;
        let [work, sched, idle] =
            [m.report.total_work(), m.report.total_sched(), m.report.total_idle()]
                .map(|cycles| cycles as f64 / ts);
        table.row(vec![
            bench.name().to_string(),
            format!("{:.2}", m.t1 as f64 / ts),
            format!("{:.2}", work + sched + idle),
            format!("{work:.2}"),
            format!("{sched:.3}"),
            format!("{idle:.3}"),
        ]);
        // A bar rendering, because Figure 3 is a bar chart.
        let bar = |v: f64, ch: char| ch.to_string().repeat((v * 10.0).round() as usize);
        println!(
            "{:>10} P=32 |{}{}{}|",
            bench.name(),
            bar(work, '#'),
            bar(sched, '+'),
            bar(idle, '.')
        );
    }
    println!("\n(#=work, +=scheduling, .=idle; one char per 0.1*TS)\n");
    println!("{table}");
    println!(
        "paper (Fig 3) P=32 normalized work inflation ranges 1.45x-5.24x except matmul (~1.1x);"
    );
    println!("the P=1 bars sit at ~1.0 (work efficiency).");
}

fn fig7(cells: &mut Cells) {
    let p = 32;
    let mut table = Table::new(vec![
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
        let classic = cells.measure(bench, SchedPolicy::vanilla(), p);
        let numa = cells.measure(bench, SchedPolicy::numa_ws(), p);
        table.row(vec![
            bench.name().to_string(),
            format!("{:.2}", ms(classic.ts)),
            format!("{:.2} ({:.2}x)", ms(classic.t1), classic.spawn_overhead()),
            format!("{:.2} ({:.2}x)", ms(classic.tp()), classic.scalability()),
            format!("{:.2} ({:.2}x)", ms(numa.t1), numa.spawn_overhead()),
            format!("{:.2} ({:.2}x)", ms(numa.tp()), numa.scalability()),
        ]);
    }
    println!("{table}");
}

fn fig8(cells: &mut Cells) {
    let p = 32;
    println!("Figure 8: work/scheduling/idle on P = {p} (simulated seconds, 2.2 GHz)");
    println!("(parentheses next to W32: work inflation W32/T1)\n");
    let mut table = Table::new(vec![
        "benchmark",
        "T1 cl",
        "W32 cl",
        "S32 cl",
        "I32 cl",
        "T1 nws",
        "W32 nws",
        "S32 nws",
        "I32 nws",
    ]);
    for bench in BenchId::all() {
        let classic = cells.measure(bench, SchedPolicy::vanilla(), p);
        let numa = cells.measure(bench, SchedPolicy::numa_ws(), p);
        table.row(vec![
            bench.name().to_string(),
            format!("{:.2}", secs(classic.t1)),
            format!("{:.2} ({:.2}x)", secs(classic.report.total_work()), classic.inflation()),
            format!("{:.3}", secs(classic.report.total_sched())),
            format!("{:.3}", secs(classic.report.total_idle())),
            format!("{:.2}", secs(numa.t1)),
            format!("{:.2} ({:.2}x)", secs(numa.report.total_work()), numa.inflation()),
            format!("{:.3}", secs(numa.report.total_sched())),
            format!("{:.3}", secs(numa.report.total_idle())),
        ]);
    }
    println!("{table}");
    println!(
        "paper (Fig 8) inflation, classic -> numa-ws: cg 2.33->1.21, cilksort 1.54->1.21, \
         heat 5.24->2.25, hull1 4.05->3.53, hull2 2.28->1.56, matmul 1.09->1.07, \
         matmul-z 1.02->1.02, strassen 1.50->1.50, strassen-z 1.46->1.45"
    );
}

fn fig9(cells: &mut Cells) {
    let ps = [1usize, 2, 4, 8, 12, 16, 20, 24, 28, 32];
    println!("Figure 9: NUMA-WS scalability T1/TP (packed placement, paper machine)\n");
    let mut header = vec!["benchmark"];
    let p_labels: Vec<String> = ps.iter().map(|p| format!("P={p}")).collect();
    header.extend(p_labels.iter().map(|s| s.as_str()));
    let mut table = Table::new(header);
    let mut curves: Vec<(&str, Vec<f64>)> = Vec::new();
    for bench in FIG9 {
        let curve: Vec<f64> = ps
            .iter()
            .map(|&p| cells.measure(bench, SchedPolicy::numa_ws(), p).scalability())
            .collect();
        let mut row = vec![bench.name().to_string()];
        row.extend(curve.iter().map(|s| format!("{s:.1}")));
        table.row(row);
        curves.push((bench.name(), curve));
    }
    println!("{table}");
    // The paper's criterion: "the scalability curves are smooth, indicating
    // the application gains speedup steadily as we increase the number of
    // cores". Flag every step that loses more than 5 % of the speedup.
    for (name, curve) in &curves {
        let mut drops = Vec::new();
        for w in curve.windows(2) {
            if w[1] < w[0] * 0.95 {
                drops.push(format!("{:.1}->{:.1}", w[0], w[1]));
            }
        }
        if drops.is_empty() {
            println!("{name:>10}: no dip over 5 %");
        } else {
            println!("{name:>10}: speedup dips at {}", drops.join(", "));
        }
    }
    println!("\npaper (Fig 9): all curves rise smoothly; hull1 visibly degrades past one socket.");
}

fn bounds(cells: &mut Cells) {
    println!();
    println!("Section IV bounds check: T_P vs T1/P + c*T_inf, steals vs c*P*T_inf\n");
    let mut table = Table::new(vec![
        "dag",
        "sched",
        "P",
        "T1/P+Tinf",
        "T_P",
        "ratio",
        "steals",
        "P*Tinf/1k",
        "steal-ratio",
    ]);
    let dags = [
        ("tree-4k", DagId::Tree(4096, 2_000)),
        ("tree-64", DagId::Tree(64, 50_000)),
        // A long span with bounded parallelism stresses the O(T_inf) term.
        ("phased", DagId::Phased(50, 64, 3_000)),
    ];
    for (name, id) in dags {
        let dag = cells.dag(&id);
        let (work, span) = (dag.work(), dag.span());
        for (sched, policy) in [("cl", SchedPolicy::vanilla()), ("nws", SchedPolicy::numa_ws())] {
            for p in [4usize, 16, 32] {
                let r = cells.run(id.clone(), policy, p, ABLATION_SEED);
                let greedy = work as f64 / p as f64 + span as f64;
                let steal_bound = (p as u64 * span) as f64;
                table.row(vec![
                    name.to_string(),
                    sched.to_string(),
                    p.to_string(),
                    format!("{:.0}k", greedy / 1000.0),
                    format!("{:.0}k", r.makespan as f64 / 1000.0),
                    format!("{:.2}", r.makespan as f64 / greedy),
                    r.counters.steal_attempts.to_string(),
                    format!("{:.0}", steal_bound / 1000.0),
                    format!("{:.3}", r.counters.steal_attempts as f64 / steal_bound),
                ]);
            }
        }
    }
    println!("{table}");
    println!(
        "ratio = T_P / (T1/P + T_inf): bounded by a constant across P per the theorem;\n\
         steal-ratio = attempts / (P * T_inf): likewise bounded (the hidden constant is\n\
         larger for NUMA-WS, as Section IV predicts)."
    );
    println!();
}

/// The one-worker makespan `T1` of `dag` under `policy`.
fn t1(cells: &mut Cells, dag: DagId, policy: SchedPolicy) -> u64 {
    cells.run(dag, policy, 1, ABLATION_SEED).makespan
}

/// `T32` of `dag` under `policy` in kilocycles, and its work inflation
/// `W32/T1`.
fn t32_inflation(cells: &mut Cells, dag: DagId, policy: SchedPolicy, t1: u64) -> (u64, String) {
    let r = cells.run(dag, policy, 32, ABLATION_SEED);
    (r.makespan / 1000, format!("{:.2}x", r.work_inflation(t1)))
}

/// NUMA-WS with one knob changed by `ablate`.
fn numa_ws_with(ablate: impl FnOnce(&mut SchedPolicy)) -> SchedPolicy {
    let mut policy = SchedPolicy::numa_ws();
    ablate(&mut policy);
    policy
}

/// Heat built for the four places 32 packed workers use.
const HEAT: DagId = DagId::Bench(BenchId::Heat, 4);

/// Heat built for one place, as its one-worker `T1` runs it.
const HEAT1: DagId = DagId::Bench(BenchId::Heat, 1);

fn mailbox(cells: &mut Cells) {
    println!("== Ablation: mailbox capacity (paper requires exactly 1; §IV top-heavy deques) ==");
    let mut t = Table::new(vec!["capacity", "heat T32 (kcyc)", "inflation"]);
    let heat_t1 = t1(cells, HEAT1, SchedPolicy::numa_ws());
    for cap in [0usize, 1, 4, 16] {
        let policy = numa_ws_with(|p| p.mailbox_capacity = cap);
        let (tp, infl) = t32_inflation(cells, HEAT, policy, heat_t1);
        t.row(vec![cap.to_string(), tp.to_string(), infl]);
    }
    println!("{t}");
}

fn threshold(cells: &mut Cells) {
    println!("== Ablation: pushing threshold (constant needed for §IV amortization) ==");
    let mut t = Table::new(vec!["threshold", "heat T32 (kcyc)", "push attempts", "failures"]);
    for th in [0u32, 1, 4, 16, 64] {
        let r = cells.run(HEAT, numa_ws_with(|p| p.push_threshold = th), 32, ABLATION_SEED);
        t.row(vec![
            th.to_string(),
            format!("{}", r.makespan / 1000),
            r.counters.push_attempts.to_string(),
            r.counters.push_failures.to_string(),
        ]);
    }
    println!("{t}");
}

fn coinflip(cells: &mut Cells) {
    println!("== Ablation: thief coin flip (fair coin required for the §IV bound) ==");
    let mut t = Table::new(vec!["protocol", "cg T32 (kcyc)", "steal attempts"]);
    for (name, flip) in [
        ("fair coin", CoinFlip::Fair),
        ("mailbox first", CoinFlip::MailboxFirst),
        ("deque only", CoinFlip::DequeOnly),
    ] {
        let policy = numa_ws_with(|p| p.coin_flip = flip);
        let r = cells.run(DagId::Bench(BenchId::Cg, 4), policy, 32, ABLATION_SEED);
        t.row(vec![
            name.to_string(),
            format!("{}", r.makespan / 1000),
            r.counters.steal_attempts.to_string(),
        ]);
    }
    println!("{t}");
}

fn bias(cells: &mut Cells) {
    println!("== Ablation: locality-biased vs uniform victim selection ==");
    let mut t = Table::new(vec!["selection", "bench", "T32 (kcyc)", "remote steal share"]);
    for (name, bias) in [("biased", StealBias::InverseDistance), ("uniform", StealBias::Uniform)] {
        for bench in [BenchId::Heat, BenchId::Cg] {
            let policy = numa_ws_with(|p| p.bias = bias);
            let r = cells.run(DagId::Bench(bench, 4), policy, 32, ABLATION_SEED);
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

fn hints(cells: &mut Cells) {
    println!("== Ablation: locality hints on/off under NUMA-WS ==");
    println!("(paper §III-B: \"not specifying locality hints would not hurt performance");
    println!(" much and result in comparable performance with ... Cilk Plus\")\n");
    let mut t = Table::new(vec!["configuration", "heat T32 (kcyc)", "inflation"]);
    let (numa, vanilla) = (SchedPolicy::numa_ws(), SchedPolicy::vanilla());
    let (numa_t1, vanilla_t1) = (t1(cells, HEAT1, numa), t1(cells, HEAT1, vanilla));
    // "hints off" is not unhinted: heat built for one place binds every
    // page to socket 0 (`Chunked { chunks: 1 }`) and hints every band to
    // `Place(0)`, so data and hints all point at the first socket.
    for (name, dag, policy, t1) in [
        ("hints on (4 places)", HEAT, numa, numa_t1),
        ("hints off (1 place id)", HEAT1, numa, numa_t1),
        ("classic (reference)", HEAT, vanilla, vanilla_t1),
    ] {
        let (tp, infl) = t32_inflation(cells, dag, policy, t1);
        t.row(vec![name.to_string(), tp.to_string(), infl]);
    }
    println!("{t}");
}

fn page_policy(cells: &mut Cells) {
    println!("== Ablation: OS page policy under the classic scheduler ==");
    println!("(the paper runs vanilla Cilk Plus under first-touch AND interleave and");
    println!(" reports the better; partitioned binding is what NUMA-WS's hints exploit)\n");
    let mut t = Table::new(vec!["policy", "heat T32 (kcyc)", "remote line share"]);
    for (name, dag) in [
        ("first-touch", DagId::HeatPages(PagePolicy::FirstTouch)),
        ("interleave", DagId::HeatPages(PagePolicy::Interleave)),
        // Heat's own binding: four contiguous chunks, one per place.
        ("partitioned", HEAT),
    ] {
        let r = cells.run(dag, SchedPolicy::vanilla(), 32, ABLATION_SEED);
        t.row(vec![
            name.to_string(),
            format!("{}", r.makespan / 1000),
            format!("{:.2}", r.remote_fraction()),
        ]);
    }
    println!("{t}");
}

fn top8(cells: &mut Cells) {
    println!("== Ablation: strassen vs the top-eight-way hinted variant (§V-A) ==");
    println!("(the paper tried hinting strassen by doing 8-way D&C at the top level;");
    println!(" it reduced inflation but cost ~15% more T1, so they kept the plain version)\n");
    let mut t = Table::new(vec!["variant", "T1 (kcyc)", "T32 (kcyc)", "inflation"]);
    let numa = SchedPolicy::numa_ws();
    for (name, dag, dag1) in [
        (
            "strassen-z (7-way)",
            DagId::Bench(BenchId::StrassenZ, 4),
            DagId::Bench(BenchId::StrassenZ, 1),
        ),
        ("top-eight-way", DagId::StrassenTop8(4), DagId::StrassenTop8(1)),
    ] {
        let t1 = t1(cells, dag1, numa);
        let (tp, infl) = t32_inflation(cells, dag, numa, t1);
        t.row(vec![name.to_string(), format!("{}", t1 / 1000), tp.to_string(), infl]);
    }
    println!("{t}");
}

fn golden_replay(cells: &mut Cells) {
    println!("Golden trace replay under the four ablation-grid presets");
    println!("(the committed real-pool trace, parsed, validated and lowered to a DAG)\n");
    let trace = golden_trace();
    let dag = cells.dag(&DagId::GoldenTrace);
    println!(
        "replaying '{}': {} tasks ({} started, {} ns recorded) -> {} frames, work {} cycles",
        trace.meta.label,
        trace.tasks.len(),
        trace.num_started(),
        trace.total_ns(),
        dag.num_frames(),
        dag.work()
    );
    let mut table = Table::new(vec!["policy", "P", "makespan (cyc)", "steals"]);
    for (name, policy) in SchedPolicy::ablation_grid() {
        for p in [4usize, 8, 32] {
            let r = cells.run(DagId::GoldenTrace, policy, p, FIGURE_SEED);
            table.row(vec![
                name.to_string(),
                p.to_string(),
                r.makespan.to_string(),
                r.counters.steals.to_string(),
            ]);
        }
    }
    println!("{table}");
}

fn policy_grid(cells: &mut Cells) {
    println!("== Policy grid: heat on 32 workers of the paper machine, one row per preset ==\n");
    let spawns = cells.dag(&HEAT).num_spawns();
    let mut summary = Table::new(vec!["policy", "sim T32 (kcyc)", "sim remote share"]);
    // The simulator's counters by name. The runtime reports the same facts
    // through `PoolStats::counter_totals()`.
    let mut counters = Table::new(vec![
        "policy",
        "spawns",
        "steal_attempts",
        "steals",
        "remote_steals",
        "mailbox_takes",
        "push_attempts",
        "push_deliveries",
        "push_failures",
    ]);
    for (name, policy) in SchedPolicy::ablation_grid() {
        let r = cells.run(HEAT, policy, 32, FIGURE_SEED);
        let c = &r.counters;
        let remote_share = c.remote_steals as f64 / c.steals.max(1) as f64;
        summary.row(vec![
            name.to_string(),
            format!("{}", r.makespan / 1000),
            format!("{remote_share:.2}"),
        ]);
        let values = [
            spawns,
            c.steal_attempts,
            c.steals,
            c.remote_steals,
            c.mailbox_takes,
            c.push_attempts,
            c.push_deliveries,
            c.push_failures,
        ];
        counters
            .row(std::iter::once(name.to_string()).chain(values.map(|v| v.to_string())).collect());
    }
    println!("{summary}");
    println!("-- simulator counters (heat DAG, 32 workers, paper machine) --");
    println!("{counters}");
    for (name, policy) in SchedPolicy::ablation_grid() {
        println!("{name:>14}: {policy}");
    }
}
