//! `sim_replay`: the discrete-event simulator runs the `heat`, `cilksort`
//! and `gcmark` DAGs on the paper's 32-core machine under `numa-ws` and
//! `vanilla-ws`, and replays the committed golden fib trace (parse, lower
//! with `trace_to_dag`, simulate), each under several simulator seeds. One
//! unit is the whole sweep of simulations; on a pool each simulation is one
//! task, so the pool only farms out independent, single-threaded,
//! deterministic runs.

use crate::harness::{Batch, Exec};
use crate::spans::Tracer;
use nws_apps::{cilksort, gcmark, heat};
use nws_sim::{trace_to_dag, Dag, SchedPolicy, SimConfig, Simulation, DEFAULT_NS_PER_CYCLE};
use nws_topology::Topology;
use std::time::Instant;

const GOLDEN_TRACE: &str = include_str!("../../crates/bench/traces/golden_fib.trace");
const SIM_WORKERS: usize = 32;
/// Simulator scheduling seeds: fixed, so the schedule counts of a given
/// input repeat exactly from run to run. The per-layer counts report the
/// first seed.
const SIM_SEEDS: [u64; 2] = [0x5EED, 0x5EEE];
// The simulator-scale parameters, shrunk so that a sweep is many
// simulations of at most ~15 ms each: two workers then split a sweep evenly
// and a run holds enough sweeps for steady medians.
const HEAT: heat::Params = heat::Params { rows: 512, cols: 1024, steps: 2, rows_base: 8 };
const SORT: cilksort::Params =
    cilksort::Params { n: 1 << 18, sort_base: 1 << 13, merge_base: 1 << 13 };

pub const DAG_NAMES: [&str; 3] = ["heat", "cilksort", "gcmark"];
pub const SCHEDULERS: [&str; 2] = ["numa-ws", "vanilla-ws"];

fn policy(sched: &str) -> SchedPolicy {
    match sched {
        "numa-ws" => SchedPolicy::numa_ws(),
        _ => SchedPolicy::vanilla_ws(),
    }
}

/// What one simulation reports; compared exactly across repetitions.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Outcome {
    pub makespan: u64,
    pub steals: u64,
    pub work: u64,
    pub remote_fraction: f64,
}

fn simulate(topo: &Topology, dag: &Dag, sched: &str, seed: u64, workers: usize) -> Outcome {
    let cfg = SimConfig::with_policy(policy(sched), workers).with_seed(seed);
    let r = Simulation::new(topo, cfg, dag).expect("the paper machine fits the workers").run();
    Outcome {
        makespan: r.makespan,
        steals: r.counters.steals,
        work: r.total_work(),
        remote_fraction: r.remote_fraction(),
    }
}

pub struct SimReplay {
    topo: Topology,
    /// The three app DAGs, then the lowered golden trace.
    dags: Vec<Dag>,
    /// `(dag index, scheduler, seed)` of every simulation in a sweep,
    /// largest DAG first.
    cells: Vec<(usize, &'static str, u64)>,
    pub dag_build_ms: f64,
    pub parse_us: f64,
    pub to_dag_us: f64,
    reference: Vec<Outcome>,
    /// Single-worker makespan of each cell: the `T1` that work inflation
    /// divides by.
    t1: Vec<u64>,
    out: Vec<Outcome>,
    golden_ok: bool,
}

impl SimReplay {
    pub fn new(seed: u64) -> Self {
        let topo = nws_topology::presets::paper_machine();
        let places = topo.num_sockets();
        let t = Instant::now();
        let gp = gcmark::Params { nodes: 1 << 14, seed, ..gcmark::Params::sim() };
        let mut dags =
            vec![heat::dag(HEAT, places), cilksort::dag(SORT, places), gcmark::dag(gp, places)];
        let dag_build_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let trace = nws_trace::Trace::parse(GOLDEN_TRACE).expect("the golden trace parses");
        let parse_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let golden = trace_to_dag(&trace, DEFAULT_NS_PER_CYCLE);
        let to_dag_us = t.elapsed().as_secs_f64() * 1e6;
        let golden_ok = trace.validate().is_ok() && golden.validate().is_ok();
        dags.push(golden);
        let mut cells: Vec<(usize, &str, u64)> = (0..dags.len())
            .flat_map(|d| SCHEDULERS.iter().flat_map(move |&s| SIM_SEEDS.map(|seed| (d, s, seed))))
            .collect();
        cells.sort_by_key(|&(d, _, _)| std::cmp::Reverse(dags[d].num_frames()));
        SimReplay {
            topo,
            dags,
            cells,
            dag_build_ms,
            parse_us,
            to_dag_us,
            reference: Vec::new(),
            t1: Vec::new(),
            out: Vec::new(),
            golden_ok,
        }
    }

    /// Runs the sweep once serially as the reference every later sweep must
    /// repeat exactly, plus the single-worker runs for work inflation.
    pub fn oracle(&mut self) {
        self.reference = self.sweep_serial();
        self.t1 = self
            .cells
            .iter()
            .map(|&(d, s, seed)| simulate(&self.topo, &self.dags[d], s, seed, 1).makespan)
            .collect();
    }

    fn run_cell(&self, (d, sched, seed): (usize, &str, u64)) -> Outcome {
        simulate(&self.topo, &self.dags[d], sched, seed, SIM_WORKERS)
    }

    /// The sweep in the order a 1-worker pool runs the spawned cells (last
    /// spawned first), so that `T1 / TS` compares the same sequence.
    fn sweep_serial(&self) -> Vec<Outcome> {
        let mut out: Vec<Outcome> = self.cells.iter().rev().map(|&c| self.run_cell(c)).collect();
        out.reverse();
        out
    }

    /// DAG frames simulated per sweep.
    pub fn frames_per_sweep(&self) -> f64 {
        self.cells.iter().map(|&(d, _, _)| self.dags[d].num_frames() as f64).sum()
    }

    /// `(name, outcome, work inflation)` of each app DAG under each
    /// scheduler, at the first simulator seed.
    pub fn app_cells(&self) -> Vec<(String, Outcome, f64)> {
        self.cells
            .iter()
            .zip(&self.reference)
            .zip(&self.t1)
            .filter(|((&(d, _, seed), _), _)| d < DAG_NAMES.len() && seed == SIM_SEEDS[0])
            .map(|((&(d, s, _), o), &t1)| {
                (format!("{}.{s}", DAG_NAMES[d]), *o, o.work as f64 / t1 as f64)
            })
            .collect()
    }

    /// Bytes of the DAG regions the simulated machine touches, computed
    /// from their page counts.
    pub fn working_set_bytes(&self) -> usize {
        let pages: u64 = self.dags.iter().flat_map(|d| d.regions().iter().map(|r| r.pages)).sum();
        pages as usize * nws_sim::PAGE_BYTES as usize
    }
}

impl Batch for SimReplay {
    fn run(&mut self, exec: Exec<'_>, tr: Option<&mut Tracer>) {
        let this = &*self;
        self.out = exec.run(tr, "sim.sweep", || match exec {
            Exec::Serial => this.sweep_serial(),
            Exec::Pool(_) => {
                let mut out = vec![Outcome::default(); this.cells.len()];
                numa_ws::scope(|s| {
                    for (slot, &cell) in out.iter_mut().zip(&this.cells) {
                        s.spawn(move |_| *slot = this.run_cell(cell));
                    }
                });
                out
            }
        });
    }

    fn check(&self) -> bool {
        self.golden_ok && self.out == self.reference
    }
}
