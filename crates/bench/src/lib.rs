//! Shared harness for the experiment binaries (`reproduce`, `bounds`,
//! `ablation`, `policy_sweep`, `trace_replay`).
//!
//! The harness runs each paper benchmark's simulator DAG on the Figure 1
//! machine under both schedulers and derives the quantities the paper's
//! tables report: `TS`, `T1`, `T_P`, the work/scheduling/idle breakdown,
//! spawn overhead `T1/TS`, scalability `T1/T_P`, and work inflation
//! `W_P/T1`. [`Cells`] memoises those simulations, so a binary that prints
//! several figures simulates each cell once.

#![warn(missing_docs)]

use nws_apps::{cg, cilksort, heat, hull, matmul, strassen};
use nws_sim::{Dag, SimConfig, SimReport, Simulation};
use nws_topology::{presets, SchedPolicy, Topology};
use std::collections::HashMap;

/// The nine rows of the paper's Figures 7/8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchId {
    /// NAS conjugate gradient.
    Cg,
    /// Parallel mergesort.
    Cilksort,
    /// Jacobi heat diffusion.
    Heat,
    /// Quickhull, points in a disk.
    Hull1,
    /// Quickhull, points on a circle.
    Hull2,
    /// 8-way divide-and-conquer matmul, row-major.
    Matmul,
    /// Matmul on the blocked Z-Morton layout.
    MatmulZ,
    /// Strassen, row-major boundary.
    Strassen,
    /// Strassen on the blocked Z-Morton layout.
    StrassenZ,
}

impl BenchId {
    /// All nine table rows, in the paper's order.
    pub fn all() -> [BenchId; 9] {
        [
            BenchId::Cg,
            BenchId::Cilksort,
            BenchId::Heat,
            BenchId::Hull1,
            BenchId::Hull2,
            BenchId::Matmul,
            BenchId::MatmulZ,
            BenchId::Strassen,
            BenchId::StrassenZ,
        ]
    }

    /// The benchmark's display name (paper spelling).
    pub fn name(self) -> &'static str {
        match self {
            BenchId::Cg => "cg",
            BenchId::Cilksort => "cilksort",
            BenchId::Heat => "heat",
            BenchId::Hull1 => "hull1",
            BenchId::Hull2 => "hull2",
            BenchId::Matmul => "matmul",
            BenchId::MatmulZ => "matmul-z",
            BenchId::Strassen => "strassen",
            BenchId::StrassenZ => "strassen-z",
        }
    }

    /// Builds the simulator DAG at simulator scale for a run with `places`
    /// places.
    pub fn dag(self, places: usize) -> Dag {
        match self {
            BenchId::Cg => cg::dag(cg::Params::sim(), places),
            BenchId::Cilksort => cilksort::dag(cilksort::Params::sim(), places),
            BenchId::Heat => heat::dag(heat::Params::sim(), places),
            BenchId::Hull1 => hull::dag(hull::Params::sim(), places, hull::Dataset::InDisk),
            BenchId::Hull2 => hull::dag(hull::Params::sim(), places, hull::Dataset::OnCircle),
            BenchId::Matmul => matmul::dag(matmul::Params::sim(), matmul::Layout::RowMajor),
            BenchId::MatmulZ => matmul::dag(matmul::Params::sim(), matmul::Layout::BlockedZ),
            BenchId::Strassen => strassen::dag(strassen::Params::sim(), matmul::Layout::RowMajor),
            BenchId::StrassenZ => strassen::dag(strassen::Params::sim(), matmul::Layout::BlockedZ),
        }
    }
}

/// The paper's evaluation machine.
pub fn machine() -> Topology {
    presets::paper_machine()
}

/// Places in use for `p` packed workers on the paper machine.
pub fn places_for(p: usize) -> usize {
    p.div_ceil(8).max(1)
}

/// The seed of every figure's simulations.
const SEED: u64 = 42;

/// One benchmark's `TS`, `T1` and `T_P` under one policy at one worker
/// count.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Serial elision cycles.
    pub ts: u64,
    /// One-worker cycles (same scheduler).
    pub t1: u64,
    /// P-worker report (makespan `T_P`, breakdown, counters).
    pub report: SimReport,
}

impl Measurement {
    /// The P-worker makespan `T_P`.
    pub fn tp(&self) -> u64 {
        self.report.makespan
    }

    /// Spawn overhead `T1/TS`.
    pub fn spawn_overhead(&self) -> f64 {
        self.t1 as f64 / self.ts as f64
    }

    /// Scalability `T1/TP`.
    pub fn scalability(&self) -> f64 {
        self.t1 as f64 / self.tp() as f64
    }

    /// Work inflation `W_P/T1`.
    pub fn inflation(&self) -> f64 {
        self.report.total_work() as f64 / self.t1 as f64
    }
}

/// Memoised simulations of the paper benchmarks on the paper machine
/// (packed placement, seed 42). Each cell is simulated once, however
/// many figures read it:
/// - a DAG per `(bench, places)`;
/// - `TS` per `(bench, places)`: the serial elision reads only the memory
///   model, which [`SimConfig::with_policy`] leaves at its defaults, so it
///   depends on neither the policy nor P;
/// - `T_P` and its report per `(bench, policy, P)`. `T1` is the `P = 1`
///   cell, which runs the one-place DAG on one worker.
pub struct Cells {
    topo: Topology,
    dags: HashMap<(BenchId, usize), Dag>,
    ts: HashMap<(BenchId, usize), u64>,
    tp: HashMap<(BenchId, SchedPolicy, usize), SimReport>,
}

impl Default for Cells {
    fn default() -> Self {
        Cells { topo: machine(), dags: HashMap::new(), ts: HashMap::new(), tp: HashMap::new() }
    }
}

impl Cells {
    /// `TS` of `bench` built for `places` places.
    fn ts(&mut self, bench: BenchId, places: usize) -> u64 {
        let Cells { topo, dags, ts, .. } = self;
        *ts.entry((bench, places)).or_insert_with(|| {
            let cfg = SimConfig::with_policy(SchedPolicy::numa_ws(), 1);
            Simulation::serial_elision(topo, &cfg, dag(dags, bench, places))
        })
    }

    /// The report of `bench` under `policy` on `workers` packed workers.
    fn tp(&mut self, bench: BenchId, policy: SchedPolicy, workers: usize) -> &SimReport {
        let Cells { topo, dags, tp, .. } = self;
        tp.entry((bench, policy, workers)).or_insert_with(|| {
            let cfg = SimConfig::with_policy(policy, workers).with_seed(SEED);
            let dag = dag(dags, bench, places_for(workers));
            Simulation::new(topo, cfg, dag).expect("config fits").run()
        })
    }

    /// `TS`, `T1` and `T_P` of `bench` under `policy` on `workers` workers.
    pub fn measure(&mut self, bench: BenchId, policy: SchedPolicy, workers: usize) -> Measurement {
        Measurement {
            ts: self.ts(bench, places_for(workers)),
            t1: self.tp(bench, policy, 1).makespan,
            report: self.tp(bench, policy, workers).clone(),
        }
    }
}

/// The memoised DAG of `bench` for `places` places.
fn dag(dags: &mut HashMap<(BenchId, usize), Dag>, bench: BenchId, places: usize) -> &Dag {
    dags.entry((bench, places)).or_insert_with(|| bench.dag(places))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn places_for_matches_paper_packing() {
        assert_eq!(places_for(1), 1);
        assert_eq!(places_for(8), 1);
        assert_eq!(places_for(9), 2);
        assert_eq!(places_for(24), 3);
        assert_eq!(places_for(32), 4);
    }

    #[test]
    fn names_cover_all() {
        let names: Vec<&str> = BenchId::all().iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 9);
        assert!(names.contains(&"matmul-z"));
    }

    /// The uncached measurement: every quantity simulated from scratch,
    /// `TS` under the measured policy and worker count.
    fn fresh(bench: BenchId, policy: SchedPolicy, workers: usize) -> (u64, u64, u64) {
        let topo = machine();
        let cfg = SimConfig::with_policy(policy, workers).with_seed(SEED);
        let dag = bench.dag(places_for(workers));
        let ts = Simulation::serial_elision(&topo, &cfg, &dag);
        let cfg1 = SimConfig::with_policy(policy, 1).with_seed(SEED);
        let t1 = Simulation::new(&topo, cfg1, &bench.dag(1)).unwrap().run().makespan;
        let tp = Simulation::new(&topo, cfg, &dag).unwrap().run().makespan;
        (ts, t1, tp)
    }

    #[test]
    fn cells_match_fresh_simulations() {
        // Every key input takes two values: bench, places (1 and 2), policy
        // and P (1, 4 and 12), so a key that drops an input aliases two
        // cells and the counts below fall short.
        let cases = [(BenchId::Cilksort, 4), (BenchId::Cilksort, 12), (BenchId::Hull1, 4)];
        let policies = [SchedPolicy::vanilla(), SchedPolicy::numa_ws()];
        let mut cells = Cells::default();
        let mut first = Vec::new();
        for (bench, p) in cases {
            let fresh_ts: Vec<u64> = policies.iter().map(|&pol| fresh(bench, pol, p).0).collect();
            assert_eq!(fresh_ts[0], fresh_ts[1], "{bench:?} P={p}: TS depends on the policy");
            for policy in policies {
                let m = cells.measure(bench, policy, p);
                let got = (m.ts, m.t1, m.tp());
                assert_eq!(got, fresh(bench, policy, p), "{bench:?} {policy:?} P={p}");
                first.push(got);
            }
        }
        let counts = |c: &Cells| (c.dags.len(), c.ts.len(), c.tp.len());
        assert_eq!(counts(&cells), (3, 3, 10), "(dags, TS, T_P) cells");
        // A second lookup is served from the memo.
        let cells_again = cases.iter().flat_map(|&(bench, p)| policies.map(|pol| (bench, pol, p)));
        for ((bench, policy, p), want) in cells_again.zip(first) {
            let m = cells.measure(bench, policy, p);
            assert_eq!((m.ts, m.t1, m.tp()), want);
        }
        assert_eq!(counts(&cells), (3, 3, 10), "a repeated lookup simulated again");
    }
}
