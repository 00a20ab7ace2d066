//! Shared harness of the `reproduce` and `chaos` binaries.
//!
//! [`Cells`] is the one place that runs a simulation. It builds each
//! [`DagId`] once — a paper benchmark's DAG, a variant of one, a synthetic
//! §IV DAG or the committed golden trace — and simulates each (DAG,
//! policy, P, seed) cell once on the Figure 1 machine, however many tables
//! read it. [`Measurement`] derives the quantities the paper's figures
//! report from those cells: `TS`, `T1`, `T_P`, the work/scheduling/idle
//! breakdown, spawn overhead `T1/TS`, scalability `T1/T_P`, and work
//! inflation `W_P/T1`. [`Table`] renders every table the harness prints.

#![warn(missing_docs)]

mod table;

pub use table::Table;

use nws_apps::{cg, cilksort, heat, hull, matmul, strassen};
use nws_sim::{
    phased, trace_to_dag, tree, Dag, PagePolicy, SimConfig, SimReport, Simulation,
    DEFAULT_NS_PER_CYCLE,
};
use nws_topology::{presets, SchedPolicy, Topology};
use nws_trace::Trace;
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

    /// A hull row's walk at simulator scale, which folds to any place
    /// count ([`hull::Recording`]).
    fn hull_walk(self) -> hull::Recording {
        let dataset =
            if self == BenchId::Hull1 { hull::Dataset::InDisk } else { hull::Dataset::OnCircle };
        hull::Recording::new(hull::Params::sim(), dataset)
    }

    /// Builds the simulator DAG at simulator scale for a run with `places`
    /// places.
    pub fn dag(self, places: usize) -> Dag {
        match self {
            BenchId::Cg => cg::dag(cg::Params::sim(), places),
            BenchId::Cilksort => cilksort::dag(cilksort::Params::sim(), places),
            BenchId::Heat => heat::dag(heat::Params::sim(), places),
            BenchId::Hull1 | BenchId::Hull2 => self.hull_walk().dag(places),
            BenchId::Matmul => matmul::dag(matmul::Params::sim(), matmul::Layout::RowMajor),
            BenchId::MatmulZ => matmul::dag(matmul::Params::sim(), matmul::Layout::BlockedZ),
            BenchId::Strassen => strassen::dag(strassen::Params::sim(), matmul::Layout::RowMajor),
            BenchId::StrassenZ => strassen::dag(strassen::Params::sim(), matmul::Layout::BlockedZ),
        }
    }
}

/// The paper's evaluation machine.
fn machine() -> Topology {
    presets::paper_machine()
}

/// The seed of the figures' simulations, the policy grid's and the golden
/// trace replay's.
pub const FIGURE_SEED: u64 = 42;

/// The paper machine's clock rate: 2.2 GHz Xeon E5-4620 cores.
const CYCLES_PER_SECOND: f64 = 2.2e9;

/// Renders simulated cycles as seconds on the paper's 2.2 GHz machine.
pub fn cycles_to_seconds(cycles: u64) -> f64 {
    cycles as f64 / CYCLES_PER_SECOND
}

/// The committed golden trace (`traces/golden_fib.trace`): `fib(12)`
/// under `join`, recorded once on a real 4-worker, 2-place pool. Its
/// header records the recording's workers, places and seed.
const GOLDEN_TRACE: &str = include_str!("../traces/golden_fib.trace");

/// The committed golden trace, parsed and validated.
pub fn golden_trace() -> Trace {
    Trace::parse(GOLDEN_TRACE).expect("golden trace parses and is well-formed")
}

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
        self.report.work_inflation(self.t1)
    }
}

/// A DAG that [`Cells`] builds and simulates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DagId {
    /// A benchmark row built for `places` places. The figures build it for
    /// the places their workers pack onto ([`Topology::packed_places`]); an
    /// ablation may pick another count (heat at one place under 32
    /// workers).
    Bench(BenchId, usize),
    /// Heat built for four places with every region under one page policy
    /// ([`Dag::with_policy`]). Heat's own binding is
    /// `Chunked { chunks: 4 }`, which is `Bench(BenchId::Heat, 4)`.
    HeatPages(PagePolicy),
    /// Strassen-z's top-eight-way hinted variant built for `places`
    /// places (`strassen::dag_top8`).
    StrassenTop8(usize),
    /// [`nws_sim::tree`]`(leaves, cycles)`.
    Tree(usize, u64),
    /// [`nws_sim::phased`]`(len, width, cycles)`.
    Phased(usize, usize, u64),
    /// The committed golden trace ([`golden_trace`]), lowered by
    /// [`trace_to_dag`].
    GoldenTrace,
}

impl DagId {
    /// Builds the DAG this id names.
    fn build(&self) -> Dag {
        match self {
            DagId::Bench(bench, places) => bench.dag(*places),
            DagId::HeatPages(pages) => BenchId::Heat.dag(4).with_policy(pages.clone()),
            DagId::StrassenTop8(places) => {
                strassen::dag_top8(strassen::Params::sim(), matmul::Layout::BlockedZ, *places)
            }
            DagId::Tree(leaves, cycles) => tree(*leaves, *cycles),
            DagId::Phased(len, width, cycles) => phased(*len, *width, *cycles),
            DagId::GoldenTrace => {
                let dag = trace_to_dag(&golden_trace(), DEFAULT_NS_PER_CYCLE);
                dag.validate().expect("lowered golden trace is well-formed");
                dag
            }
        }
    }
}

/// Memoised simulations on the paper machine (packed placement). Each
/// cell is simulated once, however many tables read it:
/// - a DAG per [`DagId`], hull's folded from one walk per data set
///   ([`hull::Recording`]);
/// - `TS` per [`DagId`]: the serial elision reads only the DAG;
/// - a report per (DAG, policy, P, seed): every [`SimConfig`] input but
///   the schedule log, which the figures never set. The key holds the
///   whole [`SchedPolicy`], so every ablation knob tells two cells apart.
pub struct Cells {
    topo: Topology,
    dags: HashMap<DagId, Dag>,
    hulls: HashMap<BenchId, hull::Recording>,
    ts: HashMap<DagId, u64>,
    runs: HashMap<(DagId, SchedPolicy, usize, u64), SimReport>,
}

impl Default for Cells {
    fn default() -> Self {
        Cells {
            topo: machine(),
            dags: HashMap::new(),
            hulls: HashMap::new(),
            ts: HashMap::new(),
            runs: HashMap::new(),
        }
    }
}

impl Cells {
    /// The memoised DAG `id` names.
    pub fn dag(&mut self, id: &DagId) -> &Dag {
        memo_dag(&mut self.dags, &mut self.hulls, id)
    }

    /// `TS` of the DAG `id` names.
    fn ts(&mut self, id: &DagId) -> u64 {
        let Cells { topo, dags, hulls, ts, .. } = self;
        *ts.entry(id.clone())
            .or_insert_with(|| Simulation::serial_elision(topo, memo_dag(dags, hulls, id)))
    }

    /// The report of the DAG `id` names under `policy` on `workers` packed
    /// workers, simulated with `seed`.
    pub fn run(&mut self, id: DagId, policy: SchedPolicy, workers: usize, seed: u64) -> &SimReport {
        let Cells { topo, dags, hulls, runs, .. } = self;
        runs.entry((id, policy, workers, seed)).or_insert_with_key(|(id, ..)| {
            let cfg = SimConfig::with_policy(policy, workers).with_seed(seed);
            Simulation::new(topo, cfg, memo_dag(dags, hulls, id)).expect("config fits").run()
        })
    }

    /// `TS`, `T1` and `T_P` of `bench` under `policy` on `workers`
    /// workers, as the figures read them: built for the places `workers`
    /// pack onto ([`Topology::packed_places`]), seed [`FIGURE_SEED`]. `T1`
    /// runs the one-place DAG on one worker.
    pub fn measure(&mut self, bench: BenchId, policy: SchedPolicy, workers: usize) -> Measurement {
        let id = DagId::Bench(bench, self.topo.packed_places(workers));
        Measurement {
            ts: self.ts(&id),
            t1: self.run(DagId::Bench(bench, 1), policy, 1, FIGURE_SEED).makespan,
            report: self.run(id, policy, workers, FIGURE_SEED).clone(),
        }
    }
}

/// The memoised DAG `id` names. A hull row is folded from its data set's
/// memoised walk, which does not depend on the place count.
fn memo_dag<'a>(
    dags: &'a mut HashMap<DagId, Dag>,
    hulls: &mut HashMap<BenchId, hull::Recording>,
    id: &DagId,
) -> &'a Dag {
    dags.entry(id.clone()).or_insert_with(|| match *id {
        DagId::Bench(bench @ (BenchId::Hull1 | BenchId::Hull2), places) => {
            hulls.entry(bench).or_insert_with(|| bench.hull_walk()).dag(places)
        }
        _ => id.build(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_cover_all() {
        let names: Vec<&str> = BenchId::all().iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 9);
        assert!(names.contains(&"matmul-z"));
    }

    /// One uncached simulation's makespan.
    fn fresh_run(dag: &Dag, policy: SchedPolicy, workers: usize, seed: u64) -> u64 {
        let cfg = SimConfig::with_policy(policy, workers).with_seed(seed);
        Simulation::new(&machine(), cfg, dag).unwrap().run().makespan
    }

    /// The uncached measurement: every quantity simulated from scratch.
    fn fresh(bench: BenchId, policy: SchedPolicy, workers: usize) -> (u64, u64, u64) {
        let dag = bench.dag(machine().packed_places(workers));
        let ts = Simulation::serial_elision(&machine(), &dag);
        let t1 = fresh_run(&bench.dag(1), policy, 1, FIGURE_SEED);
        (ts, t1, fresh_run(&dag, policy, workers, FIGURE_SEED))
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
            for policy in policies {
                let m = cells.measure(bench, policy, p);
                let got = (m.ts, m.t1, m.tp());
                assert_eq!(got, fresh(bench, policy, p), "{bench:?} {policy:?} P={p}");
                first.push(got);
            }
        }
        let counts = |c: &Cells| (c.dags.len(), c.ts.len(), c.runs.len());
        assert_eq!(counts(&cells), (3, 3, 10), "(dags, TS, T_P) cells");
        // Each of these keys varies an input the figure cells above keep
        // fixed: an ablation knob, the seed, a one-place DAG under more than
        // eight workers (the first three equal a figure cell otherwise), a
        // page-policy variant DAG and a synthetic DAG. Each is one new cell.
        let cilksort1 = DagId::Bench(BenchId::Cilksort, 1);
        let four_slot_mailboxes = SchedPolicy { mailbox_capacity: 4, ..SchedPolicy::numa_ws() };
        let ablated = [
            (cilksort1.clone(), four_slot_mailboxes, 4, FIGURE_SEED),
            (cilksort1.clone(), SchedPolicy::numa_ws(), 4, 0x5EED),
            (cilksort1, SchedPolicy::numa_ws(), 12, FIGURE_SEED),
            (DagId::HeatPages(PagePolicy::Interleave), SchedPolicy::vanilla(), 4, FIGURE_SEED),
            (DagId::Tree(64, 1_000), SchedPolicy::numa_ws(), 4, FIGURE_SEED),
        ];
        for (id, policy, p, seed) in &ablated {
            let got = cells.run(id.clone(), *policy, *p, *seed).makespan;
            assert_eq!(got, fresh_run(&id.build(), *policy, *p, *seed), "{id:?} {policy} P={p}");
        }
        assert_eq!(counts(&cells), (5, 3, 15), "ablation and variant-DAG cells");
        // A second lookup is served from the memo.
        let cells_again = cases.iter().flat_map(|&(bench, p)| policies.map(|pol| (bench, pol, p)));
        for ((bench, policy, p), want) in cells_again.zip(first) {
            let m = cells.measure(bench, policy, p);
            assert_eq!((m.ts, m.t1, m.tp()), want);
        }
        for (id, policy, p, seed) in ablated {
            cells.run(id, policy, p, seed);
        }
        assert_eq!(counts(&cells), (5, 3, 15), "a repeated lookup simulated again");
    }
}
