//! `fine_grain`: uncoarsened `join` fib plus a small-chunk `gcmark` flood
//! on one place. Nearly all the time goes to the spawn/join/scope fast path
//! and to steals; kernel compute is trivial and mailboxes stay idle.

use crate::harness::{Batch, Exec};
use crate::spans::Tracer;
use nws_apps::gcmark;
use std::hint::black_box;

pub const PLACES: usize = 1;
const FIB_N: u64 = 25;

pub struct FineGrain {
    gp: gcmark::Params,
    graph: gcmark::Graph,
    fib_oracle: u64,
    marks_oracle: Vec<bool>,
    fib_out: u64,
    marks: Vec<bool>,
}

fn fib_serial(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    fib_serial(n - 1) + fib_serial(n - 2)
}

fn fib_join(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = numa_ws::join(|| fib_join(n - 1), || fib_join(n - 2));
    a + b
}

impl FineGrain {
    pub fn new(seed: u64) -> Self {
        let gp = gcmark::Params { nodes: 1 << 16, avg_degree: 4, roots: 4, chunk: 16, seed };
        FineGrain {
            gp,
            graph: gcmark::random_graph(gp),
            fib_oracle: 0,
            marks_oracle: Vec::new(),
            fib_out: 0,
            marks: Vec::new(),
        }
    }

    /// Computes the serial oracle outputs.
    pub fn oracle(&mut self) {
        self.fib_oracle = fib_serial(black_box(FIB_N));
        self.marks_oracle = gcmark::run_serial(&self.graph, self.gp);
    }

    /// Bytes of the graph and mark vector, computed from their sizes.
    pub fn working_set_bytes(&self) -> usize {
        (self.graph.num_nodes() + 1) * 8 + self.graph.num_edges() * 4 + self.graph.num_nodes()
    }
}

impl Batch for FineGrain {
    fn run(&mut self, exec: Exec<'_>, mut tr: Option<&mut Tracer>) {
        let par = matches!(exec, Exec::Pool(_));
        let n = black_box(FIB_N);
        self.fib_out =
            exec.run(
                tr.as_deref_mut(),
                "apps.fib",
                || if par { fib_join(n) } else { fib_serial(n) },
            );
        let (g, p) = (&self.graph, self.gp);
        self.marks = exec.run(tr, "apps.gcmark", || {
            if par {
                gcmark::run_parallel(g, p, PLACES)
            } else {
                gcmark::run_serial(g, p)
            }
        });
    }

    fn check(&self) -> bool {
        self.fib_out == self.fib_oracle && self.marks == self.marks_oracle
    }
}
