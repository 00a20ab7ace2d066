//! Cross-substrate determinism of the scheduling-policy layer.
//!
//! The runtime's steal loop and the simulator's engine both (a) derive a
//! worker's random stream from `worker_rng_seed` + the SplitMix64 stream
//! (the runtime steps `SplitMix64` directly; the simulator draws through
//! the vendored `SmallRng`, which is pinned to the same stream), and (b)
//! build victim distributions through `SchedPolicy::victim_distribution`.
//! These tests pin the consequence: the same seed and the same policy
//! produce the identical victim-index sequence from
//! `StealDistribution::sample`, and the identical `(victim, try_mailbox)`
//! decisions from `SchedPolicy::steal_target`, on both substrates — plus
//! golden fixtures so the sequences themselves cannot drift silently.

use numa_ws_repro::topology::{presets, worker_rng_seed, Placement, SchedPolicy, SplitMix64};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// The shared fixture: paper machine, 32 packed workers, run seed 0x5EED
/// (both substrates' default).
const SEED: u64 = 0x5EED;
const WORKERS: usize = 32;

fn victim_sequence_runtime_style(policy: &SchedPolicy, worker: usize, n: usize) -> Vec<usize> {
    let topo = presets::paper_machine();
    let map = Placement::Packed.assign(&topo, WORKERS).unwrap();
    let dist = policy.victim_distribution(&topo, &map, worker).expect("P >= 2");
    let mut rng = SplitMix64::new(worker_rng_seed(SEED, worker));
    (0..n).map(|_| dist.sample(rng.next_u64())).collect()
}

fn victim_sequence_sim_style(policy: &SchedPolicy, worker: usize, n: usize) -> Vec<usize> {
    let topo = presets::paper_machine();
    let map = Placement::Packed.assign(&topo, WORKERS).unwrap();
    let dist = policy.victim_distribution(&topo, &map, worker).expect("P >= 2");
    // The simulator draws through the vendored SmallRng; seed it exactly
    // as `Engine::new` does.
    let mut rng = SmallRng::seed_from_u64(worker_rng_seed(SEED, worker));
    (0..n).map(|_| dist.sample(rng.next_u64())).collect()
}

#[test]
fn same_policy_same_seed_same_victims_on_both_substrates() {
    for (name, policy) in SchedPolicy::ablation_grid() {
        for worker in [0usize, 7, 15, 31] {
            let runtime = victim_sequence_runtime_style(&policy, worker, 256);
            let sim = victim_sequence_sim_style(&policy, worker, 256);
            assert_eq!(runtime, sim, "policy {name}, worker {worker}");
            assert!(runtime.iter().all(|&v| v != worker && v < WORKERS));
        }
    }
}

#[test]
fn golden_victim_sequence_fixture() {
    // Worker 0's first sixteen victims under each bias, pinned as
    // literals: a change to the RNG stream, the seed derivation, the
    // weight table, or the sampling arithmetic shows up here as a diff,
    // on either substrate (the test above ties them together).
    let uniform = victim_sequence_runtime_style(&SchedPolicy::vanilla(), 0, 16);
    assert_eq!(uniform, [9, 12, 22, 2, 28, 14, 2, 12, 4, 1, 11, 21, 11, 17, 2, 12]);
    let biased = victim_sequence_runtime_style(&SchedPolicy::numa_ws(), 0, 16);
    assert_eq!(biased, [6, 31, 3, 28, 21, 2, 12, 12, 2, 22, 28, 16, 12, 20, 26, 14]);
    // The two biases must actually disagree somewhere on this fixture.
    assert_ne!(uniform, biased);
}

/// Worker `worker`'s first `n` Figure 5 steal decisions, drawn from the
/// runtime's `SplitMix64` stream and from the simulator's `SmallRng`
/// stream; the two must agree.
fn steal_decisions(policy: &SchedPolicy, worker: usize, n: usize) -> Vec<(usize, bool)> {
    let topo = presets::paper_machine();
    let map = Placement::Packed.assign(&topo, WORKERS).unwrap();
    let dist = policy.victim_distribution(&topo, &map, worker).expect("P >= 2");
    let mut runtime = SplitMix64::new(worker_rng_seed(SEED, worker));
    let mut sim = SmallRng::seed_from_u64(worker_rng_seed(SEED, worker));
    let a: Vec<_> = (0..n).map(|_| policy.steal_target(&dist, || runtime.next_u64())).collect();
    let b: Vec<_> = (0..n).map(|_| policy.steal_target(&dist, || sim.next_u64())).collect();
    assert_eq!(a, b, "both random streams must make the same decisions");
    a
}

#[test]
fn golden_steal_decision_fixture() {
    // Worker 0's first sixteen (victim, try_mailbox) decisions under the
    // two fair-coin presets, pinned as literals: the coin's place in the
    // draw order (victim first, then the coin) cannot drift on either
    // substrate without a diff here.
    let numa = steal_decisions(&SchedPolicy::numa_ws(), 0, 16);
    assert_eq!(
        numa,
        [
            (6, false),
            (3, false),
            (21, true),
            (12, false),
            (2, false),
            (28, true),
            (12, false),
            (26, true),
            (16, true),
            (16, true),
            (17, true),
            (17, false),
            (13, true),
            (24, true),
            (27, true),
            (2, true),
        ]
    );
    let mailbox_only = steal_decisions(&SchedPolicy::mailbox_only(), 0, 16);
    assert_eq!(
        mailbox_only,
        [
            (9, false),
            (22, false),
            (28, true),
            (2, false),
            (4, false),
            (11, true),
            (11, false),
            (2, true),
            (31, true),
            (25, true),
            (19, true),
            (1, false),
            (18, true),
            (31, true),
            (4, true),
            (6, true),
        ]
    );
    // Without mailboxes no coin is drawn: the decisions are the victim
    // sequence alone.
    let vanilla = steal_decisions(&SchedPolicy::vanilla(), 0, 16);
    assert!(vanilla.iter().all(|&(_, try_mailbox)| !try_mailbox));
    let victims: Vec<usize> = vanilla.iter().map(|&(v, _)| v).collect();
    assert_eq!(victims, victim_sequence_runtime_style(&SchedPolicy::vanilla(), 0, 16));
}

#[test]
fn biased_fixture_prefers_local_socket() {
    // The inverse-distance bias must pick victims on worker 0's own
    // socket more often than uniform selection does over a long draw.
    // Expected local shares on the paper machine: uniform 7/31 ≈ 22.6%,
    // inverse-distance ≈ 40.7% (weights 1 : 10/21 : 10/31) — a ×1.8
    // ratio; assert a ×1.5 margin to stay noise-proof at n = 10k.
    let topo = presets::paper_machine();
    let map = Placement::Packed.assign(&topo, WORKERS).unwrap();
    let my_socket = map.socket_of(0);
    let n = 10_000;
    let local = |seq: &[usize]| seq.iter().filter(|&&v| map.socket_of(v) == my_socket).count();
    let uniform = victim_sequence_runtime_style(&SchedPolicy::vanilla(), 0, n);
    let biased = victim_sequence_runtime_style(&SchedPolicy::numa_ws(), 0, n);
    assert!(
        local(&biased) as f64 > local(&uniform) as f64 * 1.5,
        "biased local {} vs uniform local {}",
        local(&biased),
        local(&uniform)
    );
}

// ---------------------------------------------------------------------------
// Record → replay: the golden determinism loop
// ---------------------------------------------------------------------------

use numa_ws_repro::runtime::Pool;
use numa_ws_repro::sim::{trace_to_dag, ScheduleLog, SimConfig, Simulation, DEFAULT_NS_PER_CYCLE};
use numa_ws_repro::trace::Trace;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = numa_ws_repro::runtime::join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Records `work` on a real 4-worker pool and returns the trace.
fn record_on_pool(label: &str, work: impl FnOnce() + Send) -> Trace {
    let pool = Pool::builder().workers(4).places(2).seed(SEED).record_trace(true).build().unwrap();
    pool.install(work);
    let trace = pool.take_trace(label).expect("recording was enabled");
    trace.validate().expect("recorded trace is well-formed");
    trace
}

/// Replays `trace` once under `policy` with schedule logging; the log *is*
/// the schedule: `steals` carries the (thief, victim, frame) sequence in
/// commit order, `executors` the final placement of every frame.
fn replay(trace: &Trace, policy: &SchedPolicy) -> ScheduleLog {
    let topo = presets::paper_machine();
    let dag = trace_to_dag(trace, 1);
    let cfg = SimConfig::with_policy(*policy, 8).with_seed(SEED).with_log_schedule(true);
    Simulation::new(&topo, cfg, &dag).expect("8 workers fit").run().schedule.expect("logged")
}

#[test]
fn recorded_fib_replays_with_identical_victims_and_placements() {
    let trace = record_on_pool("golden-fib", || {
        assert_eq!(fib(10), 55);
    });
    // fib(10)'s call tree has 88 internal calls; each join pushes one job,
    // plus the install root: 89 recorded tasks, every run.
    assert_eq!(trace.tasks.len(), 89);
    for (name, policy) in SchedPolicy::ablation_grid() {
        let a = replay(&trace, &policy);
        let b = replay(&trace, &policy);
        assert_eq!(a.steals, b.steals, "{name}: victim sequence must be identical");
        assert_eq!(a.executors, b.executors, "{name}: placements must be identical");
        assert!(a.executors.iter().all(Option::is_some), "{name}: every frame ran");
    }
}

#[test]
fn recorded_cilksort_replays_with_identical_victims_and_placements() {
    use numa_ws_repro::apps::{cilksort, common};
    let params = cilksort::Params::test();
    let mut keys = common::random_keys(4096, SEED);
    let mut tmp = vec![0u64; keys.len()];
    let trace = record_on_pool("golden-cilksort", || {
        cilksort::sort_parallel(&mut keys, &mut tmp, params, 2);
    });
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "the sort must have sorted");
    assert!(trace.num_started() > 1, "the sort must actually fork");
    for (name, policy) in SchedPolicy::ablation_grid() {
        let a = replay(&trace, &policy);
        let b = replay(&trace, &policy);
        assert_eq!(a.steals, b.steals, "{name}: victim sequence must be identical");
        assert_eq!(a.executors, b.executors, "{name}: placements must be identical");
    }
}

/// The committed golden trace: `fib(12)` recorded once on the real pool.
const GOLDEN_TRACE: &str = include_str!("../crates/bench/traces/golden_fib.trace");

#[test]
fn golden_trace_replay_outcomes_are_pinned() {
    // Absolute simulator outcomes of the committed trace under every
    // ablation preset, seed 42, as literals: `(makespan, steals,
    // mailbox_takes, push_deliveries)`. The tests above only check that
    // two runs agree with each other; a drift both runs share fails here.
    // P = 8 packs one socket; P = 32 spans all four, where the bias shows.
    let trace = Trace::parse(GOLDEN_TRACE).expect("the golden trace parses");
    let dag = trace_to_dag(&trace, DEFAULT_NS_PER_CYCLE);
    let topo = presets::paper_machine();
    let expected = [
        ("vanilla", [(16490, 36, 0, 0), (13373, 67, 0, 0)]),
        ("bias-only", [(16490, 36, 0, 0), (12629, 73, 0, 0)]),
        ("mailbox-only", [(16209, 27, 0, 0), (12097, 74, 0, 0)]),
        ("numa-ws", [(16209, 27, 0, 0), (12847, 70, 0, 0)]),
    ];
    for ((name, policy), (expected_name, outcomes)) in
        SchedPolicy::ablation_grid().into_iter().zip(expected)
    {
        assert_eq!(name, expected_name);
        for (workers, want) in [8, 32].into_iter().zip(outcomes) {
            let cfg = SimConfig::with_policy(policy, workers).with_seed(42);
            let r = Simulation::new(&topo, cfg, &dag).expect("fits").run();
            let c = r.counters;
            let got = (r.makespan, c.steals, c.mailbox_takes, c.push_deliveries);
            assert_eq!(got, want, "{name} at P = {workers}");
        }
    }
}

// ---------------------------------------------------------------------------
// Absolute simulator outcomes of the app DAGs at P = 32
// ---------------------------------------------------------------------------

#[test]
fn app_dag_outcomes_at_p32_are_pinned() {
    // `(makespan, steal_attempts, steals, mailbox_takes, class_lines)` of
    // the heat, cilksort and gcmark DAGs on the paper machine at P = 32,
    // seed 0x5EED, under `numa-ws` and `vanilla`, as literals. Idle workers
    // make almost all of the steal attempts, and every failed attempt
    // advances its thief's random stream and clock; a change to how the
    // engine orders or batches those turns shows up here first, in
    // `steal_attempts`, before any makespan moves. The heat and cilksort
    // sizes are those of the repo benchmark's `sim_replay` cells.
    use numa_ws_repro::apps::{cilksort, gcmark, heat};
    let topo = presets::paper_machine();
    let places = topo.num_sockets();
    let dags = [
        ("heat", heat::dag(heat::Params { rows: 512, cols: 1024, steps: 2, rows_base: 8 }, places)),
        (
            "cilksort",
            cilksort::dag(
                cilksort::Params { n: 1 << 18, sort_base: 1 << 13, merge_base: 1 << 13 },
                places,
            ),
        ),
        ("gcmark", gcmark::dag(gcmark::Params { nodes: 1 << 14, ..gcmark::Params::sim() }, places)),
    ];
    type Outcome = (u64, u64, u64, u64, [u64; 5]);
    let expected: [(&str, [Outcome; 2]); 3] = [
        (
            "heat",
            [
                (1048597, 205922, 243, 879, [7936, 139648, 15744, 112512, 18560]),
                (2826950, 348343, 219, 0, [6784, 54144, 102400, 40320, 90752]),
            ],
        ),
        (
            "cilksort",
            [
                (2235648, 268783, 795, 3998, [31744, 221184, 107520, 56832, 8704]),
                (2325533, 147896, 776, 0, [22528, 181760, 156160, 14336, 51200]),
            ],
        ),
        (
            "gcmark",
            [
                (267649, 77160, 148, 463, [62800, 3584, 0, 256, 256]),
                (290294, 74872, 147, 0, [50512, 14336, 1536, 256, 256]),
            ],
        ),
    ];
    for ((name, dag), (expected_name, outcomes)) in dags.iter().zip(expected) {
        assert_eq!(*name, expected_name);
        for ((policy_name, policy), want) in
            [("numa-ws", SchedPolicy::numa_ws()), ("vanilla", SchedPolicy::vanilla())]
                .into_iter()
                .zip(outcomes)
        {
            let cfg = SimConfig::with_policy(policy, 32).with_seed(SEED);
            let r = Simulation::new(&topo, cfg, dag).expect("fits").run();
            let c = r.counters;
            let got = (r.makespan, c.steal_attempts, c.steals, c.mailbox_takes, r.class_lines);
            assert_eq!(got, want, "{name} under {policy_name}");
        }
    }
}
