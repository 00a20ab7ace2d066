//! Chaos tier: runs real workloads under deterministic fault plans and
//! asserts the runtime's graceful-degradation contract (DESIGN.md §9).
//!
//! Build with the fault backend compiled in — in a default build the fault
//! points are constant no-ops and this bin degrades to a fault-free sanity
//! pass:
//!
//! ```text
//! RUSTFLAGS="--cfg nws_fault" CARGO_TARGET_DIR=target-fault \
//!     cargo run --release -p nws_bench --bin chaos
//! ```
//!
//! Every trial runs one workload on a fresh pool under one installed
//! [`FaultPlan`], in its own thread behind a watchdog. The contract under
//! test:
//!
//! - an injected fault may *degrade* the run (pool poisoned, callers see
//!   [`PoisonedPool`] or the injected payload), but must never hang it,
//!   corrupt a result, or run a job twice;
//! - fire-and-forget accounting is conserved: every accepted `spawn`
//!   either executes exactly once or is counted in `PoolStats::sheds`.
//!
//! Outcomes: `pass` (correct result, healthy pool), `degraded` (fault
//! surfaced through a sanctioned channel), `FAIL` (wrong result, double
//! execution, lost jobs, or an unsanctioned panic), `HANG` (watchdog
//! expired — the suite aborts immediately and prints a one-line repro).
//!
//! `--plan "<plan>"` replays one plan (the repro line a failing run
//! prints); `--self-test` proves the harness itself detects broken
//! invariants (a fabricated double execution, a stalled trial, and — with
//! the backend compiled in — a seeded `job.exec` panic).

use nws_sync::atomic::{AtomicU32, Ordering};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use numa_ws::{join_at, PoisonedPool, Pool, SchedPolicy};
use nws_apps::{cilksort, gcmark};
use nws_bench::Table;
use nws_sync::fault::{self, FaultPlan, InjectedFault};
use nws_topology::Place;

/// Per-trial watchdog budget. Generous: a healthy trial takes tens of
/// milliseconds; only a genuine hang ever gets near it.
const TRIAL_BUDGET: Duration = Duration::from_secs(30);

/// Hand-written plans covering every point/action pair the catalog allows
/// (plus multi-op combinations). Committed so failures reproduce by line,
/// not by seed archaeology.
const COMMITTED_PLANS: &[&str] = &[
    "seed=0x01 steal.handshake@1=fail",
    "seed=0x02 steal.handshake@2=panic",
    "seed=0x03 steal.handshake@3=delay:500",
    "seed=0x04 mailbox.deposit@1=fail",
    "seed=0x05 mailbox.deposit@2=panic",
    "seed=0x06 mailbox.deposit@1=delay:500",
    "seed=0x07 ingress.push@1=panic",
    "seed=0x08 ingress.push@2=delay:500",
    "seed=0x09 sleep.wake@1=fail",
    "seed=0x0a sleep.wake@2=delay:500",
    "seed=0x0b job.exec@1=panic",
    "seed=0x0c job.exec@5=panic",
    "seed=0x0d job.exec@3=delay:500",
    "seed=0x0e job.exec@2=panic steal.handshake@4=fail sleep.wake@1=fail",
    // The re-sited steal.handshake point under the lock-free CAS steal
    // (PR 10): the point now fires before any claim, so a delayed thief
    // stalls only itself (there is no steal lock for it to hold), a
    // panicking thief unwinds with the indices untouched, and a failed
    // attempt is indistinguishable from a lost CAS. Stack all three
    // actions on consecutive steal attempts to prove each degrades
    // independently within one run.
    "seed=0x0f steal.handshake@1=delay:500 steal.handshake@2=panic steal.handshake@3=fail",
];

/// Seeded plans on top of the committed ones: same generator the docs'
/// one-line repro format round-trips through.
const SEEDED_PLANS: u64 = 10;
const SEED_BASE: u64 = 0xC4A0_5000;

const WORKLOADS: &[&str] = &["count", "fib", "cilksort", "gcmark"];

#[derive(Debug)]
enum Outcome {
    /// Correct result, pool healthy.
    Pass,
    /// Fault surfaced through a sanctioned channel (poisoned pool, an
    /// [`InjectedFault`] or [`PoisonedPool`] payload reaching the caller).
    Degraded(String),
    /// Invariant violated: wrong result, double execution, lost jobs, or
    /// an unsanctioned panic.
    Fail(String),
    /// The watchdog expired.
    Hang,
}

impl Outcome {
    fn cell(&self) -> String {
        match self {
            Outcome::Pass => "pass".to_string(),
            Outcome::Degraded(why) => format!("degraded: {why}"),
            Outcome::Fail(why) => format!("FAIL: {why}"),
            Outcome::Hang => "HANG".to_string(),
        }
    }
}

fn build_pool() -> Pool {
    Pool::builder()
        .workers(4)
        .places(2)
        .policy(SchedPolicy::numa_ws())
        .build()
        .expect("pool builds")
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    // Alternate the hint so PUSHBACK sees foreign traffic.
    let (a, b) = join_at(|| fib(n - 1), || fib(n - 2), Place((n % 2) as usize));
    a + b
}

fn fib_serial(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// Shared exactly-once/conservation validator (also exercised by
/// `--self-test` against fabricated violations).
///
/// All slot counters here are `Relaxed` (the seqcst-budget audit): each
/// slot is a single atomic location, so its modification order alone
/// decides "executed more than once", and the executed-vs-shed ledger is
/// only summed after the polling loop has observed quiescence — no
/// cross-location ordering is ever relied on.
fn verify_exactly_once(slots: &[AtomicU32], accepted: u64, sheds: u64) -> Result<(), String> {
    for (i, s) in slots.iter().enumerate() {
        let n = s.load(Ordering::Relaxed);
        if n > 1 {
            return Err(format!("slot {i} executed {n} times (exactly-once violated)"));
        }
    }
    let executed: u64 = slots.iter().map(|s| u64::from(s.load(Ordering::Relaxed))).sum();
    if executed + sheds != accepted {
        return Err(format!(
            "job accounting violated: executed={executed} + sheds={sheds} != accepted={accepted}"
        ));
    }
    Ok(())
}

/// Fire-and-forget accounting: N spawns, each bumping its own slot.
/// Every accepted job must run exactly once or be counted as shed.
fn count_workload() -> Result<bool, String> {
    const N: usize = 400;
    let pool = build_pool();
    let slots: Arc<Vec<AtomicU32>> = Arc::new((0..N).map(|_| AtomicU32::new(0)).collect());
    for i in 0..N {
        let slots = Arc::clone(&slots);
        pool.spawn_at(Place(i % 2), move || {
            slots[i].fetch_add(1, Ordering::Relaxed);
        });
    }
    // Poll to quiescence: a healthy pool executes everything; a poisoned
    // one drains what it accepted and sheds the rest — either way the
    // ledger must balance without waiting on pool teardown.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let executed: u64 = slots.iter().map(|s| u64::from(s.load(Ordering::Relaxed))).sum();
        let sheds = pool.stats().sheds;
        if executed + sheds >= N as u64 {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "jobs lost: executed={executed} + sheds={sheds} never reached {N}"
            ));
        }
        thread::sleep(Duration::from_millis(5));
    }
    verify_exactly_once(&slots, N as u64, pool.stats().sheds)?;
    Ok(pool.is_poisoned())
}

fn fib_workload() -> Result<bool, String> {
    // fib(24) runs a few milliseconds — long enough for real steal and
    // PUSHBACK traffic (fib(18) finishes before the first steal lands, and
    // the mailbox.deposit point would never be reached).
    let pool = build_pool();
    let got = pool.install(|| fib(24));
    let want = fib_serial(24);
    if got != want {
        return Err(format!("fib(24) = {got}, want {want}"));
    }
    Ok(pool.is_poisoned())
}

fn cilksort_workload() -> Result<bool, String> {
    let p = cilksort::Params::test();
    // Deterministic pseudo-random keys (xorshift64*).
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut data: Vec<u64> = (0..p.n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut expected = data.clone();
    expected.sort_unstable();
    let mut tmp = vec![0u64; p.n];
    let pool = build_pool();
    pool.install(|| cilksort::sort_parallel(&mut data, &mut tmp, p, 2));
    if data != expected {
        return Err("cilksort produced an unsorted or corrupted array".to_string());
    }
    Ok(pool.is_poisoned())
}

fn gcmark_workload() -> Result<bool, String> {
    let p = gcmark::Params::test();
    let g = gcmark::random_graph(p);
    let want = gcmark::run_serial(&g, p);
    let pool = build_pool();
    let got = pool.install(|| gcmark::run_parallel(&g, p, 2));
    if got != want {
        return Err("gcmark parallel mark diverged from serial".to_string());
    }
    Ok(pool.is_poisoned())
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Runs one workload to an [`Outcome`], catching sanctioned panics.
fn run_workload(name: &str) -> Outcome {
    let result = panic::catch_unwind(AssertUnwindSafe(|| match name {
        "count" => count_workload(),
        "fib" => fib_workload(),
        "cilksort" => cilksort_workload(),
        "gcmark" => gcmark_workload(),
        // Self-test plants: a fabricated double execution, and a stall the
        // watchdog must convert into HANG.
        "selftest-double" => {
            let slots: Vec<AtomicU32> = (0..3).map(|_| AtomicU32::new(0)).collect();
            slots[0].fetch_add(1, Ordering::Relaxed);
            slots[1].fetch_add(2, Ordering::Relaxed);
            verify_exactly_once(&slots, 3, 0)?;
            Ok(false)
        }
        "selftest-stall" => {
            thread::sleep(Duration::from_secs(2));
            Ok(false)
        }
        other => Err(format!("unknown workload {other:?}")),
    }));
    match result {
        Ok(Ok(false)) => Outcome::Pass,
        Ok(Ok(true)) => Outcome::Degraded("pool poisoned; run completed".to_string()),
        Ok(Err(why)) => Outcome::Fail(why),
        Err(payload) => {
            if let Some(f) = payload.downcast_ref::<InjectedFault>() {
                Outcome::Degraded(f.to_string())
            } else if let Some(p) = payload.downcast_ref::<PoisonedPool>() {
                Outcome::Degraded(p.to_string())
            } else {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Outcome::Fail(format!("unsanctioned panic: {msg}"))
            }
        }
    }
}

/// Runs one workload behind a watchdog: the trial gets its own thread and
/// must report within `budget` or the outcome is [`Outcome::Hang`]. A hung
/// trial's thread is leaked deliberately — joining it would hang the
/// harness, which is exactly the failure mode under test.
fn run_trial(workload: &'static str, budget: Duration) -> Outcome {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(run_workload(workload));
    });
    match rx.recv_timeout(budget) {
        Ok(outcome) => outcome,
        Err(_) => Outcome::Hang,
    }
}

fn repro_line(plan: &FaultPlan) -> String {
    format!(
        "RUSTFLAGS=\"--cfg nws_fault\" cargo run --release -p nws_bench --bin chaos -- --plan \"{plan}\""
    )
}

/// Runs the full plan × workload matrix; returns process exit code.
fn run_suite(plans: &[FaultPlan]) -> i32 {
    let mut table = Table::new(vec!["plan", "workload", "outcome", "fired"]);
    let mut failures = 0usize;
    let mut total_fired = 0usize;
    for plan in plans {
        for &workload in WORKLOADS {
            fault::install(plan);
            let outcome = run_trial(workload, TRIAL_BUDGET);
            let fired = fault::clear();
            total_fired += fired.len();
            if let Outcome::Hang = outcome {
                // Abort immediately: the leaked trial still holds a pool,
                // and every further row would be noise.
                println!("{table}");
                eprintln!("HANG: {workload} under plan \"{plan}\" exceeded {TRIAL_BUDGET:?}");
                eprintln!("repro: {}", repro_line(plan));
                return 1;
            }
            if matches!(outcome, Outcome::Fail(_)) {
                eprintln!("FAIL: {workload} under plan \"{plan}\"");
                eprintln!("repro: {}", repro_line(plan));
                failures += 1;
            }
            table.row(vec![
                plan.to_string(),
                workload.to_string(),
                outcome.cell(),
                fired.len().to_string(),
            ]);
        }
    }
    println!("{table}");
    println!(
        "chaos: {} trials, {} faults fired, {} failures",
        plans.len() * WORKLOADS.len(),
        total_fired,
        failures
    );
    if fault::enabled() && total_fired == 0 {
        eprintln!("FAIL: no fault ever fired — the injection backend is not reaching the points");
        return 1;
    }
    i32::from(failures > 0)
}

/// Fault-free pass of every workload: the degradation machinery must be
/// invisible when nothing is injected (also the default-build fallback).
fn run_fault_free() -> i32 {
    let mut failures = 0usize;
    for &workload in WORKLOADS {
        let outcome = run_trial(workload, TRIAL_BUDGET);
        println!("  {workload}: {}", outcome.cell());
        if !matches!(outcome, Outcome::Pass) {
            failures += 1;
        }
    }
    i32::from(failures > 0)
}

/// Proves the harness has teeth: each planted violation must be detected.
fn self_test() -> i32 {
    let mut failures = 0usize;
    let mut check = |name: &str, ok: bool, detail: String| {
        println!("  self-test {name}: {} ({detail})", if ok { "ok" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    let double = run_trial("selftest-double", TRIAL_BUDGET);
    check("double-execution detected", matches!(double, Outcome::Fail(_)), double.cell());

    let stall = run_trial("selftest-stall", Duration::from_millis(200));
    check("watchdog trips on a stall", matches!(stall, Outcome::Hang), stall.cell());

    if fault::enabled() {
        let plan: FaultPlan = "seed=0x5e1f job.exec@1=panic".parse().expect("plan parses");
        fault::install(&plan);
        let outcome = run_trial("count", TRIAL_BUDGET);
        let fired = fault::clear();
        check(
            "seeded job.exec panic degrades (not fails, not hangs)",
            matches!(outcome, Outcome::Degraded(_)) && !fired.is_empty(),
            format!("{} with {} fired", outcome.cell(), fired.len()),
        );

        // The lock-free steal path: a panic at the re-sited
        // steal.handshake point (fires before any CAS claim) must unwind
        // into a poisoned-but-correct run — nothing was claimed, so no
        // job can be lost or doubled — and must actually fire under a
        // steal-heavy workload.
        let plan: FaultPlan = "seed=0x5e2f steal.handshake@1=panic".parse().expect("plan parses");
        fault::install(&plan);
        let outcome = run_trial("fib", TRIAL_BUDGET);
        let fired = fault::clear();
        check(
            "seeded steal.handshake panic degrades under the lock-free steal",
            matches!(outcome, Outcome::Degraded(_)) && !fired.is_empty(),
            format!("{} with {} fired", outcome.cell(), fired.len()),
        );
    } else {
        println!("  self-test fault-backend piece skipped (built without --cfg nws_fault)");
    }
    println!("chaos --self-test: {failures} failures");
    i32::from(failures > 0)
}

fn main() {
    // Injected panics are expected traffic here; keep the default hook's
    // backtrace spew for genuine panics only.
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let expected = info.payload().downcast_ref::<InjectedFault>().is_some()
            || info.payload().downcast_ref::<PoisonedPool>().is_some();
        if !expected {
            default_hook(info);
        }
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--self-test") {
        std::process::exit(self_test());
    }

    if let Some(i) = args.iter().position(|a| a == "--plan") {
        let text = args.get(i + 1).expect("--plan needs a value");
        let plan: FaultPlan = text.parse().unwrap_or_else(|e| panic!("bad plan {text:?}: {e}"));
        if !fault::enabled() {
            eprintln!("chaos: built without --cfg nws_fault; \"{plan}\" cannot fire");
        }
        std::process::exit(run_suite(std::slice::from_ref(&plan)));
    }

    if !fault::enabled() {
        println!("chaos: built without --cfg nws_fault; fault points are compiled out.");
        println!("chaos: running a fault-free sanity pass instead:");
        std::process::exit(run_fault_free());
    }

    let mut plans: Vec<FaultPlan> = COMMITTED_PLANS
        .iter()
        .map(|s| s.parse().unwrap_or_else(|e| panic!("committed plan {s:?}: {e}")))
        .collect();
    plans.extend((1..=SEEDED_PLANS).map(|i| FaultPlan::from_seed(SEED_BASE + i)));
    std::process::exit(run_suite(&plans));
}
