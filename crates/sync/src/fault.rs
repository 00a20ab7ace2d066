//! Deterministic fault injection behind the sync facade.
//!
//! The runtime threads **named fault points** through its protocol code —
//! `fault::point("mailbox.deposit")` before a PUSHBACK deposit,
//! `"steal.handshake"` inside the THE steal protocol, `"ingress.push"` at
//! external submission, `"sleep.wake"` in the sleep/wake layer, and
//! `"job.exec"` just before a found job executes. In a default build every
//! point compiles to an `#[inline(always)]` no-op returning `false`; under
//! `--cfg nws_fault` (usually via `RUSTFLAGS="--cfg nws_fault"`) an
//! installed [`FaultPlan`] counts hits per point and fires **actions** on
//! chosen hits:
//!
//! - `panic` — [`hit`] panics with an [`InjectedFault`] payload, modelling
//!   runtime code dying mid-protocol (the worker supervisor must contain
//!   it),
//! - `fail` — [`hit`] returns `true` and the call site takes its failure
//!   path (a forced steal retry, a refused mailbox deposit, a spurious
//!   wakeup),
//! - `delay:N` — [`hit`] sleeps `N` microseconds and returns `false`,
//!   modelling a stalled participant (a lagging waker, a descheduled
//!   thief).
//!
//! A plan is a plain-text one-liner (`Display`/`FromStr` round-trip, e.g.
//! `seed=0x2a job.exec@3=panic sleep.wake@2=delay:100`), so a failing run
//! is reproducible from one log line; [`FaultPlan::from_seed`] derives a
//! plan deterministically from a bare seed for matrix-style chaos tiers.
//! The plan *types* are compiled unconditionally (so the round-trip tests
//! run in every tier); only the activation machinery is gated.

use crate::splitmix64;
use std::fmt;
use std::str::FromStr;

/// The named fault points the runtime declares, in protocol order. The
/// catalog drives [`FaultPlan::from_seed`]; [`point`]/[`hit`] accept any
/// name so new call sites need no registration here to work, but seeded
/// plans only ever target these.
pub const POINTS: &[&str] =
    &["mailbox.deposit", "steal.handshake", "ingress.push", "sleep.wake", "job.exec"];

/// What an armed fault point does on its firing hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with an [`InjectedFault`] payload (runtime code dies here).
    Panic,
    /// Report the point as "failed": [`hit`] returns `true` and the call
    /// site takes its failure path (retry, refusal, spurious wake).
    Fail,
    /// Stall for this many microseconds, then proceed normally.
    Delay(u64),
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::Fail => write!(f, "fail"),
            FaultAction::Delay(us) => write!(f, "delay:{us}"),
        }
    }
}

impl FromStr for FaultAction {
    type Err = ParseFaultPlanError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "panic" => Ok(FaultAction::Panic),
            "fail" => Ok(FaultAction::Fail),
            _ => match s.strip_prefix("delay:") {
                Some(us) => us
                    .parse()
                    .map(FaultAction::Delay)
                    .map_err(|_| ParseFaultPlanError(format!("bad delay microseconds {us:?}"))),
                None => Err(ParseFaultPlanError(format!("unknown action {s:?}"))),
            },
        }
    }
}

/// One armed fault: on the `hit`-th time `point` is reached (1-based,
/// counted across the whole run), perform `action`. Each op fires at most
/// once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultOp {
    /// Fault-point name (see [`POINTS`]).
    pub point: String,
    /// Which hit of the point fires this op (1-based).
    pub hit: u64,
    /// What happens on the firing hit.
    pub action: FaultAction,
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}={}", self.point, self.hit, self.action)
    }
}

impl FromStr for FaultOp {
    type Err = ParseFaultPlanError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (head, action) = s
            .split_once('=')
            .ok_or_else(|| ParseFaultPlanError(format!("op {s:?} lacks '=action'")))?;
        let (point, hit) = head
            .split_once('@')
            .ok_or_else(|| ParseFaultPlanError(format!("op {s:?} lacks '@hit'")))?;
        if point.is_empty() || point.contains(['@', '=']) || point.contains(char::is_whitespace) {
            return Err(ParseFaultPlanError(format!("bad point name {point:?}")));
        }
        let hit: u64 =
            hit.parse().map_err(|_| ParseFaultPlanError(format!("bad hit count {hit:?}")))?;
        if hit == 0 {
            return Err(ParseFaultPlanError("hit counts are 1-based".into()));
        }
        Ok(FaultOp { point: point.to_string(), hit, action: action.parse()? })
    }
}

/// A deterministic fault schedule: a seed (provenance metadata — parsing
/// never re-derives ops from it) plus the armed ops.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The seed this plan was derived from (or any label-friendly number
    /// for hand-written plans).
    pub seed: u64,
    /// The armed ops. Ops on the same point share that point's hit
    /// counter.
    pub ops: Vec<FaultOp>,
}

/// Per-point menu of sensible actions for seeded plans. `job.exec` and
/// `ingress.push` exclude `Fail`: a "failed" execution or submission would
/// silently drop a job, which is a correctness bug to *detect*, not a
/// fault to inject.
const CATALOG: &[(&str, &[FaultAction])] = &[
    ("mailbox.deposit", &[FaultAction::Panic, FaultAction::Fail, FaultAction::Delay(0)]),
    ("steal.handshake", &[FaultAction::Panic, FaultAction::Fail, FaultAction::Delay(0)]),
    ("ingress.push", &[FaultAction::Panic, FaultAction::Delay(0)]),
    ("sleep.wake", &[FaultAction::Fail, FaultAction::Delay(0)]),
    ("job.exec", &[FaultAction::Panic, FaultAction::Delay(0)]),
];

impl FaultPlan {
    /// Derives a plan deterministically from `seed`: one to three ops over
    /// the [`POINTS`] catalog, with hit counts in the low range a short
    /// workload actually reaches.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed;
        let n = 1 + (splitmix64(&mut s) % 3) as usize;
        let ops = (0..n)
            .map(|_| {
                let (point, menu) = CATALOG[(splitmix64(&mut s) % CATALOG.len() as u64) as usize];
                let action = match menu[(splitmix64(&mut s) % menu.len() as u64) as usize] {
                    FaultAction::Delay(_) => FaultAction::Delay(50 + splitmix64(&mut s) % 2000),
                    a => a,
                };
                FaultOp { point: point.to_string(), hit: 1 + splitmix64(&mut s) % 24, action }
            })
            .collect();
        FaultPlan { seed, ops }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={:#x}", self.seed)?;
        for op in &self.ops {
            write!(f, " {op}")?;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = ParseFaultPlanError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut tokens = s.split_whitespace();
        let seed = tokens
            .next()
            .and_then(|t| t.strip_prefix("seed="))
            .ok_or_else(|| ParseFaultPlanError("plan must start with seed=0x..".into()))?;
        let seed = seed
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .or_else(|| seed.parse().ok())
            .ok_or_else(|| ParseFaultPlanError(format!("bad seed {seed:?}")))?;
        let ops = tokens.map(str::parse).collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan { seed, ops })
    }
}

/// Error from parsing a [`FaultPlan`] / [`FaultOp`] / [`FaultAction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultPlanError(String);

impl fmt::Display for ParseFaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for ParseFaultPlanError {}

/// The panic payload an armed [`FaultAction::Panic`] throws. Harnesses
/// downcast to this to distinguish an *injected* death (expected under the
/// plan) from a genuine runtime bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The fault point that fired.
    pub point: String,
    /// The hit count it fired on.
    pub hit: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}@{}", self.point, self.hit)
    }
}

/// One op that actually fired during a run (returned by [`clear`] so
/// harnesses can verify their plan was exercised, not silently idle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// The fault point that fired.
    pub point: String,
    /// The hit count it fired on.
    pub hit: u64,
    /// The action performed.
    pub action: FaultAction,
}

/// Whether the fault-injection backend is compiled in (`--cfg nws_fault`).
/// Chaos harnesses gate on this so a default build degrades to a no-op run
/// instead of a misleading green.
pub const fn enabled() -> bool {
    cfg!(nws_fault)
}

#[cfg(not(nws_fault))]
mod backend {
    use super::{FaultPlan, FiredFault};

    /// No-op: the activation machinery is compiled out.
    pub fn install(_plan: &FaultPlan) {}

    /// No-op; always empty.
    pub fn clear() -> Vec<FiredFault> {
        Vec::new()
    }

    /// Zero-cost stub: always `false`, inlined away with its argument.
    #[inline(always)]
    pub fn hit(_name: &'static str) -> bool {
        false
    }
}

#[cfg(nws_fault)]
mod backend {
    use super::{FaultAction, FaultPlan, FiredFault, InjectedFault};
    use std::collections::HashMap;
    use std::time::Duration;

    struct Active {
        /// Each armed op with its fired flag.
        ops: Vec<(super::FaultOp, bool)>,
        /// Hit counter per point name.
        counts: HashMap<String, u64>,
        /// Ops that fired, in firing order.
        fired: Vec<FiredFault>,
    }

    // The facade crate may name raw primitives; std's Mutex (not the
    // facade's) keeps fault bookkeeping invisible to the model backend.
    static ACTIVE: std::sync::Mutex<Option<Active>> = std::sync::Mutex::new(None);

    fn lock() -> std::sync::MutexGuard<'static, Option<Active>> {
        // A panic while holding this lock only happens via panic_any below,
        // after the guard is dropped; treat poison as recoverable anyway so
        // a panicking *test* never cascades into every later fault check.
        ACTIVE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms `plan` process-wide, resetting all hit counters. Runs are
    /// expected to be sequential (one plan at a time — the chaos harness's
    /// regime); installing while another plan is armed replaces it.
    pub fn install(plan: &FaultPlan) {
        *lock() = Some(Active {
            ops: plan.ops.iter().cloned().map(|op| (op, false)).collect(),
            counts: HashMap::new(),
            fired: Vec::new(),
        });
    }

    /// Disarms the current plan, returning the ops that fired.
    pub fn clear() -> Vec<FiredFault> {
        lock().take().map(|a| a.fired).unwrap_or_default()
    }

    /// Counts a hit on `name` and performs any armed action. Returns `true`
    /// when a [`FaultAction::Fail`] fires (the call site takes its failure
    /// path); panics with [`InjectedFault`] on `Panic`; sleeps on `Delay`.
    pub fn hit(name: &'static str) -> bool {
        let (action, hit) = {
            let mut guard = lock();
            let Some(active) = guard.as_mut() else { return false };
            let count = active.counts.entry(name.to_string()).or_insert(0);
            *count += 1;
            let count = *count;
            let Some((op, fired)) = active
                .ops
                .iter_mut()
                .find(|(op, fired)| !fired && op.point == name && op.hit == count)
            else {
                return false;
            };
            *fired = true;
            let action = op.action;
            active.fired.push(FiredFault { point: name.to_string(), hit: count, action });
            (action, count)
        };
        match action {
            FaultAction::Fail => true,
            FaultAction::Delay(us) => {
                std::thread::sleep(Duration::from_micros(us));
                false
            }
            FaultAction::Panic => {
                std::panic::panic_any(InjectedFault { point: name.to_string(), hit })
            }
        }
    }
}

pub use backend::{clear, install};

/// Reaches the fault point `name` and reports whether an armed `fail`
/// action fired — the call site then takes its natural failure path.
/// `panic` actions unwind from here with an [`InjectedFault`] payload;
/// `delay` actions stall, then report `false`. In a default (non
/// `--cfg nws_fault`) build this is a constant `false`, inlined away.
#[inline(always)]
pub fn hit(name: &'static str) -> bool {
    backend::hit(name)
}

/// Reaches the fault point `name`, for sites with no failure path to take
/// (`fail` is then a no-op; `panic` and `delay` act as in [`hit`]).
#[inline(always)]
pub fn point(name: &'static str) {
    let _ = hit(name);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line_and_stable() {
        let plan = FaultPlan {
            seed: 0x2a,
            ops: vec![
                FaultOp { point: "job.exec".into(), hit: 3, action: FaultAction::Panic },
                FaultOp { point: "sleep.wake".into(), hit: 2, action: FaultAction::Delay(100) },
                FaultOp { point: "steal.handshake".into(), hit: 7, action: FaultAction::Fail },
            ],
        };
        assert_eq!(
            plan.to_string(),
            "seed=0x2a job.exec@3=panic sleep.wake@2=delay:100 steal.handshake@7=fail"
        );
    }

    #[test]
    fn parse_inverts_display() {
        let text = "seed=0xbeef mailbox.deposit@1=fail ingress.push@12=panic";
        let plan: FaultPlan = text.parse().unwrap();
        assert_eq!(plan.seed, 0xbeef);
        assert_eq!(plan.ops.len(), 2);
        assert_eq!(plan.to_string(), text);
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        assert!("".parse::<FaultPlan>().is_err(), "missing seed");
        assert!("job.exec@1=panic".parse::<FaultPlan>().is_err(), "ops before seed");
        assert!("seed=0x1 job.exec@0=panic".parse::<FaultPlan>().is_err(), "0-based hit");
        assert!("seed=0x1 job.exec=panic".parse::<FaultPlan>().is_err(), "missing hit");
        assert!("seed=0x1 job.exec@2".parse::<FaultPlan>().is_err(), "missing action");
        assert!("seed=0x1 job.exec@2=explode".parse::<FaultPlan>().is_err(), "unknown action");
        assert!("seed=0x1 job.exec@2=delay:xs".parse::<FaultPlan>().is_err(), "bad delay");
        assert!("seed=zz".parse::<FaultPlan>().is_err(), "bad seed");
    }

    #[test]
    fn decimal_seed_accepted_hex_rendered() {
        let plan: FaultPlan = "seed=42".parse().unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.to_string(), "seed=0x2a");
    }

    #[test]
    fn from_seed_is_deterministic_and_well_formed() {
        for seed in [0u64, 1, 7, 0x5EED_CAFE, u64::MAX] {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b, "same seed, same plan");
            assert!(!a.ops.is_empty() && a.ops.len() <= 3);
            for op in &a.ops {
                assert!(POINTS.contains(&op.point.as_str()), "catalog point {:?}", op.point);
                assert!(op.hit >= 1);
            }
            // The derived plan round-trips through its one-line repro form.
            let parsed: FaultPlan = a.to_string().parse().unwrap();
            assert_eq!(parsed, a);
        }
    }

    #[test]
    fn seeds_vary_the_plan() {
        let plans: Vec<String> = (0..16).map(|s| FaultPlan::from_seed(s).to_string()).collect();
        let distinct: std::collections::HashSet<&String> = plans.iter().collect();
        assert!(distinct.len() > 8, "seeded plans must actually vary: {plans:?}");
    }

    #[test]
    fn disabled_backend_is_inert() {
        if !enabled() {
            install(&FaultPlan::from_seed(1));
            assert!(!hit("job.exec"));
            point("sleep.wake");
            assert!(clear().is_empty());
        }
    }

    #[cfg(nws_fault)]
    #[test]
    fn armed_ops_fire_on_their_hit_exactly_once() {
        let plan: FaultPlan = "seed=0x1 steal.handshake@2=fail".parse().unwrap();
        install(&plan);
        assert!(!hit("steal.handshake"), "hit 1 passes");
        assert!(hit("steal.handshake"), "hit 2 fires");
        assert!(!hit("steal.handshake"), "hit 3 passes (ops fire once)");
        let fired = clear();
        assert_eq!(fired.len(), 1);
        assert_eq!((fired[0].point.as_str(), fired[0].hit), ("steal.handshake", 2));
        // Disarmed: nothing fires.
        assert!(!hit("steal.handshake"));
    }

    #[cfg(nws_fault)]
    #[test]
    fn panic_action_throws_injected_fault() {
        install(&"seed=0x1 job.exec@1=panic".parse().unwrap());
        let err = std::panic::catch_unwind(|| hit("job.exec")).unwrap_err();
        let fault = err.downcast::<InjectedFault>().expect("typed payload");
        assert_eq!((fault.point.as_str(), fault.hit), ("job.exec", 1));
        let fired = clear();
        assert_eq!(fired.len(), 1, "the panic was recorded before unwinding");
    }
}
