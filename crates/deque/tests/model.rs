//! Two test tiers for the THE deque, selected by `--cfg nws_model`:
//!
//! - **Checked-interleaving tier** (`nws_model`): the deque runs on the
//!   `nws_sync` model-checking backend, which explores thread
//!   interleavings *and* weak-memory outcomes exhaustively (bounded
//!   preemptions). The tier proves exactly-once over every explored
//!   schedule for the lock-free CAS steal — last-item arbitration,
//!   two thieves racing one owner, the capacity-2 wrap-around, a batch
//!   steal racing the owner's pop, and demand-driven splitting (the owner
//!   exposes one item at a time) — and, the teeth, proves the
//!   checker *finds* the double-take in two deliberately weakened
//!   variants: the handshake fence demoted from `SeqCst` to `AcqRel`
//!   (a weak-memory bug, reproduced both by exhaustive search and from
//!   a committed replay seed) and the batch claim collapsed to a single
//!   wide CAS (a plain-interleaving bug — no weak memory needed).
//! - **Stress tier** (default): proptest sequential-model equivalence
//!   plus slimmed concurrent ping-pong runs on real hardware. The heavy
//!   stress counts live in `src/the.rs`'s unit tests; this tier keeps a
//!   reduced variant so `cargo test` stays fast now that the checked tier
//!   carries the exhaustive-interleaving burden.

use nws_deque::TheStealer;

/// One single-item claim: a batch steal with no room to spill. The
/// runtime claims only through `steal_batch`, so both tiers test that code.
fn steal_one<T>(s: &TheStealer<T>) -> Option<T> {
    s.steal_batch(0, |_| unreachable!("limit 0 spills nothing"))
}

// `not_model!`/`model_only!` instead of raw `#[cfg(...)]`: the
// cfg-confinement rule (DESIGN.md §10) keeps the cfg names inside
// crates/sync.
nws_sync::not_model! {
mod stress {
    use super::steal_one;
    use nws_deque::{the_deque, Full};
    use nws_sync::atomic::{AtomicBool, Ordering::SeqCst};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[derive(Debug, Clone)]
    enum Op {
        Push(u32),
        Pop,
        Steal,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => any::<u32>().prop_map(Op::Push),
            2 => Just(Op::Pop),
            2 => Just(Op::Steal),
        ]
    }

    proptest! {
        #[test]
        fn sequential_model_equivalence(ops in proptest::collection::vec(op_strategy(), 0..400)) {
            let (w, s) = the_deque::<u32>(512);
            let mut model: VecDeque<u32> = VecDeque::new();
            for op in ops {
                match op {
                    Op::Push(v) => {
                        prop_assert!(w.push(v).is_ok());
                        model.push_back(v);
                    }
                    Op::Pop => prop_assert_eq!(w.pop(), model.pop_back()),
                    Op::Steal => prop_assert_eq!(steal_one(&s), model.pop_front()),
                }
                prop_assert_eq!(w.len(), model.len());
                prop_assert_eq!(s.is_empty(), model.is_empty());
            }
        }

        #[test]
        fn push_full_hands_value_back(extra in 0u32..100) {
            let (w, _s) = the_deque::<u32>(4);
            for i in 0..4 {
                prop_assert!(w.push(i).is_ok());
            }
            let err = w.push(extra).unwrap_err();
            prop_assert_eq!(err.0, extra);
        }

        #[test]
        fn steal_order_is_push_order(values in proptest::collection::vec(any::<u32>(), 1..64)) {
            let (w, s) = the_deque::<u32>(64);
            for &v in &values {
                w.push(v).unwrap();
            }
            let mut stolen = Vec::new();
            while let Some(v) = steal_one(&s) {
                stolen.push(v);
            }
            prop_assert_eq!(stolen, values);
        }
    }

    /// Drives one owner against `thieves` concurrent thieves for `items`
    /// uniquely numbered items, with the owner alternating between push
    /// bursts and pop bursts (the ping-pong keeps the deque near-empty so
    /// the last-item CAS arbitration and lost-claim paths fire constantly,
    /// not just the steady-state bulk paths). Returns all items each side
    /// got.
    fn ping_pong(items: u64, thieves: usize, capacity: usize, burst: u64) -> Vec<u64> {
        let (w, s) = the_deque::<u64>(capacity);
        let done = AtomicBool::new(false);
        let mut harvested: Vec<u64> = Vec::with_capacity(items as usize);
        let stolen: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..thieves)
                .map(|tid| {
                    let s = s.clone();
                    let done = &done;
                    // Alternate single steals and steal-half batches so
                    // both claim shapes contend on the same head.
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        let batching = tid % 2 == 0;
                        loop {
                            let got = if batching {
                                s.steal_batch(4, |v| local.push(v))
                            } else {
                                steal_one(&s)
                            };
                            if let Some(v) = got {
                                local.push(v);
                            } else if done.load(SeqCst) {
                                break;
                            } else {
                                nws_sync::hint::spin_loop();
                            }
                        }
                        local
                    })
                })
                .collect();
            let mut next = 0u64;
            while next < items {
                // Push burst…
                let target = (next + burst).min(items);
                while next < target {
                    match w.push(next) {
                        Ok(()) => next += 1,
                        Err(Full(_)) => {
                            if let Some(v) = w.pop() {
                                harvested.push(v);
                            }
                        }
                    }
                }
                // …then pop burst (ping-pong): drain roughly half of what
                // the thieves left us, hammering the pop-claim handshake.
                for _ in 0..burst / 2 {
                    if let Some(v) = w.pop() {
                        harvested.push(v);
                    }
                }
            }
            while let Some(v) = w.pop() {
                harvested.push(v);
            }
            done.store(true, SeqCst);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for mut v in stolen {
            harvested.append(&mut v);
        }
        harvested
    }

    /// Exactly-once under real concurrency: every pushed item comes out
    /// once — no loss (a steal and a pop both giving up on the same item)
    /// and no duplication (both taking it).
    #[test]
    fn multi_thief_ping_pong_exactly_once() {
        const ITEMS: u64 = 10_000;
        let mut all = ping_pong(ITEMS, 4, 256, 64);
        all.sort_unstable();
        assert_eq!(all.len() as u64, ITEMS, "lost or duplicated items");
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>(), "every item exactly once");
    }

    /// Same property on a tiny ring, where every push reuses a slot a
    /// thief may still be reading — the wrap-around edge the push-side
    /// Acquire/Release head pairing protects.
    #[test]
    fn multi_thief_ping_pong_tiny_ring() {
        const ITEMS: u64 = 5_000;
        let mut all = ping_pong(ITEMS, 3, 4, 8);
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>(), "every item exactly once");
    }
}
}

nws_sync::model_only! {
mod checked {
    use super::steal_one;
    use nws_deque::{
        the_deque, the_deque_naive_batch_for_model, the_deque_weak_fence_for_model, Full,
    };
    use nws_sync::model::{Builder, FailureKind};
    use nws_sync::thread;

    /// A seed (as reported by `Failure::seed` on a random exploration)
    /// whose schedule drives the weak-fence deque into the two-item
    /// double-take (see [`two_item_race`]). Committed so the regression
    /// reproduces deterministically on the first schedule of a test run —
    /// no search required — and so a future fence regression has a
    /// known-bad witness to replay against. Re-searched for this protocol:
    /// the CAS-steal failure shape differs from the locked THE deque's, so
    /// the old seed's schedule no longer drives the bug.
    const WEAK_FENCE_DOUBLE_TAKE_SEED: u64 = 0x4793_C02F_6515_8801;

    /// Owner pops while a thief steals, two items in flight, then the
    /// owner drains what is left: every explored schedule must hand out
    /// items {1, 2} exactly once between the three channels.
    #[test]
    fn last_item_arbitration_exactly_once() {
        Builder::exhaustive(2, 200_000).run(|| {
            let (w, s) = the_deque::<u32>(4);
            w.push(1).unwrap();
            w.push(2).unwrap();
            let t = thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..2 {
                    if let Some(v) = steal_one(&s) {
                        got.push(v);
                    }
                }
                got
            });
            let mut all = Vec::new();
            for _ in 0..2 {
                if let Some(v) = w.pop() {
                    all.push(v);
                }
            }
            all.extend(t.join().unwrap());
            // A steal may legally return None while an item remains (it
            // lost the arbitration); the owner's drain must then find it.
            while let Some(v) = w.pop() {
                all.push(v);
            }
            all.sort_unstable();
            assert_eq!(all, [1, 2], "lost or duplicated an item");
        });
    }

    /// The wrap-around edge on a capacity-2 ring: four items forced
    /// through two slots while a thief steals concurrently, so pushes
    /// reuse slots a thief may still be reading. Exactly-once must hold
    /// on every explored schedule.
    #[test]
    fn tiny_ring_wraparound_exactly_once() {
        Builder::exhaustive(2, 200_000).run(|| {
            let (w, s) = the_deque::<u64>(2);
            let t = thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..3 {
                    if let Some(v) = steal_one(&s) {
                        got.push(v);
                    }
                }
                got
            });
            let mut all = Vec::new();
            let mut next = 0u64;
            while next < 4 {
                match w.push(next) {
                    Ok(()) => next += 1,
                    Err(Full(_)) => {
                        if let Some(v) = w.pop() {
                            all.push(v);
                        }
                    }
                }
            }
            while let Some(v) = w.pop() {
                all.push(v);
            }
            all.extend(t.join().unwrap());
            all.sort_unstable();
            assert_eq!(all, [0, 1, 2, 3], "lost or duplicated an item");
        });
    }

    /// Two thieves CAS-claiming against each other and against the owner:
    /// head is the single arbitration point, so every explored schedule
    /// must hand out both items exactly once across the three channels.
    /// A lost claim CAS legally returns `None` with items remaining; the
    /// owner's drain after the join must then find them.
    #[test]
    fn two_thief_cas_steal_exactly_once() {
        Builder::exhaustive(2, 200_000).run(|| {
            let (w, s) = the_deque::<u32>(4);
            w.push(1).unwrap();
            w.push(2).unwrap();
            let s2 = s.clone();
            let t1 = thread::spawn(move || steal_one(&s));
            let t2 = thread::spawn(move || steal_one(&s2));
            let mut all = Vec::new();
            all.extend(t1.join().unwrap());
            all.extend(t2.join().unwrap());
            while let Some(v) = w.pop() {
                all.push(v);
            }
            all.sort_unstable();
            assert_eq!(all, [1, 2], "lost or duplicated an item");
        });
    }

    /// A steal-half batch racing the owner's pops, as a reusable body:
    /// three items, a thief batch-stealing (observes up to 3, so claims
    /// up to 2), the owner popping twice concurrently, then draining.
    /// Returns every item handed out, sorted. With the per-item claim
    /// loop this is `[1, 2, 3]` on every schedule; with the naive wide
    /// CAS (`CAS(H, H+2)` claiming two indices at once) the owner's
    /// unarbitrated fast pop of the middle index slips between the
    /// thief's tail read and its claim, and an item is handed out twice —
    /// under plain sequential interleaving, no weak memory required.
    fn batch_vs_pop(naive: bool) -> Vec<u32> {
        let (w, s) = if naive {
            the_deque_naive_batch_for_model::<u32>(4)
        } else {
            the_deque::<u32>(4)
        };
        for v in [1, 2, 3] {
            w.push(v).unwrap();
        }
        let t = thread::spawn(move || {
            let mut got = Vec::new();
            if let Some(v) = s.steal_batch(2, |v| got.push(v)) {
                got.push(v);
            }
            got
        });
        let mut all = Vec::new();
        for _ in 0..2 {
            if let Some(v) = w.pop() {
                all.push(v);
            }
        }
        all.extend(t.join().unwrap());
        while let Some(v) = w.pop() {
            all.push(v);
        }
        all.sort_unstable();
        all
    }

    /// The batch/owner-pop race on the real deque: exactly-once on every
    /// explored schedule, because each batch claim re-runs the full
    /// handshake (fresh head, fence, fresh tail, CAS).
    #[test]
    fn batch_steal_owner_pop_race_exactly_once() {
        Builder::exhaustive(2, 200_000).run(|| {
            assert_eq!(batch_vs_pop(false), [1, 2, 3], "each item must change hands exactly once");
        });
    }

    /// THE BATCH ACCEPTANCE TEST: collapse the batch claim to one wide
    /// CAS and the checker must find the double-take. This is the bug
    /// that makes "one CAS per batch" unsound (DESIGN.md §4) and the
    /// reason `steal_batch` claims item-by-item.
    #[test]
    fn naive_batch_double_take_found_exhaustive() {
        let failure = Builder::exhaustive(2, 200_000)
            .check(|| {
                assert_eq!(
                    batch_vs_pop(true),
                    [1, 2, 3],
                    "each item must change hands exactly once"
                );
            })
            .expect_err("the wide-CAS batch must double-take under some schedule");
        assert!(
            matches!(failure.kind, FailureKind::Panic(ref m) if m.contains("exactly once")),
            "expected the double-take assertion, got: {failure}"
        );
    }

    /// The fence-sensitive race, as a reusable body. With CAS claims the
    /// classic *single*-item THE race is fence-independent — owner and
    /// thief CAS the same head and hardware arbitrates — so the weakness
    /// needs two items and a stale index on each side: the thief's second
    /// steal reads a stale tail (missing the owner's decrement) while the
    /// owner's pop reads a stale head (missing the thief's first claim),
    /// and both fast-take the same middle index. The `SeqCst` fence pair
    /// forbids exactly that both-stale outcome; `AcqRel` does not.
    /// Returns every item handed out, sorted — `[1, 2]` iff exactly-once.
    fn two_item_race(weak: bool) -> Vec<u32> {
        let (w, s) =
            if weak { the_deque_weak_fence_for_model::<u32>(4) } else { the_deque::<u32>(4) };
        w.push(1).unwrap();
        w.push(2).unwrap();
        let t = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                if let Some(v) = steal_one(&s) {
                    got.push(v);
                }
            }
            got
        });
        let mut all = Vec::new();
        if let Some(v) = w.pop() {
            all.push(v);
        }
        all.extend(t.join().unwrap());
        while let Some(v) = w.pop() {
            all.push(v);
        }
        all.sort_unstable();
        all
    }

    /// Demand-driven splitting (`numa_ws::split_wanted`), as a reusable
    /// body: the owner walks a four-item local list and spills an item to
    /// the deque only while fewer than `exposed` items sit there; otherwise
    /// it processes the item locally and pops back what it spilled. One
    /// thief steals twice concurrently, then the owner drains. Returns
    /// every item handed out, sorted — `[1, 2, 3, 4]` iff exactly-once.
    /// With `exposed == 1` (the runtime's rule: split only into an empty
    /// deque) at most one item is ever contested, so the owner's pop and
    /// the thief's steal meet only on the CAS-arbitrated last item.
    fn demand_split(weak: bool, exposed: usize) -> Vec<u32> {
        let (w, s) =
            if weak { the_deque_weak_fence_for_model::<u32>(4) } else { the_deque::<u32>(4) };
        let t = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                if let Some(v) = steal_one(&s) {
                    got.push(v);
                }
            }
            got
        });
        let mut all = Vec::new();
        for v in 1..=4 {
            if w.len() < exposed {
                w.push(v).unwrap();
            } else {
                all.push(v);
                all.extend(w.pop());
            }
        }
        all.extend(t.join().unwrap());
        while let Some(v) = w.pop() {
            all.push(v);
        }
        all.sort_unstable();
        all
    }

    /// Splitting on demand (one exposed item) hands every item out
    /// exactly once on every schedule, and the exploration is complete.
    #[test]
    fn demand_split_exactly_once_complete() {
        let explored = Builder::exhaustive(2, 200_000)
            .check(|| {
                assert_eq!(
                    demand_split(false, 1),
                    [1, 2, 3, 4],
                    "items must change hands exactly once"
                );
            })
            .expect("demand-driven splitting must verify clean");
        assert!(explored.complete, "exploration must be exhaustive, not truncated");
        assert!(explored.schedules > 1);
    }

    /// The teeth for the demand-split body: one exposed item never
    /// reaches the weak-fence race, which needs two items in flight. Let
    /// the body expose two (spill while `len() < 2`) on the `AcqRel`-fence
    /// deque and the checker must find the double-take.
    #[test]
    fn demand_split_two_exposed_weak_fence_double_take_found() {
        let failure = Builder::exhaustive(2, 200_000)
            .check(|| {
                assert_eq!(
                    demand_split(true, 2),
                    [1, 2, 3, 4],
                    "items must change hands exactly once"
                );
            })
            .expect_err("two exposed items on the AcqRel-fence deque must double-take");
        assert!(
            matches!(failure.kind, FailureKind::Panic(ref m) if m.contains("exactly once")),
            "expected the double-take assertion, got: {failure}"
        );
    }

    /// The correctly fenced deque hands out the contested items exactly
    /// once on EVERY schedule — and the state space is small enough that
    /// the exploration is complete, so this is a proof over the model,
    /// not a sample.
    #[test]
    fn seqcst_fence_two_item_exactly_once_complete() {
        let explored = Builder::exhaustive(2, 200_000)
            .check(|| {
                assert_eq!(two_item_race(false), [1, 2], "items must change hands exactly once");
            })
            .expect("the SeqCst handshake must verify clean");
        assert!(explored.complete, "exploration must be exhaustive, not truncated");
        assert!(explored.schedules > 1);
    }

    /// THE FENCE ACCEPTANCE TEST: weaken the pop/steal handshake fence
    /// to `AcqRel` and the checker must find the two-item double-take
    /// described on [`two_item_race`].
    #[test]
    fn weak_fence_double_take_found_exhaustive() {
        let failure = Builder::exhaustive(2, 200_000)
            .check(|| {
                assert_eq!(two_item_race(true), [1, 2], "items must change hands exactly once");
            })
            .expect_err("the AcqRel-fence deque must double-take under some schedule");
        assert!(
            matches!(failure.kind, FailureKind::Panic(ref m) if m.contains("exactly once")),
            "expected the double-take assertion, got: {failure}"
        );
    }

    /// The same bug reproduced from the committed seed: one schedule, no
    /// search. This is the shape a CI bisection or a fence-regression
    /// triage uses — `Builder::replay(seed)` from the failure report.
    #[test]
    fn weak_fence_double_take_replays_from_committed_seed() {
        let failure = Builder::replay(WEAK_FENCE_DOUBLE_TAKE_SEED)
            .check(|| {
                assert_eq!(two_item_race(true), [1, 2], "items must change hands exactly once");
            })
            .expect_err("the committed seed must reproduce the double-take");
        assert!(
            matches!(failure.kind, FailureKind::Panic(ref m) if m.contains("exactly once")),
            "expected the double-take assertion, got: {failure}"
        );
        assert_eq!(failure.seed, Some(WEAK_FENCE_DOUBLE_TAKE_SEED));
    }

    /// And the flip side of the committed seed: the *correct* deque must
    /// survive that exact schedule (the seed witnesses the fence bug, not
    /// some unrelated breakage).
    #[test]
    fn committed_seed_is_clean_on_the_correct_deque() {
        Builder::replay(WEAK_FENCE_DOUBLE_TAKE_SEED).run(|| {
            assert_eq!(two_item_race(false), [1, 2], "items must change hands exactly once");
        });
    }
}
}
