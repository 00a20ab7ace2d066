//! The Cilk-5 THE protocol deque, evolved to the lock-free Chase-Lev
//! steal protocol (single-word CAS claims, no thief lock).
//!
//! Protocol summary (H/T form; the Cilk-5 paper's lock has been replaced
//! by CAS arbitration, completing the Chase-Lev migration started in
//! PR 3):
//!
//! - the owner pushes at the tail (`T += 1`) and pops by decrementing `T`
//!   *first* and only then reading `H`; with more than one item in flight
//!   the pop is unarbitrated, and the possible conflict on the last item
//!   (`H == T` after the decrement) is settled by a CAS on `H` — winner
//!   takes the item;
//! - a thief reads `H`, reads `T`, speculatively copies the slot at `H`,
//!   and then claims it with `CAS(H, H+1)`. A successful CAS *is* the
//!   claim; a failed CAS means another thief (or the owner, arbitrating
//!   the last item) got there first, and the copied bits are discarded
//!   unread.
//!
//! `H` is strictly monotonic — nobody ever moves it backwards, unlike the
//! locked THE thief, which used to overshoot and back off — so there is
//! no ABA on the claim CAS and the owner's `T - H` occupancy read is an
//! exact snapshot, which is what lets `push` use the full ring capacity
//! without a lock (see [`TheWorker::push`]).
//!
//! ## Memory orderings (work-first: fences live on the steal path)
//!
//! The claim-before-read handshake still needs *some* ordering, but not
//! `SeqCst` on every access. The orderings used here, and the invariant
//! each one preserves (the full argument lives in DESIGN.md §4):
//!
//! - **`push` is fence-free**: a `Relaxed` tail read (the owner is the
//!   only tail writer), an `Acquire` head read (pairs with the `Release`
//!   half of a thief's successful claim CAS, so a reused ring slot is
//!   only overwritten after the thief that claimed the slot's previous
//!   tenant has finished its speculative read), and a `Release` tail
//!   store (publishes the slot write to any thief that reads the new
//!   tail). On x86 these all compile to plain `mov`s.
//! - **`pop` pays one `SeqCst` fence**, between publishing the claim
//!   (`T -= 1`, a `Release` store) and reading `H`. The thief's
//!   mirror-image fence sits between its head read and its tail read.
//!   The store-buffer pairing guarantees at least one side observes the
//!   other's claim; whoever observes the conflict routes through the
//!   CAS-arbitrated last-item path, where exactly one contender's CAS on
//!   `H` can succeed.
//! - **The claim CAS is `SeqCst` on success** (`Relaxed` on failure):
//!   `SeqCst` both publishes the speculative read (its `Release` half —
//!   the wrap-around edge above) and, as an SC operation, anchors the
//!   fence pairing for later pops: an owner whose `SeqCst` fence follows
//!   a claim in the SC order cannot miss that claim when it reads `H`.
//!
//! All owner tail stores are `Release` — including `pop`'s claim and
//! empty-restore — because under the C++20/Rust model an `Acquire` load
//! synchronizes only with the *specific* store it reads (plain stores by
//! the same thread no longer continue a release sequence); a thief may
//! commit after reading any of them.
//!
//! ## Speculative slot reads
//!
//! A thief copies the slot *before* its claim CAS and `assume_init`s the
//! copy only if the CAS succeeds. Both halves matter:
//!
//! - **Before, not after:** once the CAS lands, the owner may legally
//!   observe the advanced head and reuse the slot (the wrap-around
//!   Acquire/Release pairing orders the *pre-CAS* read before any such
//!   reuse; a post-CAS read would race).
//! - **Validated, not trusted:** a losing thief's copy may have raced a
//!   reusing owner write. The bits are never interpreted — the
//!   `MaybeUninit` copy is discarded without a drop. The facade's
//!   [`with_speculative`](nws_sync::cell::UnsafeCell::with_speculative)
//!   carries this contract to the model backend, which exempts the read
//!   from its race detector; the checked tier's exactly-once assertions
//!   are what verify the claims instead (`tests/model.rs`).
//!
use nws_sync::atomic::{
    fence, AtomicIsize,
    Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst},
};
use nws_sync::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::Arc;

/// Error returned by [`TheWorker::push`] when the deque is at capacity,
/// handing the rejected value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct Full<T>(pub T);

impl<T> fmt::Display for Full<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deque is full")
    }
}

impl<T: fmt::Debug> std::error::Error for Full<T> {}

struct Inner<T> {
    /// Index of the oldest item; strictly monotonic. Thieves advance it
    /// by CAS to claim items; the owner CASes it to arbitrate the last
    /// item.
    head: AtomicIsize,
    /// Index one past the newest item; only the owner writes it.
    tail: AtomicIsize,
    /// Ring buffer; slot `i & mask` holds logical index `i`.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Model-tier fault injection: weaken the pop/steal handshake fence to
    /// `AcqRel` so the checked-interleaving tests can prove the checker
    /// catches the resulting store-buffering double-take. A
    /// [`nws_sync::ModelFlag`], so only the model tier can arm it (default
    /// builds read a folded-away constant `false`). Never set outside
    /// `the_deque_weak_fence_for_model`.
    weak_fence: nws_sync::ModelFlag,
}

// SAFETY: slots are transferred between threads with the protocol above;
// items are Send, and the structure hands out each item exactly once.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: concurrent shared access is mediated by the protocol: only the
// owner writes the tail, head moves only through CAS claims (so each
// index is claimed exactly once), and a slot's contents are only
// interpreted by the side whose claim committed — thief-side reads that
// may race a reusing owner write are speculative copies discarded unless
// the claim CAS succeeds.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Inner<T> {
    /// Reads and takes ownership of the item at logical index `i`.
    ///
    /// # Safety
    ///
    /// The caller must hold exclusive claim over index `i` per the protocol.
    unsafe fn take(&self, i: isize) -> T {
        let slot = &self.buf[(i as usize) & self.mask];
        // SAFETY: forwarded from the caller (exclusive claim over `i`); the
        // move-out is a read of the slot memory, so the model backend
        // tracks it as a read against later reusing writes.
        unsafe { slot.with(|p| (*p).assume_init_read()) }
    }

    /// Speculatively copies the bits at logical index `i` — possibly
    /// racing a reusing owner write. The copy must not be interpreted
    /// (`assume_init`) unless a subsequent successful claim CAS on `i`
    /// proves no such write overlapped the read.
    fn read_speculative(&self, i: isize) -> MaybeUninit<T> {
        let slot = &self.buf[(i as usize) & self.mask];
        // SAFETY: the closure only copies bits out of the `MaybeUninit`
        // (no typed value is produced), exactly the `with_speculative`
        // contract; callers interpret the copy only after a successful
        // CAS, which proves (DESIGN.md §4, wrap-around) the read did not
        // race the owner.
        unsafe { slot.with_speculative(|p| std::ptr::read(p)) }
    }

    /// Writes `v` into logical index `i`.
    ///
    /// # Safety
    ///
    /// Index `i` must be vacant and owned by the caller.
    unsafe fn put(&self, i: isize, v: T) {
        let slot = &self.buf[(i as usize) & self.mask];
        // SAFETY: forwarded from the caller (index vacant and owned).
        unsafe { slot.with_mut(|p| (*p).write(v)) };
    }

    /// The pop/steal claim-before-read fence. Always `SeqCst` in real
    /// builds (`ModelFlag::get` is a constant `false` there, so the weak
    /// branch folds away); the model tier can weaken it to prove the
    /// checker notices.
    #[inline]
    fn handshake_fence(&self) {
        if self.weak_fence.get() {
            fence(AcqRel);
        } else {
            fence(SeqCst);
        }
    }

    /// One complete thief claim of logical index `h`: speculative copy,
    /// then the claim CAS. `None` means the CAS lost (another thief, or
    /// the owner arbitrating the last item) and the copy was discarded.
    ///
    /// The caller must already have run the handshake for `h`: read
    /// `head == h`, fenced, and observed `tail > h` — that observation
    /// is what makes a *successful* CAS prove the copy was race-free.
    fn claim(&self, h: isize) -> Option<T> {
        let v = self.read_speculative(h);
        // SeqCst on success: the Release half publishes the speculative
        // read for the push wrap-around edge; the SC half anchors the
        // pop-fence pairing (module docs). Relaxed on failure: a lost
        // claim learns nothing it may act on.
        if self.head.compare_exchange(h, h + 1, SeqCst, Relaxed).is_ok() {
            // SAFETY: the CAS committed index `h` to us, and (DESIGN.md
            // §4) its success proves the owner could not have reused the
            // slot before our copy: reuse requires the owner to observe
            // `head > h`, which only this CAS can make true.
            Some(unsafe { v.assume_init() })
        } else {
            // Lost the race: `v` is a bitwise copy that may alias a live
            // item (or garbage); dropping a `MaybeUninit` runs no
            // destructor, so the copy is discarded unread.
            None
        }
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole owner at this point; release remaining items.
        let h = *self.head.get_mut();
        let t = *self.tail.get_mut();
        for i in h..t {
            // SAFETY: indices h..t hold initialized items nobody else can
            // reach any more.
            unsafe {
                drop(self.take(i));
            }
        }
    }
}

/// Owner half of a THE deque: pushes and pops at the tail. `!Sync` by
/// construction (one owner per deque), but may be sent to the worker thread.
pub struct TheWorker<T> {
    inner: Arc<Inner<T>>,
    /// Owner half is single-threaded; forbid sharing references across
    /// threads while still allowing the half itself to be moved.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

/// Thief half of a THE deque: claims the oldest item by CAS, lock-free.
/// Cloneable and shareable across any number of thieves.
pub struct TheStealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for TheStealer<T> {
    fn clone(&self) -> Self {
        TheStealer { inner: Arc::clone(&self.inner) }
    }
}

impl<T> fmt::Debug for TheWorker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TheWorker").field("len", &self.len()).finish()
    }
}

impl<T> fmt::Debug for TheStealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TheStealer").field("len", &self.len()).finish()
    }
}

/// Creates a THE-protocol deque with room for `capacity` items (rounded up
/// to a power of two), returning the owner and thief halves.
///
/// # Panics
///
/// Panics if `capacity == 0`.
pub fn the_deque<T>(capacity: usize) -> (TheWorker<T>, TheStealer<T>) {
    new_deque(capacity, nws_sync::ModelFlag::off())
}

/// Deliberately broken deque for the checked-interleaving tier: identical
/// to [`the_deque`] except the pop/steal handshake fence is weakened from
/// `SeqCst` to `AcqRel` *when compiled under the model tier*. The model
/// checker must find the resulting double-take (with CAS claims the
/// 1-item race is fence-independent — the weakness needs two items and a
/// stale index on each side; see `tests/model.rs`). In default builds the
/// weak-fence flag cannot be armed, so this is exactly [`the_deque`] —
/// present unconditionally so no caller needs to spell the model cfg (the
/// cfg-confinement rule).
///
/// # Panics
///
/// Panics if `capacity == 0`.
pub fn the_deque_weak_fence_for_model<T>(capacity: usize) -> (TheWorker<T>, TheStealer<T>) {
    new_deque(capacity, nws_sync::ModelFlag::for_model(true))
}

fn new_deque<T>(capacity: usize, weak_fence: nws_sync::ModelFlag) -> (TheWorker<T>, TheStealer<T>) {
    assert!(capacity > 0, "deque capacity must be positive");
    let cap = capacity.next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let inner = Arc::new(Inner {
        head: AtomicIsize::new(0),
        tail: AtomicIsize::new(0),
        buf,
        mask: cap - 1,
        weak_fence,
    });
    (TheWorker { inner: Arc::clone(&inner), _not_sync: PhantomData }, TheStealer { inner })
}

impl<T> TheWorker<T> {
    /// Pushes `v` at the tail (the owner's end). Lock-free and fence-free:
    /// on x86 the fast path is two plain cacheline writes (slot + tail).
    ///
    /// The capacity check is one unlocked read: `head` is strictly
    /// monotonic and thieves never overshoot it (a CAS claim either
    /// commits an item or moves nothing), so `tail - head` read here is
    /// an *exact* occupancy snapshot — at most stale in the direction of
    /// overcounting, never undercounting. The locked nearly-full re-read
    /// of the THE-era protocol is gone, and the full ring capacity is
    /// usable.
    ///
    /// # Errors
    ///
    /// Returns [`Full`] with the value if the deque is at capacity; the
    /// caller typically executes the work inline instead.
    pub fn push(&self, v: T) -> Result<(), Full<T>> {
        let inner = &*self.inner;
        // Only the owner writes the tail, so a Relaxed read is exact.
        let t = inner.tail.load(Relaxed);
        // Acquire pairs with the Release half of thieves' claim CASes: if
        // we observe head advanced past a slot we are about to reuse, the
        // thief that claimed that slot's previous tenant speculatively
        // read it *before* its CAS — so the read happened-before this
        // write (the wrap-around edge; DESIGN.md §4).
        let h = inner.head.load(Acquire);
        if (t - h) as usize > inner.mask {
            return Err(Full(v));
        }
        // SAFETY: occupancy t - h <= mask, so index t is vacant (its slot's
        // previous tenant t - capacity is below head); only the owner
        // writes the tail.
        unsafe { inner.put(t, v) };
        // Release publishes the slot write to any thief that reads the
        // new tail value.
        inner.tail.store(t + 1, Release);
        Ok(())
    }

    /// Pops the newest item from the tail. Lock-free: a possible conflict
    /// on the last item is arbitrated by a CAS on `head` against the
    /// thieves. Costs one `SeqCst` fence — the pop-claim handshake.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        // Publish our claim (T -= 1) before reading H — the THE handshake.
        // Release, not Relaxed: a thief may commit a steal after
        // acquire-reading this very store (C++20 release sequences do not
        // extend through later plain stores, so every owner tail store a
        // thief can read must itself carry the release).
        let t = inner.tail.load(Relaxed) - 1;
        inner.tail.store(t, Release);
        // The handshake fence: pairs with the thief's fence between its
        // head read and tail read. At least one side sees the other's
        // claim; that side takes the arbitrated path.
        inner.handshake_fence();
        let h = inner.head.load(Relaxed);
        if h < t {
            // Fast path: at least two items. No thief can claim index t:
            // claiming requires observing tail > t, and the fence pairing
            // guarantees any thief that missed our decrement is itself
            // missed by nobody — its claim CAS would have advanced head
            // past t - 1 first, contradicting h < t.
            // SAFETY: index t is ours per the argument above.
            return Some(unsafe { inner.take(t) });
        }
        if h == t {
            // Possible conflict on the last item: arbitrate by CAS on
            // head. Winning advances head past the item *as if stolen*,
            // so a concurrent thief's CAS on the same index must fail.
            let won = inner.head.compare_exchange(h, h + 1, SeqCst, Relaxed).is_ok();
            // Restore the canonical empty state tail == head == t + 1
            // (we won: item taken, head moved to t + 1; we lost: the
            // thief's CAS moved head to t + 1).
            inner.tail.store(t + 1, Release);
            if won {
                // SAFETY: our CAS committed index t to us; thieves never
                // write slots, so the read cannot race.
                return Some(unsafe { inner.take(t) });
            }
            return None;
        }
        // h > t: the deque was already empty (every item up to our old
        // tail is claimed). Restore the canonical empty state tail ==
        // head. No thief can be mid-claim above h: claiming index i
        // requires observing tail > i, and tail never exceeded h here.
        inner.tail.store(h, Release);
        None
    }

    /// Number of items currently in the deque (a snapshot; concurrent
    /// thieves may change it immediately).
    pub fn len(&self) -> usize {
        len(&self.inner)
    }

    /// Whether the deque currently looks empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total ring capacity (the rounded-up power of two).
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// A thief handle to this deque.
    pub fn stealer(&self) -> TheStealer<T> {
        TheStealer { inner: Arc::clone(&self.inner) }
    }
}

impl<T> TheStealer<T> {
    /// Steals the oldest item from the head: read `H`, fence, read `T`,
    /// speculative copy, claim by `CAS(H, H+1)`. Lock-free — a thief never
    /// blocks the owner or other thieves, it only ever loses a CAS.
    /// Allocation-free.
    ///
    /// Returns `None` if the deque is empty or the claim lost its CAS (to
    /// another thief, or to the owner arbitrating the last item). A lost
    /// claim is not retried here: the scheduler treats it as a failed
    /// attempt and re-picks a victim.
    pub fn steal(&self) -> Option<T> {
        let inner = &*self.inner;
        // Chaos-tier fault point (a no-op in default builds): `fail`
        // forces a steal retry, `delay` stalls the thief mid-protocol —
        // which, lock-free, stalls nobody else — and `panic` models a
        // thief dying mid-steal. It fires before the handshake, so an
        // unwind from here leaves the indices untouched: nothing was
        // claimed, no item is consumed, and the deque stays consistent.
        if nws_sync::fault::hit("steal.handshake") {
            return None;
        }
        let h = inner.head.load(Acquire);
        // The handshake fence (mirror of pop's): between the head read
        // and the tail read, so of a racing pop and this steal at least
        // one observes the other's claim.
        inner.handshake_fence();
        // Acquire pairs with the owner's Release tail stores: reading any
        // tail value t makes every slot below t visible, including the
        // one we are about to copy.
        let t = inner.tail.load(Acquire);
        if h >= t {
            return None;
        }
        inner.claim(h)
    }

    /// Number of items currently in the deque (a racy snapshot).
    pub fn len(&self) -> usize {
        len(&self.inner)
    }

    /// Whether the deque currently looks empty. The scheduler uses this
    /// as a cheap pre-check to skip steal attempts (and their handshake
    /// fences) on deques that have nothing to take.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn len<T>(inner: &Inner<T>) -> usize {
    // Racy by contract; Relaxed is as good as any ordering for a snapshot.
    let t = inner.tail.load(Relaxed);
    let h = inner.head.load(Relaxed);
    (t - h).max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_sync::Mutex;

    #[test]
    fn lifo_at_tail_fifo_at_head() {
        let (w, s) = the_deque::<i32>(8);
        for i in 0..4 {
            w.push(i).unwrap();
        }
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal(), Some(0));
        assert_eq!(s.steal(), Some(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), None);
    }

    #[test]
    fn empty_pop_and_steal() {
        let (w, s) = the_deque::<u8>(4);
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), None);
        assert!(w.is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (w, _s) = the_deque::<usize>(5); // rounds to 8
        assert_eq!(w.capacity(), 8);
        for i in 0..8 {
            w.push(i).unwrap();
        }
        assert_eq!(w.push(99), Err(Full(99)));
        assert_eq!(w.len(), 8);
    }

    #[test]
    fn full_recovers_after_drain() {
        let (w, s) = the_deque::<usize>(2);
        w.push(0).unwrap();
        w.push(1).unwrap();
        assert!(w.push(2).is_err());
        assert_eq!(s.steal(), Some(0));
        w.push(2).unwrap();
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
    }

    #[test]
    fn steal_takes_one_item_fifo_at_the_head() {
        let (w, s) = the_deque::<u32>(16);
        for i in 0..4 {
            w.push(i).unwrap();
        }
        // Each call claims exactly the oldest item, however many remain.
        assert_eq!(s.steal(), Some(0));
        assert_eq!(w.len(), 3);
        assert_eq!(s.steal(), Some(1));
        assert_eq!(w.len(), 2);
        // Owner keeps its end meanwhile.
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal(), Some(2));
        assert_eq!(s.steal(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn steal_takes_one_item_per_call_until_empty() {
        let (w, s) = the_deque::<u32>(16);
        for i in 0..10 {
            w.push(i).unwrap();
        }
        // However full the deque, no call claims more than one item.
        for i in 0..10u32 {
            assert_eq!(s.steal(), Some(i));
            assert_eq!(w.len(), (9 - i) as usize);
        }
        assert_eq!(s.steal(), None);
        assert_eq!(s.steal(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_sequence_matches_model() {
        let (w, s) = the_deque::<u32>(512);
        let mut model = std::collections::VecDeque::new();
        for round in 0..1000u32 {
            match round % 5 {
                0..=2 => {
                    w.push(round).unwrap();
                    model.push_back(round);
                }
                3 => assert_eq!(w.pop(), model.pop_back()),
                _ => assert_eq!(s.steal(), model.pop_front()),
            }
            assert_eq!(w.len(), model.len());
        }
    }

    #[test]
    fn drop_releases_remaining_items() {
        let item = Arc::new(());
        {
            let (w, _s) = the_deque::<Arc<()>>(8);
            for _ in 0..5 {
                w.push(Arc::clone(&item)).unwrap();
            }
            let _ = w.pop();
        }
        assert_eq!(Arc::strong_count(&item), 1, "dropped deque must release items");
    }

    #[test]
    fn stress_no_loss_no_duplication() {
        const ITEMS: u64 = 100_000;
        const THIEVES: usize = 6;
        let (w, s) = the_deque::<u64>(1 << 14);
        let stolen: Vec<Mutex<Vec<u64>>> = (0..THIEVES).map(|_| Mutex::new(Vec::new())).collect();
        let done = nws_sync::atomic::AtomicBool::new(false);
        let mut popped = Vec::new();
        std::thread::scope(|scope| {
            for tid in 0..THIEVES {
                let s = s.clone();
                let stolen = &stolen;
                let done = &done;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        match s.steal() {
                            Some(v) => local.push(v),
                            None if done.load(SeqCst) => match s.steal() {
                                Some(v) => local.push(v),
                                None => break,
                            },
                            None => nws_sync::hint::spin_loop(),
                        }
                    }
                    *stolen[tid].lock() = local;
                });
            }
            let mut next = 0u64;
            while next < ITEMS {
                match w.push(next) {
                    Ok(()) => next += 1,
                    Err(Full(_)) => {
                        if let Some(v) = w.pop() {
                            popped.push(v);
                        }
                    }
                }
                // Interleave owner pops to exercise the conflict path.
                if next.is_multiple_of(7) {
                    if let Some(v) = w.pop() {
                        popped.push(v);
                    }
                }
            }
            done.store(true, SeqCst);
        });
        let mut all: Vec<u64> = popped;
        for m in &stolen {
            all.extend(m.lock().iter().copied());
        }
        all.sort_unstable();
        let expected: Vec<u64> = (0..ITEMS).collect();
        assert_eq!(all.len() as u64, ITEMS, "lost or duplicated items");
        assert_eq!(all, expected, "every item exactly once");
    }

    #[test]
    fn last_item_race_owner_or_thief_wins_once() {
        // Repeatedly race one owner pop against one thief steal over a
        // single item; exactly one of them must get it.
        for _ in 0..2000 {
            let (w, s) = the_deque::<u8>(4);
            w.push(42).unwrap();
            let barrier = std::sync::Barrier::new(2);
            let (a, b) = std::thread::scope(|scope| {
                let thief = scope.spawn(|| {
                    barrier.wait();
                    s.steal()
                });
                barrier.wait();
                let mine = w.pop();
                (mine, thief.join().unwrap())
            });
            match (a, b) {
                (Some(42), None) | (None, Some(42)) => {}
                other => panic!("both or neither got the item: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = the_deque::<u8>(0);
    }

    #[test]
    fn tiny_deque_wraparound_under_thieves() {
        // A capacity-2 ring forces constant slot reuse, hammering the
        // wrap-around edge the claim-CAS Release / push Acquire pairing
        // protects.
        const ITEMS: u64 = 30_000;
        let (w, s) = the_deque::<u64>(2);
        let done = nws_sync::atomic::AtomicBool::new(false);
        let (stolen, mut popped) = std::thread::scope(|scope| {
            let thief = {
                let s = s.clone();
                let done = &done;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        if let Some(v) = s.steal() {
                            local.push(v);
                        } else if done.load(SeqCst) {
                            break;
                        } else {
                            nws_sync::hint::spin_loop();
                        }
                    }
                    local
                })
            };
            let mut popped = Vec::new();
            let mut next = 0u64;
            while next < ITEMS {
                match w.push(next) {
                    Ok(()) => next += 1,
                    Err(Full(_)) => {
                        if let Some(v) = w.pop() {
                            popped.push(v);
                        }
                    }
                }
            }
            while let Some(v) = w.pop() {
                popped.push(v);
            }
            done.store(true, SeqCst);
            (thief.join().unwrap(), popped)
        });
        popped.extend(stolen);
        popped.sort_unstable();
        assert_eq!(popped, (0..ITEMS).collect::<Vec<_>>(), "every item exactly once");
    }

    /// Regression for the `Full`-path cleanup: the owner hammers push at
    /// capacity (every push decided by the one unlocked occupancy read —
    /// the CAS-era replacement for the THE-era locked re-read) while a
    /// thief drains. No push may be wrongly rejected into loss, no
    /// slot double-filled: exactly-once over everything, and every
    /// `Full` the owner sees must coexist with a genuinely full ring at
    /// the snapshot (occupancy can only shrink under it).
    #[test]
    fn push_at_capacity_racing_batch_steal() {
        const ITEMS: u64 = 40_000;
        let (w, s) = the_deque::<u64>(4);
        let done = nws_sync::atomic::AtomicBool::new(false);
        let (stolen, mut kept) = std::thread::scope(|scope| {
            let thief = {
                let s = s.clone();
                let done = &done;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        if let Some(v) = s.steal() {
                            local.push(v);
                        } else if done.load(SeqCst) {
                            break;
                        } else {
                            nws_sync::hint::spin_loop();
                        }
                    }
                    local
                })
            };
            let mut kept = Vec::new();
            // Keep the ring pinned at capacity: push until Full, then
            // record the rejected item as "ran inline" — never pop. This
            // maximizes pushes racing claims on a wrapping ring.
            for i in 0..ITEMS {
                if let Err(Full(v)) = w.push(i) {
                    kept.push(v);
                }
            }
            while let Some(v) = w.pop() {
                kept.push(v);
            }
            done.store(true, SeqCst);
            (thief.join().unwrap(), kept)
        });
        kept.extend(stolen);
        kept.sort_unstable();
        assert_eq!(kept, (0..ITEMS).collect::<Vec<_>>(), "every item exactly once");
    }
}
