//! The sharded, thread-safe answer cache with single-flight deduplication
//! and optional persistence.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

use parking_lot::Mutex;
use qr2_core::CancelToken;
use qr2_store::AnswerStore;
use qr2_webdb::{Answer, SearchError, SearchOutcome, TopKResponse};

/// Sizing knobs for one [`AnswerCache`] (one per data source).
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of independent shards (rounded up to a power of two).
    /// Requests only contend when their keys land in the same shard.
    pub shards: usize,
    /// Total in-memory entry capacity across all shards; least recently
    /// used entries are evicted past it.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            capacity: 4096,
        }
    }
}

/// A point-in-time snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Live in-memory entries.
    pub entries: usize,
    /// Configured in-memory capacity.
    pub capacity: usize,
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that went to the web database.
    pub misses: u64,
    /// Lookups that blocked on another caller's identical in-flight
    /// request instead of issuing their own.
    pub coalesced: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Current staleness epoch.
    pub epoch: u64,
    /// Whether a persistent [`AnswerStore`] backs the cache.
    pub persistent: bool,
}

impl CacheStats {
    /// Fraction of lookups served without this caller spending a web-DB
    /// query (hits + coalesced waits over all lookups).
    pub fn hit_rate(&self) -> f64 {
        let free = self.hits + self.coalesced;
        let total = free + self.misses;
        if total == 0 {
            0.0
        } else {
            free as f64 / total as f64
        }
    }
}

enum FlightState {
    Pending,
    /// The leader's fetch finished; an error other than the leader's own
    /// cancellation is shared with the waiters but never admitted.
    Done(Result<TopKResponse, SearchError>),
    /// The leader unwound or was cancelled without an answer; waiters
    /// retry themselves.
    Poisoned,
}

/// How often a caller waiting on another caller's flight re-checks its
/// own session's cancellation.
const CANCEL_POLL: Duration = Duration::from_millis(5);

/// One in-flight fetch that concurrent identical requests rendezvous on.
struct Flight {
    state: StdMutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: StdMutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Lock the flight state, recovering from std mutex poisoning: the
    /// state machine is a single enum cell, so a holder that panicked
    /// mid-update cannot have left it half-written — the value is still
    /// coherent and one waiter's panic must not cascade to every other
    /// request coalesced on this flight.
    fn state(&self) -> std::sync::MutexGuard<'_, FlightState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The leader's answer, `None` if it unwound or was cancelled, or
    /// `Some(Err(Cancelled))` once `cancel` (the waiter's own session)
    /// fires: the flight goes on for the leader and the other waiters.
    fn wait(&self, cancel: &CancelToken) -> Option<Result<TopKResponse, SearchError>> {
        let mut state = self.state();
        loop {
            match &*state {
                FlightState::Pending if cancel.is_cancelled() => {
                    return Some(Err(SearchError::Cancelled));
                }
                FlightState::Pending => {
                    state = match self.cv.wait_timeout(state, CANCEL_POLL) {
                        Ok((state, _)) => state,
                        Err(e) => e.into_inner().0,
                    };
                }
                FlightState::Done(resp) => return Some(resp.clone()),
                FlightState::Poisoned => return None,
            }
        }
    }

    fn complete(&self, resp: Result<TopKResponse, SearchError>) {
        *self.state() = FlightState::Done(resp);
        self.cv.notify_all();
    }

    fn poison(&self) {
        let mut state = self.state();
        if matches!(*state, FlightState::Pending) {
            *state = FlightState::Poisoned;
            self.cv.notify_all();
        }
    }
}

/// Drop guard: if the leader's fetch unwinds, poison the flight so
/// waiters stop blocking, and unregister it so later callers retry.
struct FlightGuard<'a> {
    shard: &'a Mutex<Shard>,
    key: &'a [u8],
    flight: &'a Arc<Flight>,
    disarmed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.disarmed {
            return;
        }
        self.shard.lock().flights.remove(self.key);
        self.flight.poison();
    }
}

struct Entry {
    answer: TopKResponse,
    tick: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Vec<u8>, Entry>,
    /// Recency order: tick → key. Ticks are globally unique, so this is a
    /// faithful LRU list with O(log n) touch/evict.
    order: BTreeMap<u64, Vec<u8>>,
    flights: HashMap<Vec<u8>, Arc<Flight>>,
}

impl Shard {
    fn touch(&mut self, key: &[u8], new_tick: u64) {
        if let Some(entry) = self.map.get_mut(key) {
            self.order.remove(&entry.tick);
            entry.tick = new_tick;
            self.order.insert(new_tick, key.to_vec());
        }
    }

    /// Insert (or refresh) an entry, evicting the least recently used
    /// past `cap`. Returns the evicted keys so the caller can drop them
    /// from the persistent store too (the store tracks the LRU contents;
    /// without this it would grow without bound).
    fn insert(
        &mut self,
        key: Vec<u8>,
        answer: TopKResponse,
        tick: u64,
        cap: usize,
    ) -> Vec<Vec<u8>> {
        if let Some(old) = self.map.get(&key) {
            self.order.remove(&old.tick);
        }
        self.order.insert(tick, key.clone());
        self.map.insert(key, Entry { answer, tick });
        let mut evicted = Vec::new();
        while self.map.len() > cap {
            // `order` mirrors `map`; if they ever diverge, stop evicting
            // rather than panic a serving worker over a bookkeeping bug.
            let Some((&oldest, _)) = self.order.iter().next() else {
                debug_assert!(false, "LRU order empty while map over cap");
                break;
            };
            let Some(key) = self.order.remove(&oldest) else {
                break;
            };
            self.map.remove(&key);
            evicted.push(key);
        }
        evicted
    }
}

/// The shared cross-session answer cache: canonical query key → the exact
/// [`TopKResponse`] the web database returned.
///
/// * **Thread-safe and sharded** — only same-shard keys contend;
/// * **single-flight** — N concurrent requests for one uncached key issue
///   exactly one web-DB query ([`AnswerCache::get_or_fetch`]);
/// * **bounded** — per-config LRU capacity;
/// * **persistent** — optionally write-through to an [`AnswerStore`],
///   warm-started at construction and invalidated by epoch
///   ([`AnswerCache::flush`]).
pub struct AnswerCache {
    shards: Vec<Mutex<Shard>>,
    shard_mask: usize,
    per_shard_cap: usize,
    capacity: usize,
    tick: AtomicU64,
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    store: Option<Mutex<AnswerStore>>,
}

impl AnswerCache {
    /// A volatile cache (no persistence).
    pub fn new(config: CacheConfig) -> AnswerCache {
        Self::build(config, None)
    }

    /// A cache backed by a persistent [`AnswerStore`]: every stored answer
    /// is loaded into memory now (warm start), and every future fill is
    /// written through. Answers the LRU bound rejects are deleted from
    /// the store, keeping it the same size as the cache.
    pub fn with_store(config: CacheConfig, store: AnswerStore) -> AnswerCache {
        let cache = Self::build(config, Some(store));
        if let Some(store_cell) = &cache.store {
            let entries = {
                let store = store_cell.lock();
                cache.epoch.store(store.epoch(), Ordering::Relaxed);
                store.entries().unwrap_or_default()
            };
            let mut dropped = Vec::new();
            for (key, answer) in entries {
                let tick = cache.next_tick();
                // qr2-allow: panic-path shard_of masks with shard_mask, always in range
                let shard = &cache.shards[cache.shard_of(&key)];
                dropped.extend(shard.lock().insert(key, answer, tick, cache.per_shard_cap));
            }
            if !dropped.is_empty() {
                let mut store = store_cell.lock();
                for key in &dropped {
                    let _ = store.delete(key);
                }
            }
        }
        cache
    }

    fn build(config: CacheConfig, store: Option<AnswerStore>) -> AnswerCache {
        let shards = config.shards.max(1).next_power_of_two();
        let per_shard_cap = (config.capacity / shards).max(1);
        AnswerCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_mask: shards - 1,
            per_shard_cap,
            capacity: per_shard_cap * shards,
            tick: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            store: store.map(Mutex::new),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) & self.shard_mask
    }

    /// Live in-memory entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current staleness epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len(),
            capacity: self.capacity,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            epoch: self.epoch(),
            persistent: self.store.is_some(),
        }
    }

    /// Invalidate everything: advance the staleness epoch, drop all
    /// in-memory entries, and (when persistent) durably clear the backing
    /// store. In-flight fetches started under the old epoch complete for
    /// their waiters but are not admitted into the cache. Returns the new
    /// epoch.
    pub fn flush(&self) -> qr2_store::Result<u64> {
        // Epoch first: a concurrent leader checks it before insertion.
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.map.clear();
            shard.order.clear();
        }
        if let Some(store) = &self.store {
            let mut store = store.lock();
            // Re-sync to the store's durable epoch counter (it may lead
            // ours after a warm start across many flushes).
            let durable = store.bump_epoch()?;
            self.epoch.store(durable.max(epoch), Ordering::SeqCst);
            return Ok(durable.max(epoch));
        }
        Ok(epoch)
    }

    /// Look `key` up; on a miss, run `fetch` exactly once across all
    /// concurrent callers of the same key (single-flight) and cache its
    /// answer. A hit reports a cache-hit outcome and a coalesced waiter a
    /// coalesced one; the leader returns the fetcher's own outcome, so cost
    /// accounting above the cache stays truthful.
    /// An `Err` from the fetcher is returned to the leader and its waiters
    /// but never admitted to the cache or the store; a
    /// [`SearchError::Cancelled`] (the leader's session was cancelled) is
    /// returned to the leader alone, and its waiters fetch again. A waiter
    /// whose own session (the ambient [`qr2_core::current`] context) is
    /// cancelled stops waiting with `Cancelled` while the flight goes on.
    pub fn get_or_fetch(
        &self,
        key: &[u8],
        fetch: impl FnOnce() -> Result<Answer, SearchError>,
    ) -> Result<Answer, SearchError> {
        // qr2-allow: panic-path shard_of masks with shard_mask, always in range
        let shard = &self.shards[self.shard_of(key)];
        loop {
            let mut guard = shard.lock();
            if let Some(resp) = guard.map.get(key).map(|e| e.answer.clone()) {
                let tick = self.next_tick();
                guard.touch(key, tick);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Answer {
                    resp,
                    outcome: SearchOutcome::CACHE_HIT,
                });
            }
            let flight = match guard.flights.get(key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    let flight = Arc::new(Flight::new());
                    guard.flights.insert(key.to_vec(), Arc::clone(&flight));
                    drop(guard);
                    return self.lead(shard, key, flight, fetch);
                }
            };
            drop(guard);
            match flight.wait(&qr2_core::current().cancel) {
                // A leader's cancellation is never shared: this caller's
                // own session was cancelled while it waited.
                Some(Err(SearchError::Cancelled)) => return Err(SearchError::Cancelled),
                Some(done) => {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    return done.map(|resp| Answer {
                        resp,
                        outcome: SearchOutcome::COALESCED,
                    });
                }
                // Leader unwound: loop and try to become the leader.
                None => continue,
            }
        }
    }

    fn lead(
        &self,
        shard: &Mutex<Shard>,
        key: &[u8],
        flight: Arc<Flight>,
        fetch: impl FnOnce() -> Result<Answer, SearchError>,
    ) -> Result<Answer, SearchError> {
        let epoch_at_start = self.epoch();
        let mut guard = FlightGuard {
            shard,
            key,
            flight: &flight,
            disarmed: false,
        };
        let fetched = fetch();
        guard.disarmed = true;
        drop(guard);

        // Admission is re-checked *under the shard lock*: a flush that
        // bumped the epoch since the fetch started (its vintage is stale)
        // must win, and flush only clears shards after bumping, so a
        // check inside the lock cannot miss it. Errors are never
        // admitted at all — report the outage, don't remember it.
        let tick = self.next_tick();
        let admitted = {
            let mut guard = shard.lock();
            guard.flights.remove(key);
            match &fetched {
                Ok(answer) if self.epoch() == epoch_at_start => Some((
                    answer,
                    guard.insert(key.to_vec(), answer.resp.clone(), tick, self.per_shard_cap),
                )),
                _ => None,
            }
        };
        // Release the waiters before touching disk: the answer is already
        // admitted to memory, so coalesced callers must not stall behind
        // the store mutex or its log writes. A cancellation is the
        // leader's own: its waiters retry under their own sessions.
        match &fetched {
            Err(SearchError::Cancelled) => flight.poison(),
            _ => flight.complete(fetched.clone().map(|answer| answer.resp)),
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some((answer, evicted)) = admitted {
            self.evictions
                .fetch_add(evicted.len() as u64, Ordering::Relaxed);
            if let Some(store) = &self.store {
                // Best-effort write-through: a persistence hiccup must not
                // fail the live answer path. The epoch is re-checked under
                // the store lock — a flush waiting on this lock has
                // already advanced it, so a stale answer can never be
                // stamped with the post-flush epoch.
                let mut store = store.lock();
                if self.epoch() == epoch_at_start {
                    let _ = store.put(key, &answer.resp);
                }
                for key in &evicted {
                    let _ = store.delete(key);
                }
            }
        }
        fetched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::{Tuple, TupleId, Value};

    fn resp(id: u32) -> TopKResponse {
        TopKResponse::new(
            vec![Tuple::new(TupleId(id), vec![Value::Num(id as f64)])],
            false,
        )
    }

    fn paid(id: u32) -> Result<Answer, SearchError> {
        Ok(Answer::paid(resp(id)))
    }

    /// A lookup whose fetch (if it runs) succeeds: the page and outcome.
    fn fetch(
        c: &AnswerCache,
        key: &[u8],
        f: impl FnOnce() -> Result<Answer, SearchError>,
    ) -> (TopKResponse, SearchOutcome) {
        let answer = c.get_or_fetch(key, f).expect("fetch succeeds");
        (answer.resp, answer.outcome)
    }

    #[test]
    fn hit_after_miss() {
        let c = AnswerCache::new(CacheConfig::default());
        let (a, o) = fetch(&c, b"k", || paid(1));
        assert_eq!(o, SearchOutcome::MISS);
        let (b, o) = fetch(&c, b"k", || panic!("must not refetch"));
        assert!(o.cache_hit);
        assert_eq!(a, b);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (1, 1, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hits_share_tuple_storage_instead_of_deep_cloning() {
        let c = AnswerCache::new(CacheConfig::default());
        let (a, _) = fetch(&c, b"k", || paid(1));
        let (b, o) = fetch(&c, b"k", || panic!("cached"));
        assert!(o.cache_hit);
        assert!(
            Arc::ptr_eq(&a.tuples, &b.tuples),
            "a hit must hand out the shared page, not a deep copy"
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = AnswerCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
        });
        fetch(&c, b"a", || paid(1));
        fetch(&c, b"b", || paid(2));
        fetch(&c, b"a", || panic!("a is cached")); // touch a
        fetch(&c, b"c", || paid(3)); // evicts b
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        let (_, o) = fetch(&c, b"a", || panic!("a survived"));
        assert!(o.cache_hit);
        let (_, o) = fetch(&c, b"b", || paid(2));
        assert_eq!(o, SearchOutcome::MISS, "b was evicted");
    }

    #[test]
    fn flush_clears_and_bumps_epoch() {
        let c = AnswerCache::new(CacheConfig::default());
        fetch(&c, b"a", || paid(1));
        assert_eq!(c.epoch(), 0);
        assert_eq!(c.flush().unwrap(), 1);
        assert!(c.is_empty());
        let (_, o) = fetch(&c, b"a", || paid(1));
        assert_eq!(o, SearchOutcome::MISS);
    }

    #[test]
    fn capacity_rounds_to_shard_multiple() {
        let c = AnswerCache::new(CacheConfig {
            shards: 3, // rounds to 4
            capacity: 10,
        });
        assert_eq!(c.shards.len(), 4);
        assert_eq!(c.stats().capacity, 8); // 2 per shard × 4
    }

    #[test]
    fn poisoned_leader_does_not_wedge_waiters() {
        let c = Arc::new(AnswerCache::new(CacheConfig::default()));
        let c2 = Arc::clone(&c);
        let leader = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = c2.get_or_fetch(b"k", || panic!("leader dies"));
            }));
        });
        leader.join().unwrap();
        // The key is not wedged: a later caller becomes the new leader.
        let (a, o) = fetch(&c, b"k", || paid(7));
        assert_eq!(o, SearchOutcome::MISS);
        assert_eq!(a, resp(7));
    }

    #[test]
    fn a_cancelled_leader_sends_its_waiters_to_fetch_again() {
        let c = Arc::new(AnswerCache::new(CacheConfig::default()));
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let leader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                c.get_or_fetch(b"k", || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Err(SearchError::Cancelled)
                })
            })
        };
        started_rx.recv().unwrap();
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.get_or_fetch(b"k", || paid(3)))
        };
        // Let the waiter join the leader's flight before it is cancelled.
        std::thread::sleep(std::time::Duration::from_millis(50));
        release_tx.send(()).unwrap();
        assert_eq!(leader.join().unwrap().err(), Some(SearchError::Cancelled));
        let answer = waiter
            .join()
            .unwrap()
            .expect("the waiter fetches for itself");
        assert_eq!(
            (answer.resp, answer.outcome),
            (resp(3), SearchOutcome::MISS)
        );
        assert_eq!(c.stats().coalesced, 0);
    }

    #[test]
    fn a_waiter_whose_session_is_cancelled_stops_waiting() {
        use qr2_core::{next_session_key, with_session, QueryClass, SessionCtx};
        let c = Arc::new(AnswerCache::new(CacheConfig::default()));
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let leader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                c.get_or_fetch(b"k", || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    paid(3)
                })
            })
        };
        started_rx.recv().unwrap();
        let cancel = CancelToken::new();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = {
            let (c, cancel) = (Arc::clone(&c), cancel.clone());
            let ctx = SessionCtx::new(next_session_key(), QueryClass::default(), cancel);
            std::thread::spawn(move || {
                let got = with_session(ctx, || c.get_or_fetch(b"k", || paid(4)));
                done_tx.send(got).unwrap();
            })
        };
        // Let the waiter join the leader's flight, then delete its session
        // while the leader is still fetching.
        std::thread::sleep(std::time::Duration::from_millis(50));
        cancel.cancel();
        let got = done_rx.recv_timeout(std::time::Duration::from_secs(5));
        release_tx.send(()).unwrap();
        waiter.join().unwrap();
        assert_eq!(
            got.expect("the cancelled waiter returns before the leader")
                .err(),
            Some(SearchError::Cancelled)
        );
        let answer = leader.join().unwrap().expect("the leader's fetch goes on");
        assert_eq!(answer.resp, resp(3));
        let (cached, o) = fetch(&c, b"k", || panic!("cached now"));
        assert!(o.cache_hit);
        assert_eq!(cached, resp(3));
        assert_eq!(c.stats().coalesced, 0);
    }

    #[test]
    fn errors_are_returned_but_never_admitted() {
        let c = AnswerCache::new(CacheConfig::default());
        let outage = SearchError::Unavailable {
            retry_after: std::time::Duration::from_millis(5),
        };
        let err = c
            .get_or_fetch(b"k", || Err(outage.clone()))
            .expect_err("the error reaches the caller");
        assert_eq!(err, outage);
        assert!(c.is_empty(), "an outage must not be remembered");
        assert_eq!(c.stats().misses, 1);
        // The next caller refetches and, once answered, it sticks.
        let (b, o) = fetch(&c, b"k", || paid(2));
        assert_eq!(o, SearchOutcome::MISS);
        assert_eq!(b, resp(2));
        let (cached, o) = fetch(&c, b"k", || panic!("cached now"));
        assert!(o.cache_hit);
        assert_eq!(cached, resp(2));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let c = AnswerCache::new(CacheConfig::default());
        fetch(&c, b"a", || paid(1));
        let (b, o) = fetch(&c, b"b", || paid(2));
        assert_eq!(o, SearchOutcome::MISS);
        assert_eq!(b, resp(2));
        let (a, _) = fetch(&c, b"a", || panic!("cached"));
        assert_eq!(a, resp(1));
    }
}
