//! Deterministic, seeded fault injection at the communicator boundary.
//!
//! The paper's CM-5 implementation assumed a lossless data network; a real
//! transport drops, delays, duplicates, and corrupts messages, and whole
//! ranks stall or crash. This module gives the executor a *replayable*
//! model of exactly those misbehaviours: a [`FaultPlan`] decides, per
//! `(source, destination, tag)` edge and purely as a SplitMix64 function
//! of its seed, which fault (if any) strikes each message — so every chaos
//! run can be reproduced from a single `u64`.
//!
//! The recovery side lives here too. A [`FaultInjector`] pairs the plan
//! with a *retransmission store*: every faultable send first deposits a
//! copy keyed by `(source, dest, tag)`, and a receiver whose bounded
//! `recv` times out asks the store for a redelivery; a successful receive
//! acknowledges (removes) the entry. The store models the reliable
//! control network that the CM-5 ran *alongside* its data network — the
//! fault plan attacks only the data plane, never the ack/redelivery
//! protocol. The single deliberate exception is a
//! [poisoned link](FaultPlan::with_poisoned_link): total loss of a
//! directed edge, control plane included, which no amount of retrying can
//! absorb — the case the executor's degradation ladder exists for.
//!
//! All counters are atomics shared by every rank of the world; they feed
//! the `DistributedOutcome` health report. Copies made for the store and
//! for injected duplicates are charged to a separate `chaos_allocations`
//! counter — never to the rank-local [`BufferPool`](crate::BufferPool) —
//! so the zero-steady-state-allocation discipline of the pooled data
//! plane stays measurable (and enforced) even while chaos is armed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// SplitMix64 — the same generator `treesvd-matrix` seeds everything
/// with, reproduced here so the comm crate stays dependency-free.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold `(src, dst, tag)` and a per-fault-kind salt into one decision
/// word. Chaining SplitMix64 keeps each coordinate's influence avalanche-
/// complete, so adjacent tags do not produce correlated faults.
fn decision_word(seed: u64, salt: u64, src: usize, dst: usize, tag: u64) -> u64 {
    let mut w = splitmix64(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
    w = splitmix64(w ^ src as u64);
    w = splitmix64(w ^ dst as u64);
    splitmix64(w ^ tag)
}

/// Map a decision word to a unit-interval probability draw.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_DROP: u64 = 1;
const SALT_DELAY: u64 = 2;
const SALT_DUP: u64 = 3;
const SALT_CORRUPT: u64 = 4;

/// Receiver-side retry discipline for a bounded blocking receive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Additional receive attempts after the first timeout; each attempt
    /// first asks the retransmission store for a redelivery.
    pub max_retries: u32,
    /// Multiplier applied to the receive window between attempts — the
    /// exponential backoff (2.0 doubles the window every retry).
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 0, backoff: 2.0 }
    }
}

/// What a stalled rank does when its stall event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// The rank goes silent for the duration, then resumes — absorbed by
    /// peers' retry budgets when the sleep fits inside them.
    Sleep(Duration),
    /// The rank dies mid-run; recovery requires a checkpoint restart.
    Crash,
}

/// A one-shot per-rank event: at the top of `sweep`, `rank` misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEvent {
    /// The affected rank.
    pub rank: usize,
    /// The sweep (0-based) at whose start the event fires.
    pub sweep: usize,
    /// Sleep or crash.
    pub kind: StallKind,
}

/// A deterministic, seeded fault schedule for one distributed run.
///
/// Probabilities are evaluated independently per `(source, dest, tag)`
/// message from the seed alone — two runs with the same plan inject
/// byte-identical fault sequences. The default plan injects nothing
/// (armed-but-inert: the recovery machinery runs, no faults fire), which
/// is the regression baseline the chaos soak gate uses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of every per-message decision.
    pub seed: u64,
    /// Probability a message is silently dropped in flight.
    pub drop: f64,
    /// Probability a message is delayed (reordering arises naturally:
    /// later messages overtake a delayed one).
    pub delay: f64,
    /// Upper bound of an injected delay; the actual delay is a
    /// seed-derived fraction of this.
    pub max_delay: Duration,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability one payload element is overwritten with NaN — the
    /// poison the receive-seam finite-check exists to catch.
    pub corrupt: f64,
    /// One-shot rank stall/crash events.
    pub stalls: Vec<StallEvent>,
    /// Directed `(source, dest)` edges with *total* loss: every message
    /// dropped and redelivery refused. Unabsorbable by retries — only the
    /// degradation ladder (ultimately the sequential fallback) survives
    /// it.
    pub poisoned_links: Vec<(usize, usize)>,
}

impl FaultPlan {
    /// The canonical replayable chaos mix for a seed: moderate drop,
    /// delay, duplication, and corruption probabilities plus one
    /// seed-derived stall event (a short sleep or a crash). Everything it
    /// injects is absorbable by the chaos [`FaultPolicy`] defaults
    /// (retry + redelivery for message faults, checkpoint restart for the
    /// crash); pair it with checkpointing when the derived event is a
    /// crash.
    ///
    /// [`FaultPolicy`]: ../treesvd_sim/struct.FaultPolicy.html
    pub fn chaos(seed: u64) -> Self {
        let bits = splitmix64(seed ^ 0xC4A0_5C4A_05C4_A05C);
        let stall = StallEvent {
            rank: (bits % 4) as usize,
            sweep: 1 + (bits >> 8) as usize % 2,
            kind: if bits & 1 == 0 {
                StallKind::Sleep(Duration::from_millis(4))
            } else {
                StallKind::Crash
            },
        };
        Self {
            seed,
            drop: 0.06,
            delay: 0.12,
            max_delay: Duration::from_millis(2),
            duplicate: 0.06,
            corrupt: 0.03,
            stalls: vec![stall],
            poisoned_links: Vec::new(),
        }
    }

    /// Set the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Set the delay probability and bound.
    pub fn with_delay(mut self, p: f64, max_delay: Duration) -> Self {
        self.delay = p;
        self.max_delay = max_delay;
        self
    }

    /// Set the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Set the payload-corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Add a one-shot stall/crash event.
    pub fn with_stall(mut self, event: StallEvent) -> Self {
        self.stalls.push(event);
        self
    }

    /// Kill the directed `src → dst` edge outright (drops every message
    /// *and* refuses redelivery).
    pub fn with_poisoned_link(mut self, src: usize, dst: usize) -> Self {
        self.poisoned_links.push((src, dst));
        self
    }

    /// Whether the plan can inject any fault at all.
    pub fn is_inert(&self) -> bool {
        self.drop == 0.0
            && self.delay == 0.0
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && self.stalls.is_empty()
            && self.poisoned_links.is_empty()
    }
}

/// The interposer's verdict on one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendFate {
    /// How many copies actually enter the network (0 = dropped,
    /// 2 = duplicated).
    pub deliveries: u8,
    /// Hold the message this long before it becomes receivable.
    pub delay: Option<Duration>,
    /// Overwrite this payload element with NaN before delivery.
    pub corrupt_index: Option<usize>,
}

/// Monotonic fault/recovery counters shared by all ranks of a world.
#[derive(Debug, Default)]
struct FaultCounters {
    drops: AtomicU64,
    delays: AtomicU64,
    duplicates: AtomicU64,
    corruptions: AtomicU64,
    stalls: AtomicU64,
    redeliveries: AtomicU64,
    chaos_allocations: AtomicU64,
}

/// A point-in-time copy of the injector's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Messages dropped in flight.
    pub drops: u64,
    /// Messages delayed.
    pub delays: u64,
    /// Messages duplicated.
    pub duplicates: u64,
    /// Payloads poisoned with NaN.
    pub corruptions: u64,
    /// Stall/crash events fired.
    pub stalls: u64,
    /// Messages recovered from the retransmission store.
    pub redeliveries: u64,
    /// Allocations made by the fault layer itself (store deposits and
    /// duplicate copies) — deliberately kept out of the pool accounting.
    pub chaos_allocations: u64,
}

impl FaultSnapshot {
    /// Total injected faults of all kinds.
    pub fn injected(&self) -> u64 {
        self.drops + self.delays + self.duplicates + self.corruptions + self.stalls
    }
}

/// The armed fault layer of one world: the plan, the retransmission
/// store, one-shot event bookkeeping, and the shared counters. Clone the
/// `Arc` into every rank's communicator.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// `(src, dst, tag) → payload copy`; deposited at send, removed on
    /// ack or redelivery.
    store: Mutex<std::collections::HashMap<(usize, usize, u64), Vec<f64>>>,
    /// One latch per `plan.stalls` entry.
    fired: Mutex<Vec<bool>>,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Arm a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = Mutex::new(vec![false; plan.stalls.len()]);
        Self {
            plan,
            store: Mutex::new(std::collections::HashMap::new()),
            fired,
            counters: FaultCounters::default(),
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether the directed `src → dst` edge is completely dead.
    pub fn link_poisoned(&self, src: usize, dst: usize) -> bool {
        self.plan.poisoned_links.contains(&(src, dst))
    }

    /// Deposit the retransmission copy for a message about to be sent.
    /// Skipped on a poisoned link (redelivery is refused there anyway).
    pub fn deposit(&self, src: usize, dst: usize, tag: u64, payload: &[f64]) {
        if self.link_poisoned(src, dst) {
            return;
        }
        self.counters.chaos_allocations.fetch_add(1, Ordering::Relaxed);
        self.store.lock().expect("fault store").insert((src, dst, tag), payload.to_vec());
    }

    /// Acknowledge a delivered message: drop its retransmission copy.
    pub fn acknowledge(&self, src: usize, dst: usize, tag: u64) {
        self.store.lock().expect("fault store").remove(&(src, dst, tag));
    }

    /// Drop every retransmission copy. Called between executor attempts:
    /// a new attempt re-sends tags the failed one already used, so a
    /// deposit left over from the failed attempt must never satisfy a
    /// redelivery in the next one. Stall latches and counters are deliberately kept —
    /// a crash event stays fired across the restart it caused.
    pub fn reset_store(&self) {
        self.store.lock().expect("fault store").clear();
    }

    /// Ask the store to redeliver `(src, dst, tag)`. Returns the clean
    /// payload copy (and implicitly acknowledges it), or `None` when the
    /// link is poisoned or nothing was deposited (the sender has not sent
    /// yet — keep retrying).
    pub fn redeliver(&self, src: usize, dst: usize, tag: u64) -> Option<Vec<f64>> {
        if self.link_poisoned(src, dst) {
            return None;
        }
        let hit = self.store.lock().expect("fault store").remove(&(src, dst, tag));
        if hit.is_some() {
            self.counters.redeliveries.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Decide the fate of one send, counting whatever it injects. Fully
    /// deterministic in `(plan.seed, src, dst, tag)`.
    pub fn decide_send(&self, src: usize, dst: usize, tag: u64, payload_len: usize) -> SendFate {
        let p = &self.plan;
        if self.link_poisoned(src, dst) {
            self.counters.drops.fetch_add(1, Ordering::Relaxed);
            return SendFate { deliveries: 0, delay: None, corrupt_index: None };
        }
        if p.drop > 0.0 && unit(decision_word(p.seed, SALT_DROP, src, dst, tag)) < p.drop {
            self.counters.drops.fetch_add(1, Ordering::Relaxed);
            return SendFate { deliveries: 0, delay: None, corrupt_index: None };
        }
        let mut fate = SendFate { deliveries: 1, delay: None, corrupt_index: None };
        if p.duplicate > 0.0 && unit(decision_word(p.seed, SALT_DUP, src, dst, tag)) < p.duplicate {
            self.counters.duplicates.fetch_add(1, Ordering::Relaxed);
            fate.deliveries = 2;
        }
        if p.delay > 0.0 {
            let w = decision_word(p.seed, SALT_DELAY, src, dst, tag);
            if unit(w) < p.delay {
                self.counters.delays.fetch_add(1, Ordering::Relaxed);
                let frac = unit(splitmix64(w));
                fate.delay = Some(p.max_delay.mul_f64(frac));
            }
        }
        if p.corrupt > 0.0 && payload_len > 0 {
            let w = decision_word(p.seed, SALT_CORRUPT, src, dst, tag);
            if unit(w) < p.corrupt {
                self.counters.corruptions.fetch_add(1, Ordering::Relaxed);
                fate.corrupt_index = Some(splitmix64(w) as usize % payload_len);
            }
        }
        fate
    }

    /// Charge one fault-layer allocation (used for duplicate copies made
    /// outside [`deposit`](FaultInjector::deposit)).
    pub fn charge_allocation(&self) {
        self.counters.chaos_allocations.fetch_add(1, Ordering::Relaxed);
    }

    /// The stall/crash event for `(rank, sweep)`, if one is due. One-shot:
    /// a fired event never fires again (a restarted run resumes past it).
    pub fn stall_event(&self, rank: usize, sweep: usize) -> Option<StallKind> {
        let mut fired = self.fired.lock().expect("stall latches");
        for (i, ev) in self.plan.stalls.iter().enumerate() {
            if ev.rank == rank && ev.sweep == sweep && !fired[i] {
                fired[i] = true;
                self.counters.stalls.fetch_add(1, Ordering::Relaxed);
                return Some(ev.kind);
            }
        }
        None
    }

    /// Copy out the counters.
    pub fn snapshot(&self) -> FaultSnapshot {
        let c = &self.counters;
        FaultSnapshot {
            drops: c.drops.load(Ordering::Relaxed),
            delays: c.delays.load(Ordering::Relaxed),
            duplicates: c.duplicates.load(Ordering::Relaxed),
            corruptions: c.corruptions.load(Ordering::Relaxed),
            stalls: c.stalls.load(Ordering::Relaxed),
            redeliveries: c.redeliveries.load(Ordering::Relaxed),
            chaos_allocations: c.chaos_allocations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultInjector::new(FaultPlan::chaos(7));
        let b = FaultInjector::new(FaultPlan::chaos(7));
        let c = FaultInjector::new(FaultPlan::chaos(8));
        let mut diverged = false;
        for tag in 0..200u64 {
            let fa = a.decide_send(0, 1, tag, 16);
            assert_eq!(fa, b.decide_send(0, 1, tag, 16), "same seed, same fate");
            if fa != c.decide_send(0, 1, tag, 16) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds should disagree somewhere in 200 messages");
    }

    #[test]
    fn chaos_plan_injects_every_fault_kind_somewhere() {
        let inj = FaultInjector::new(FaultPlan::chaos(3));
        for tag in 0..2000u64 {
            inj.decide_send(0, 1, tag, 8);
        }
        let s = inj.snapshot();
        assert!(s.drops > 0 && s.delays > 0 && s.duplicates > 0 && s.corruptions > 0, "{s:?}");
        assert!(s.injected() > 0);
    }

    #[test]
    fn deposit_redeliver_acknowledge_cycle() {
        let inj = FaultInjector::new(FaultPlan::default());
        inj.deposit(0, 1, 42, &[1.0, 2.0]);
        assert_eq!(inj.redeliver(0, 1, 42), Some(vec![1.0, 2.0]));
        assert_eq!(inj.redeliver(0, 1, 42), None, "redelivery acknowledges");
        inj.deposit(0, 1, 43, &[3.0]);
        inj.acknowledge(0, 1, 43);
        assert_eq!(inj.redeliver(0, 1, 43), None, "ack removes the copy");
        assert_eq!(inj.snapshot().redeliveries, 1);
        assert_eq!(inj.snapshot().chaos_allocations, 2);
    }

    #[test]
    fn poisoned_link_drops_everything_and_refuses_redelivery() {
        let inj = FaultInjector::new(FaultPlan::default().with_poisoned_link(2, 0));
        inj.deposit(2, 0, 9, &[1.0]);
        let fate = inj.decide_send(2, 0, 9, 1);
        assert_eq!(fate.deliveries, 0);
        assert_eq!(inj.redeliver(2, 0, 9), None);
        // the reverse direction is unaffected
        assert_eq!(inj.decide_send(0, 2, 9, 1).deliveries, 1);
    }

    #[test]
    fn stall_events_fire_exactly_once() {
        let ev = StallEvent { rank: 1, sweep: 2, kind: StallKind::Crash };
        let inj = FaultInjector::new(FaultPlan::default().with_stall(ev));
        assert_eq!(inj.stall_event(0, 2), None);
        assert_eq!(inj.stall_event(1, 1), None);
        assert_eq!(inj.stall_event(1, 2), Some(StallKind::Crash));
        assert_eq!(inj.stall_event(1, 2), None, "one-shot");
        assert_eq!(inj.snapshot().stalls, 1);
    }

    #[test]
    fn default_plan_is_inert_chaos_is_not() {
        assert!(FaultPlan::default().is_inert());
        assert!(!FaultPlan::chaos(0).is_inert());
        let inj = FaultInjector::new(FaultPlan::default());
        for tag in 0..500 {
            assert_eq!(inj.decide_send(0, 1, tag, 4).deliveries, 1);
        }
        assert_eq!(inj.snapshot().injected(), 0);
    }
}
