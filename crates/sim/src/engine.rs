//! The deterministic event engine.

use std::any::Any;
use std::fmt;

use crate::heap::Entry;
use crate::queue::{EventQueue, Popped, QueueKind};
use crate::time::SimTime;

/// Identifier of a component registered with an [`Engine`].
///
/// Ids are dense indices assigned in registration order, so they are stable
/// across runs of the same setup code — part of the determinism contract.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CompId(pub(crate) u32);

impl CompId {
    /// The raw index of this component.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A simulated hardware or software element.
///
/// Components receive events of the simulation-wide message type `M` and
/// react by mutating their own state and emitting further events through the
/// [`Ctx`]. Components never hold references to each other; all interaction
/// is via scheduled events, which is what makes runs reproducible.
pub trait Component<M>: Any {
    /// Handles one event delivered to this component.
    fn on_event(&mut self, ev: M, ctx: &mut Ctx<'_, M>);

    /// A short human-readable name used in traces and panics.
    fn name(&self) -> &str;
}

/// The per-delivery context handed to [`Component::on_event`].
///
/// Lets the component read the clock, learn its own id, schedule events
/// (to itself or others), and stop the simulation.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: CompId,
    outbox: &'a mut Vec<(SimTime, CompId, M)>,
    halt: &'a mut bool,
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component currently handling an event.
    pub fn self_id(&self) -> CompId {
        self.self_id
    }

    /// Schedules `msg` for delivery to `dst` after `delay`.
    pub fn send(&mut self, dst: CompId, delay: SimTime, msg: M) {
        self.outbox.push((self.now + delay, dst, msg));
    }

    /// Schedules `msg` for delivery back to this component after `delay`.
    pub fn send_self(&mut self, delay: SimTime, msg: M) {
        let id = self.self_id;
        self.send(id, delay, msg);
    }

    /// Requests that the engine stop after the current event completes.
    /// Pending events remain queued and a later `run` call resumes them.
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

/// Why a `run_*` call returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunLimit {
    /// The event queue drained completely.
    Drained,
    /// A component called [`Ctx::halt`].
    Halted,
    /// The time horizon passed to [`Engine::run_until`] was reached.
    Deadline,
    /// The event budget passed to [`Engine::run_events`] was exhausted.
    EventBudget,
}

/// A shared counter of "useful work done", ticked by components at their
/// commit points and watched by [`Engine::run_watchdog`]. Cloning shares
/// the counter (the simulation is single-threaded).
#[derive(Clone, Debug, Default)]
pub struct ProgressMeter(std::rc::Rc<std::cell::Cell<u64>>);

impl ProgressMeter {
    /// A fresh meter at zero.
    pub fn new() -> Self {
        ProgressMeter::default()
    }

    /// Records one unit of progress.
    pub fn tick(&self) {
        self.0.set(self.0.get() + 1);
    }

    /// Total progress recorded so far.
    pub fn count(&self) -> u64 {
        self.0.get()
    }
}

/// Why a watchdog-supervised run ([`Engine::run_watchdog`]) returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchdogOutcome {
    /// The event queue drained completely.
    Drained,
    /// A component called [`Ctx::halt`].
    Halted,
    /// A full watchdog window elapsed with events still firing but no
    /// progress recorded on the meter.
    Stalled {
        /// Simulated time when the stall was declared.
        at: SimTime,
        /// The meter value that failed to advance.
        progress: u64,
    },
}

/// Deterministic counters describing an engine run: useful for detecting
/// livelock in tests and for reporting the simulator's event cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineStats {
    /// Total events delivered since construction.
    pub events_delivered: u64,
    /// Total events scheduled since construction.
    pub events_scheduled: u64,
    /// High-water mark of *pending events* — entries in the queue plus
    /// any same-instant batch popped but not yet delivered. Counting
    /// events (never queue-internal structures such as calendar buckets)
    /// keeps the datapoint comparable across queue implementations.
    pub max_queue_len: usize,
}

/// Per-component delivery counters, indexed by [`CompId`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ComponentStats {
    /// Events delivered to this component.
    pub delivered: u64,
    /// Events scheduled with this component as destination.
    pub scheduled: u64,
}

/// The payload stored in the event heap; the `(at, seq)` ordering key lives
/// packed inside the heap entry itself.
struct Scheduled<M> {
    dst: CompId,
    msg: M,
}

/// An observer invoked on every event delivery (time, scheduling sequence
/// number, destination), installed with [`Engine::set_delivery_hook`].
pub type DeliveryHook = Box<dyn FnMut(SimTime, u64, CompId)>;

/// The discrete-event engine: a clock, a priority queue of scheduled events,
/// and the set of registered components.
///
/// See the [crate docs](crate) for a complete example.
pub struct Engine<M> {
    components: Vec<Box<dyn Component<M>>>,
    /// Component names captured once at registration, so name lookups
    /// never make a virtual `name()` call.
    names: Vec<Box<str>>,
    queue: EventQueue<Scheduled<M>>,
    now: SimTime,
    seq: u64,
    halt: bool,
    stats: EngineStats,
    comp_stats: Vec<ComponentStats>,
    outbox: Vec<(SimTime, CompId, M)>,
    /// Scratch for batched same-instant delivery in `run_until`; kept on
    /// the engine so its capacity is reused across batches.
    batch: Vec<Entry<Scheduled<M>>>,
    /// Same-instant events popped as a batch but not yet delivered; they
    /// are still "pending" for queue-depth accounting even though they
    /// have left the queue.
    in_batch: usize,
    hook: Option<DeliveryHook>,
}

impl<M> fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("components", &self.components.len())
            .field("pending", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<M: 'static> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: 'static> Engine<M> {
    /// Creates an empty engine at time zero, using the calendar event
    /// queue (see [`QueueKind`]). It delivers in the same `(at, seq)`
    /// order as the heap and degrades itself to the heap if the event-time
    /// distribution defeats its bucket geometry.
    pub fn new() -> Self {
        Engine {
            components: Vec::new(),
            names: Vec::new(),
            queue: EventQueue::new(QueueKind::Calendar),
            now: SimTime::ZERO,
            seq: 0,
            halt: false,
            stats: EngineStats::default(),
            comp_stats: Vec::new(),
            outbox: Vec::new(),
            batch: Vec::new(),
            in_batch: 0,
            hook: None,
        }
    }

    /// The pending-event queue implementation currently in use (reflects
    /// a calendar-to-heap degrade).
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Installs an observer called on every delivery with `(at, seq, dst)`.
    /// One `Option` branch on the hot path when absent; replaces any
    /// previous hook.
    pub fn set_delivery_hook(&mut self, hook: DeliveryHook) {
        self.hook = Some(hook);
    }

    /// Removes the delivery hook installed by [`Engine::set_delivery_hook`].
    pub fn clear_delivery_hook(&mut self) {
        self.hook = None;
    }

    /// Registers a component and returns its id. The component's name is
    /// interned here, once.
    pub fn add(&mut self, component: impl Component<M>) -> CompId {
        let id = CompId(self.components.len() as u32);
        self.names.push(component.name().into());
        self.components.push(Box::new(component));
        self.comp_stats.push(ComponentStats::default());
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Number of events currently pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Run counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Per-component delivered/scheduled counters, indexed by [`CompId`].
    pub fn component_stats(&self) -> &[ComponentStats] {
        &self.comp_stats
    }

    /// `(name, stats)` pairs for every component, in registration order.
    pub fn component_stats_named(&self) -> impl Iterator<Item = (&str, ComponentStats)> {
        self.names
            .iter()
            .map(|n| &**n)
            .zip(self.comp_stats.iter().copied())
    }

    /// Schedules `msg` for `dst` at `delay` after the current time.
    ///
    /// # Panics
    ///
    /// Panics if `dst` was not returned by [`Engine::add`] on this engine.
    pub fn schedule(&mut self, delay: SimTime, dst: CompId, msg: M) {
        assert!(
            dst.index() < self.components.len(),
            "schedule to unregistered component {dst}"
        );
        let at = self.now + delay;
        self.push(at, dst, msg);
    }

    /// Schedules `msg` for `dst` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time, or if `dst` is not
    /// registered.
    pub fn schedule_at(&mut self, at: SimTime, dst: CompId, msg: M) {
        assert!(at >= self.now, "schedule_at into the past");
        assert!(
            dst.index() < self.components.len(),
            "schedule to unregistered component {dst}"
        );
        self.push(at, dst, msg);
    }

    #[inline]
    fn push(&mut self, at: SimTime, dst: CompId, msg: M) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry::new(at, seq, Scheduled { dst, msg }));
        self.stats.events_scheduled += 1;
        self.comp_stats[dst.index()].scheduled += 1;
        // `in_batch` counts same-instant events popped but not yet
        // delivered: still pending, just not in the queue structure.
        self.stats.max_queue_len = self
            .stats
            .max_queue_len
            .max(self.queue.len() + self.in_batch);
    }

    /// Delivers the single earliest pending event. Returns `false` if the
    /// queue was empty.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.queue.pop() else {
            return false;
        };
        let at = entry.at();
        assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.deliver(at, entry.seq(), entry.item);
        true
    }

    /// Delivers one already-popped event: counters, hook, the
    /// component's handler, and the outbox drain.
    #[inline(always)]
    fn deliver(&mut self, at: SimTime, seq: u64, sched: Scheduled<M>) {
        let Scheduled { dst, msg } = sched;
        self.stats.events_delivered += 1;
        self.comp_stats[dst.index()].delivered += 1;
        if let Some(hook) = self.hook.as_mut() {
            hook(at, seq, dst);
        }

        let mut outbox = std::mem::take(&mut self.outbox);
        {
            let mut ctx = Ctx {
                now: self.now,
                self_id: dst,
                outbox: &mut outbox,
                halt: &mut self.halt,
            };
            self.components[dst.index()].on_event(msg, &mut ctx);
        }
        for (at, dst, msg) in outbox.drain(..) {
            assert!(
                dst.index() < self.components.len(),
                "event sent to unregistered component {dst}"
            );
            self.push(at, dst, msg);
        }
        self.outbox = outbox;
    }

    /// Runs until the queue drains or a component halts the engine.
    pub fn run(&mut self) -> RunLimit {
        self.run_until(SimTime::MAX)
    }

    /// Runs until `deadline` (inclusive of events *at* the deadline), the
    /// queue drains, or a component halts the engine.
    ///
    /// Same-instant events are popped as one batch (one queue min-search
    /// for the whole tie instead of one per event) and delivered in their
    /// `(at, seq)` order; events scheduled during the batch carry strictly
    /// higher sequence numbers, so batching cannot reorder anything. A
    /// halt mid-batch pushes the undelivered remainder back with keys
    /// unchanged, so a later run resumes in the identical order.
    pub fn run_until(&mut self, deadline: SimTime) -> RunLimit {
        self.halt = false;
        let mut batch = std::mem::take(&mut self.batch);
        let limit = loop {
            let first = match self.queue.pop_ready(deadline, &mut batch) {
                Popped::Drained => break RunLimit::Drained,
                Popped::Deadline(next) => {
                    self.now = deadline.min(next);
                    break RunLimit::Deadline;
                }
                Popped::Ready(first) => first,
            };
            let at = first.at();
            assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            if batch.is_empty() {
                // Singleton batch: the hot path, no vec traffic at all.
                self.deliver(at, first.seq(), first.item);
                if self.halt {
                    break RunLimit::Halted;
                }
                continue;
            }
            self.in_batch = batch.len();
            self.deliver(at, first.seq(), first.item);
            let mut drain = batch.drain(..);
            let mut halted = self.halt;
            if !halted {
                for entry in drain.by_ref() {
                    self.in_batch -= 1;
                    self.deliver(at, entry.seq(), entry.item);
                    if self.halt {
                        halted = true;
                        break;
                    }
                }
            }
            if halted {
                for rest in drain {
                    self.queue.push(rest);
                }
                self.in_batch = 0;
                break RunLimit::Halted;
            }
        };
        self.batch = batch;
        limit
    }

    /// Runs at most `budget` events; a safety valve against livelocked
    /// component protocols in tests.
    pub fn run_events(&mut self, budget: u64) -> RunLimit {
        self.halt = false;
        let mut limit = RunLimit::EventBudget;
        for _ in 0..budget {
            if !self.step() {
                limit = RunLimit::Drained;
                break;
            }
            if self.halt {
                limit = RunLimit::Halted;
                break;
            }
        }
        limit
    }

    /// Runs under a no-progress watchdog: the engine executes in windows of
    /// `window` simulated time and compares the [`ProgressMeter`] across
    /// windows. A window in which events were delivered but the meter did
    /// not advance means the system is churning without doing useful work
    /// (e.g. a dead link retransmitting into the void while packets sit
    /// stuck), and the run stops with [`WatchdogOutcome::Stalled`] so the
    /// caller can assemble a structured report instead of spinning forever.
    ///
    /// Components signal useful work by calling [`ProgressMeter::tick`]
    /// at their commit points; what counts as progress is the caller's
    /// vocabulary, not the engine's.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn run_watchdog(&mut self, meter: &ProgressMeter, window: SimTime) -> WatchdogOutcome {
        assert!(!window.is_zero(), "watchdog window must be positive");
        let mut last = meter.count();
        loop {
            let deadline = self.now().checked_add(window).unwrap_or(SimTime::MAX);
            match self.run_until(deadline) {
                RunLimit::Drained => return WatchdogOutcome::Drained,
                RunLimit::Halted => return WatchdogOutcome::Halted,
                RunLimit::Deadline | RunLimit::EventBudget => {
                    let count = meter.count();
                    if count == last {
                        return WatchdogOutcome::Stalled {
                            at: self.now(),
                            progress: count,
                        };
                    }
                    last = count;
                }
            }
        }
    }

    /// Immutable access to a registered component, downcast to its concrete
    /// type. Returns `None` if the id is out of range or the type does not
    /// match.
    pub fn get<T: Component<M>>(&self, id: CompId) -> Option<&T> {
        self.components
            .get(id.index())
            .and_then(|c| (c.as_ref() as &dyn Any).downcast_ref::<T>())
    }

    /// Mutable access to a registered component, downcast to its concrete
    /// type.
    pub fn get_mut<T: Component<M>>(&mut self, id: CompId) -> Option<&mut T> {
        self.components
            .get_mut(id.index())
            .and_then(|c| (c.as_mut() as &mut dyn Any).downcast_mut::<T>())
    }

    /// The registered (interned) name of a component.
    pub fn name_of(&self, id: CompId) -> &str {
        self.names
            .get(id.index())
            .map(|n| &**n)
            .unwrap_or("<unregistered>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        peer: Option<CompId>,
        rounds: u32,
        got: Vec<u32>,
    }

    impl Component<Msg> for Pinger {
        fn on_event(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
            match ev {
                Msg::Ping(n) => {
                    self.got.push(n);
                    if let Some(peer) = self.peer {
                        ctx.send(peer, SimTime::from_ns(5), Msg::Pong(n));
                    }
                }
                Msg::Pong(n) => {
                    self.got.push(n);
                    if n + 1 < self.rounds {
                        if let Some(peer) = self.peer {
                            ctx.send(peer, SimTime::from_ns(5), Msg::Ping(n + 1));
                        }
                    }
                }
            }
        }
        fn name(&self) -> &str {
            "pinger"
        }
    }

    fn pinger(rounds: u32) -> Pinger {
        Pinger {
            peer: None,
            rounds,
            got: Vec::new(),
        }
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut eng: Engine<Msg> = Engine::new();
        let a = eng.add(pinger(3));
        let b = eng.add(pinger(3));
        eng.get_mut::<Pinger>(a).unwrap().peer = Some(b);
        eng.get_mut::<Pinger>(b).unwrap().peer = Some(a);
        eng.schedule(SimTime::ZERO, b, Msg::Ping(0));
        assert_eq!(eng.run(), RunLimit::Drained);
        // 3 rounds of ping+pong, 5ns per hop, first ping at t=0.
        assert_eq!(eng.now(), SimTime::from_ns(25));
        assert_eq!(eng.get::<Pinger>(b).unwrap().got, vec![0, 1, 2]);
        assert_eq!(eng.get::<Pinger>(a).unwrap().got, vec![0, 1, 2]);
    }

    struct Recorder {
        seen: Vec<u32>,
    }
    impl Component<u32> for Recorder {
        fn on_event(&mut self, ev: u32, _ctx: &mut Ctx<'_, u32>) {
            self.seen.push(ev);
        }
        fn name(&self) -> &str {
            "recorder"
        }
    }

    #[test]
    fn same_time_events_delivered_in_schedule_order() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        for i in 0..100 {
            eng.schedule(SimTime::from_ns(10), r, i);
        }
        eng.run();
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, expect);
    }

    #[test]
    fn interleaved_times_sorted() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        eng.schedule(SimTime::from_ns(30), r, 3);
        eng.schedule(SimTime::from_ns(10), r, 1);
        eng.schedule(SimTime::from_ns(20), r, 2);
        eng.run();
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        eng.schedule(SimTime::from_ns(10), r, 1);
        eng.schedule(SimTime::from_ns(50), r, 2);
        assert_eq!(eng.run_until(SimTime::from_ns(20)), RunLimit::Deadline);
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, vec![1]);
        assert_eq!(eng.now(), SimTime::from_ns(20));
        assert_eq!(eng.run(), RunLimit::Drained);
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, vec![1, 2]);
    }

    struct SelfLooper {
        fired: u64,
    }
    impl Component<u32> for SelfLooper {
        fn on_event(&mut self, _ev: u32, ctx: &mut Ctx<'_, u32>) {
            self.fired += 1;
            ctx.send_self(SimTime::from_ns(1), 0);
            if self.fired == 7 {
                ctx.halt();
            }
        }
        fn name(&self) -> &str {
            "looper"
        }
    }

    #[test]
    fn halt_stops_run_and_resumes() {
        let mut eng: Engine<u32> = Engine::new();
        let l = eng.add(SelfLooper { fired: 0 });
        eng.schedule(SimTime::ZERO, l, 0);
        assert_eq!(eng.run(), RunLimit::Halted);
        assert_eq!(eng.get::<SelfLooper>(l).unwrap().fired, 7);
        assert_eq!(eng.run_events(3), RunLimit::EventBudget);
        assert_eq!(eng.get::<SelfLooper>(l).unwrap().fired, 10);
    }

    #[test]
    fn stats_accumulate() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        for _ in 0..5 {
            eng.schedule(SimTime::ZERO, r, 0);
        }
        eng.run();
        let s = eng.stats();
        assert_eq!(s.events_delivered, 5);
        assert_eq!(s.events_scheduled, 5);
        assert_eq!(s.max_queue_len, 5);
    }

    #[test]
    fn downcast_wrong_type_is_none() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        assert!(eng.get::<SelfLooper>(r).is_none());
        assert!(eng.get::<Recorder>(r).is_some());
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn schedule_to_unknown_component_panics() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime::ZERO, CompId(3), 0);
    }

    /// Property: the delivery order the hook observes IS the engine's
    /// documented `(at, seq)` order, including dense same-instant ties,
    /// and every delivery carries the sequence number that proves it.
    #[test]
    fn delivery_order_matches_at_seq_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        let seen: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
        let sink = Rc::clone(&seen);
        eng.set_delivery_hook(Box::new(move |at, seq, _dst| {
            sink.borrow_mut().push((at.as_ps(), seq));
        }));
        let mut rng = crate::SimRng::new(7);
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for i in 0..400u64 {
            let at = rng.range(25); // picoseconds: lots of exact ties
            eng.schedule(SimTime::from_ps(at), r, i as u32);
            expected.push((at, i));
        }
        expected.sort(); // stable (at, seq) lexicographic reference
        eng.run();
        let got = seen.borrow();
        assert_eq!(got.len(), 400);
        assert_eq!(*got, expected, "hook order == (at, seq) delivery order");
        // Redundant but explicit: (at, seq) is strictly increasing, so ties
        // on `at` are broken by schedule order.
        for w in got.windows(2) {
            assert!(
                w[0] < w[1],
                "deliveries must be strictly ordered by (at, seq)"
            );
        }
    }

    #[test]
    fn delivery_hook_sees_every_delivery_and_uninstalls() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        let seen: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
        let sink = Rc::clone(&seen);
        eng.set_delivery_hook(Box::new(move |at, seq, _dst| {
            sink.borrow_mut().push((at.as_ps(), seq));
        }));
        for i in 0..5u32 {
            eng.schedule(SimTime::from_ns(1), r, i);
        }
        eng.run();
        assert_eq!(seen.borrow().len(), 5);
        assert!(seen.borrow().windows(2).all(|w| w[0] < w[1]));
        eng.clear_delivery_hook();
        eng.schedule(SimTime::ZERO, r, 9);
        eng.run();
        assert_eq!(seen.borrow().len(), 5, "hook removed");
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut eng: Engine<u32> = Engine::new();
            let r = eng.add(Recorder { seen: Vec::new() });
            for i in 0..50u32 {
                eng.schedule(SimTime::from_ns((i as u64 * 7) % 13), r, i);
            }
            eng.run();
            eng.get::<Recorder>(r).unwrap().seen.clone()
        };
        assert_eq!(run(), run());
    }

    /// Pins the indexed heap to the old `BinaryHeap` semantics on a heavy
    /// adversarial mix: many components, duplicate instants, events
    /// scheduled from within deliveries. The expected order is recomputed
    /// with a stable sort by `(at, seq)` — the documented contract.
    #[test]
    fn delivery_order_matches_stable_sort_reference() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        let mut rng = crate::SimRng::new(2024);
        let mut expected: Vec<(u64, u64, u32)> = Vec::new();
        for i in 0..500u32 {
            let at = rng.range(40); // dense ties
            eng.schedule(SimTime::from_ps(at), r, i);
            expected.push((at, u64::from(i), i));
        }
        expected.sort(); // stable, (at, seq) lexicographic
        eng.run();
        let want: Vec<u32> = expected.iter().map(|&(_, _, v)| v).collect();
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, want);
    }

    #[test]
    fn run_events_resumes_where_it_stopped() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        for i in 0..10u32 {
            eng.schedule(SimTime::from_ns(u64::from(i)), r, i);
        }
        assert_eq!(eng.run_events(4), RunLimit::EventBudget);
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, vec![0, 1, 2, 3]);
        assert_eq!(eng.pending_events(), 6);
        assert_eq!(eng.run_events(100), RunLimit::Drained);
        let expect: Vec<u32> = (0..10).collect();
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, expect);
    }

    #[test]
    fn run_until_then_run_events_preserves_order() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        for i in 0..10u32 {
            eng.schedule(SimTime::from_ns(u64::from(i) * 10), r, i);
        }
        assert_eq!(eng.run_until(SimTime::from_ns(35)), RunLimit::Deadline);
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, vec![0, 1, 2, 3]);
        // New events landing between the deadline and the rest interleave
        // correctly with what was already queued.
        eng.schedule(SimTime::from_ns(10), r, 100); // now + 10ns = 45ns
        assert_eq!(eng.run(), RunLimit::Drained);
        assert_eq!(
            eng.get::<Recorder>(r).unwrap().seen,
            vec![0, 1, 2, 3, 4, 100, 5, 6, 7, 8, 9]
        );
    }

    #[test]
    fn per_component_stats_track_destinations() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.add(Recorder { seen: Vec::new() });
        let b = eng.add(Recorder { seen: Vec::new() });
        for _ in 0..3 {
            eng.schedule(SimTime::ZERO, a, 0);
        }
        eng.schedule(SimTime::ZERO, b, 0);
        eng.run();
        let cs = eng.component_stats();
        assert_eq!(cs[a.index()].scheduled, 3);
        assert_eq!(cs[a.index()].delivered, 3);
        assert_eq!(cs[b.index()].scheduled, 1);
        assert_eq!(cs[b.index()].delivered, 1);
        let named: Vec<_> = eng.component_stats_named().collect();
        assert_eq!(named.len(), 2);
        assert_eq!(named[0].0, "recorder");
        assert_eq!(named[0].1.delivered, 3);
    }

    /// The clock can only go backwards through a bug (`step`'s guard is a
    /// hard `assert!` in every profile); the reachable edge is scheduling
    /// into the past, which must be refused at the API boundary.
    #[test]
    #[should_panic(expected = "past")]
    fn schedule_at_into_the_past_panics() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        eng.schedule(SimTime::from_ns(10), r, 1);
        eng.run();
        eng.schedule_at(SimTime::from_ns(10), r, 2); // at `now`: legal
        eng.run();
        eng.schedule_at(SimTime::from_ns(5), r, 3); // before `now`: refused
    }
}
