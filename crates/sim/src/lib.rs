//! # tg-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the Telegraphos reproduction: a small, dependency-free,
//! fully deterministic discrete-event engine. Every hardware element of the
//! simulated cluster (CPUs, host interface boards, links, switches) is a
//! [`Component`] registered with an [`Engine`]; components communicate by
//! scheduling typed events at future simulated instants.
//!
//! Determinism is a hard requirement — the coherence-protocol experiments
//! compare observed write sequences across seeds — so the event queue breaks
//! time ties by a monotone sequence number: two events scheduled for the same
//! instant are delivered in the order they were scheduled, on every run.
//!
//! # Example
//!
//! ```
//! use tg_sim::{Component, Ctx, Engine, SimTime};
//!
//! struct Counter { n: u32 }
//! impl Component<u32> for Counter {
//!     fn on_event(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
//!         self.n += ev;
//!         if self.n < 3 {
//!             ctx.send_self(SimTime::from_ns(10), 1);
//!         }
//!     }
//!     fn name(&self) -> &str { "counter" }
//! }
//!
//! let mut engine = Engine::new();
//! let id = engine.add(Counter { n: 0 });
//! engine.schedule(SimTime::ZERO, id, 1);
//! engine.run();
//! assert_eq!(engine.get::<Counter>(id).unwrap().n, 3);
//! assert_eq!(engine.now(), SimTime::from_ns(20));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calendar;
mod engine;
mod heap;
mod metrics;
mod queue;
mod rng;
mod stats;
mod time;

pub use engine::{
    CompId, Component, ComponentStats, Ctx, DeliveryHook, Engine, EngineStats, ProgressMeter,
    RunLimit, WatchdogOutcome,
};
pub use metrics::{CounterId, GaugeId, MetricsRegistry, Sample, SeriesId, SeriesIter, SeriesView};
pub use queue::QueueKind;
pub use rng::SimRng;
pub use stats::{LogHistogram, Summary};
pub use time::SimTime;
