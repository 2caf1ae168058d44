//! A small counters/gauges/time-series registry for simulation metrics.
//!
//! The engine's [`EngineStats`](crate::EngineStats) and per-component
//! counters describe the *scheduler*; this registry is for the *simulated
//! hardware*: link utilization, FIFO depths, credit-stall time, per-node
//! operation mixes. Instruments are named once (get-or-create by name) and
//! then updated through cheap integer ids, so hot paths never hash or
//! allocate.
//!
//! Three instrument kinds:
//!
//! - **counter** — a monotonically increasing `u64` (packets forwarded,
//!   picoseconds stalled).
//! - **gauge** — a last-written `f64` with a tracked maximum (current
//!   queue depth, utilization).
//! - **series** — `(SimTime, f64)` samples appended by a periodic
//!   sampler, for post-run plotting and export. A series is stored as
//!   change-point runs: consecutive samples with a bit-identical value at
//!   evenly spaced instants share one run, so a 1 µs sampler over a mostly
//!   idle queue costs memory per *change*, not per tick. Reads go through
//!   a [`SeriesView`], which replays every sample exactly.
//!
//! Iteration order is registration order everywhere, keeping reports and
//! exported JSON deterministic across runs.

use std::collections::HashMap;
use std::fmt;

use crate::time::SimTime;

/// Handle of a registered counter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CounterId(usize);

/// Handle of a registered gauge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GaugeId(usize);

/// Handle of a registered time series.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SeriesId(usize);

/// One time-series observation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Sample {
    /// Simulated instant of the observation.
    pub at: SimTime,
    /// Observed value.
    pub value: f64,
}

/// Samples `first_at + step·k` for `k` in `0..len`, all with `value`.
#[derive(Clone, Copy, Debug)]
struct Run {
    first_at: SimTime,
    /// Picoseconds between consecutive samples (0 until the run has two).
    step: u64,
    value: f64,
    len: u64,
}

impl Run {
    fn at(&self, k: u64) -> SimTime {
        SimTime::from_ps(self.first_at.as_ps() + self.step * k)
    }

    fn last_at(&self) -> SimTime {
        self.at(self.len - 1)
    }

    /// Extends the run by `(at, value)` when the value is bit-identical and
    /// `at` continues the run's even step; false leaves the run untouched.
    fn extend(&mut self, at: SimTime, value: f64) -> bool {
        if value.to_bits() != self.value.to_bits() {
            return false;
        }
        let gap = at.as_ps() - self.last_at().as_ps();
        if self.len == 1 {
            self.step = gap;
        } else if gap != self.step {
            return false;
        }
        self.len += 1;
        true
    }
}

/// One series: its runs plus the total sample count.
#[derive(Debug, Default)]
struct Series {
    runs: Vec<Run>,
    len: usize,
}

impl Series {
    fn view(&self) -> SeriesView<'_> {
        SeriesView {
            runs: &self.runs,
            len: self.len,
        }
    }
}

/// Read-only view of a series' samples, replayed in recording order from
/// the change-point runs they are stored as.
#[derive(Clone, Copy, Debug)]
pub struct SeriesView<'a> {
    runs: &'a [Run],
    len: usize,
}

impl<'a> SeriesView<'a> {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<Sample> {
        self.runs.last().map(|r| Sample {
            at: r.last_at(),
            value: r.value,
        })
    }

    /// Every sample, in recording order.
    pub fn iter(&self) -> SeriesIter<'a> {
        SeriesIter {
            runs: self.runs,
            k: 0,
        }
    }
}

impl<'a> IntoIterator for SeriesView<'a> {
    type Item = Sample;
    type IntoIter = SeriesIter<'a>;

    fn into_iter(self) -> SeriesIter<'a> {
        self.iter()
    }
}

/// Iterator over the samples of a [`SeriesView`].
#[derive(Clone, Debug)]
pub struct SeriesIter<'a> {
    runs: &'a [Run],
    /// Index of the next sample within `runs[0]`.
    k: u64,
}

impl Iterator for SeriesIter<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        let (run, rest) = self.runs.split_first()?;
        let sample = Sample {
            at: run.at(self.k),
            value: run.value,
        };
        self.k += 1;
        if self.k == run.len {
            self.runs = rest;
            self.k = 0;
        }
        Some(sample)
    }
}

#[derive(Debug)]
struct Gauge {
    value: f64,
    max: f64,
}

/// The registry. See the [module docs](self) for the model.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counter_names: Vec<Box<str>>,
    counters: Vec<u64>,
    gauge_names: Vec<Box<str>>,
    gauges: Vec<Gauge>,
    series_names: Vec<Box<str>>,
    series: Vec<Series>,
    lookup: HashMap<Box<str>, Instrument>,
}

/// What a name resolves to (each namespace is separate per kind, but one
/// name may only be used for one kind — re-registering as another kind
/// panics, catching copy-paste mistakes early).
#[derive(Clone, Copy, Debug)]
enum Instrument {
    Counter(usize),
    Gauge(usize),
    Series(usize),
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument kind.
    pub fn counter(&mut self, name: &str) -> CounterId {
        match self.lookup.get(name) {
            Some(Instrument::Counter(i)) => CounterId(*i),
            Some(other) => panic!("metric {name:?} already registered as {other:?}"),
            None => {
                let i = self.counters.len();
                self.counter_names.push(name.into());
                self.counters.push(0);
                self.lookup.insert(name.into(), Instrument::Counter(i));
                CounterId(i)
            }
        }
    }

    /// Adds `delta` to a counter.
    pub fn inc(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0] += delta;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Gets or creates the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument kind.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        match self.lookup.get(name) {
            Some(Instrument::Gauge(i)) => GaugeId(*i),
            Some(other) => panic!("metric {name:?} already registered as {other:?}"),
            None => {
                let i = self.gauges.len();
                self.gauge_names.push(name.into());
                self.gauges.push(Gauge {
                    value: 0.0,
                    max: f64::NEG_INFINITY,
                });
                self.lookup.insert(name.into(), Instrument::Gauge(i));
                GaugeId(i)
            }
        }
    }

    /// Sets a gauge's current value (its maximum is tracked automatically).
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        let g = &mut self.gauges[id.0];
        g.value = value;
        if value > g.max {
            g.max = value;
        }
    }

    /// Last value written to a gauge (0.0 before the first write).
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0].value
    }

    /// Largest value ever written to a gauge (0.0 before the first write).
    pub fn gauge_max(&self, id: GaugeId) -> f64 {
        let m = self.gauges[id.0].max;
        if m == f64::NEG_INFINITY {
            0.0
        } else {
            m
        }
    }

    /// Gets or creates the time series named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument kind.
    pub fn series(&mut self, name: &str) -> SeriesId {
        match self.lookup.get(name) {
            Some(Instrument::Series(i)) => SeriesId(*i),
            Some(other) => panic!("metric {name:?} already registered as {other:?}"),
            None => {
                let i = self.series.len();
                self.series_names.push(name.into());
                self.series.push(Series::default());
                self.lookup.insert(name.into(), Instrument::Series(i));
                SeriesId(i)
            }
        }
    }

    /// Appends one sample to a series.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last recorded sample — the
    /// sampler drives forward in simulated time, so a regression is a bug.
    pub fn record(&mut self, id: SeriesId, at: SimTime, value: f64) {
        let s = &mut self.series[id.0];
        let extended = match s.runs.last_mut() {
            Some(run) => {
                assert!(at >= run.last_at(), "series sample time went backwards");
                run.extend(at, value)
            }
            None => false,
        };
        if !extended {
            s.runs.push(Run {
                first_at: at,
                step: 0,
                value,
                len: 1,
            });
        }
        s.len += 1;
    }

    /// The samples of a series, in recording order.
    pub fn samples(&self, id: SeriesId) -> SeriesView<'_> {
        self.series[id.0].view()
    }

    /// Looks up a counter's value by name.
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        match self.lookup.get(name) {
            Some(Instrument::Counter(i)) => Some(self.counters[*i]),
            _ => None,
        }
    }

    /// Looks up a gauge's `(last, max)` by name.
    pub fn gauge_by_name(&self, name: &str) -> Option<(f64, f64)> {
        match self.lookup.get(name) {
            Some(Instrument::Gauge(i)) => {
                let g = &self.gauges[*i];
                let max = if g.max == f64::NEG_INFINITY {
                    0.0
                } else {
                    g.max
                };
                Some((g.value, max))
            }
            _ => None,
        }
    }

    /// Looks up a series' samples by name.
    pub fn series_by_name(&self, name: &str) -> Option<SeriesView<'_>> {
        match self.lookup.get(name) {
            Some(Instrument::Series(i)) => Some(self.series[*i].view()),
            _ => None,
        }
    }

    /// All counters as `(name, value)`, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names
            .iter()
            .map(|n| &**n)
            .zip(self.counters.iter().copied())
    }

    /// All gauges as `(name, last, max)`, in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64, f64)> {
        self.gauge_names
            .iter()
            .zip(self.gauges.iter())
            .map(|(n, g)| {
                let max = if g.max == f64::NEG_INFINITY {
                    0.0
                } else {
                    g.max
                };
                (&**n, g.value, max)
            })
    }

    /// All series as `(name, samples)`, in registration order.
    pub fn all_series(&self) -> impl Iterator<Item = (&str, SeriesView<'_>)> {
        self.series_names
            .iter()
            .zip(self.series.iter())
            .map(|(n, s)| (&**n, s.view()))
    }

    /// Total number of registered instruments.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.series.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in self.counters() {
            writeln!(f, "counter {name} = {v}")?;
        }
        for (name, v, max) in self.gauges() {
            writeln!(f, "gauge   {name} = {v} (max {max})")?;
        }
        for (name, s) in self.all_series() {
            writeln!(f, "series  {name}: {} samples", s.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_and_accumulate() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("fabric.packets");
        let a2 = m.counter("fabric.packets");
        assert_eq!(a, a2, "same name, same id");
        m.inc(a, 3);
        m.inc(a2, 4);
        assert_eq!(m.counter_value(a), 7);
        assert_eq!(m.counter_by_name("fabric.packets"), Some(7));
        assert_eq!(m.counter_by_name("absent"), None);
    }

    #[test]
    fn gauges_track_last_and_max() {
        let mut m = MetricsRegistry::new();
        let g = m.gauge("fifo.depth");
        assert_eq!(m.gauge_value(g), 0.0);
        assert_eq!(m.gauge_max(g), 0.0);
        m.set_gauge(g, 4.0);
        m.set_gauge(g, 9.0);
        m.set_gauge(g, 2.0);
        assert_eq!(m.gauge_value(g), 2.0);
        assert_eq!(m.gauge_max(g), 9.0);
    }

    #[test]
    fn series_append_in_time_order() {
        let mut m = MetricsRegistry::new();
        let s = m.series("link.util");
        m.record(s, SimTime::from_ns(10), 0.5);
        m.record(s, SimTime::from_ns(10), 0.6); // equal instants allowed
        m.record(s, SimTime::from_ns(20), 0.7);
        let samples = m.samples(s);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples.iter().nth(2).unwrap().at, SimTime::from_ns(20));
        assert_eq!(m.series_by_name("link.util").unwrap().len(), 3);
    }

    /// Property: the change-point store replays exactly what was recorded
    /// (instants and value bits), whatever mix of repeats, step changes,
    /// equal instants, signed zeros and NaN payloads it is fed.
    #[test]
    fn change_point_runs_replay_every_sample_exactly() {
        let values = [
            0.0,
            -0.0,
            1.5,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0x7ff8_0000_0000_0002),
            f64::NAN,
        ];
        let mut rng = crate::SimRng::new(11);
        for _ in 0..200 {
            let mut m = MetricsRegistry::new();
            let id = m.series("s");
            let mut want: Vec<(SimTime, u64)> = Vec::new();
            let mut at = rng.range(1_000);
            let mut step = rng.range(4);
            let mut value = *rng.pick(&values);
            for _ in 0..rng.range(60) {
                // Mostly repeat the value and keep the step, so runs form,
                // but break either one often enough to split them.
                if rng.chance(0.3) {
                    value = *rng.pick(&values);
                }
                if rng.chance(0.2) {
                    step = rng.range(4);
                }
                at += step;
                m.record(id, SimTime::from_ps(at), value);
                want.push((SimTime::from_ps(at), value.to_bits()));
            }
            let view = m.samples(id);
            let got: Vec<(SimTime, u64)> = view.iter().map(|s| (s.at, s.value.to_bits())).collect();
            assert_eq!(got, want);
            assert_eq!(view.len(), want.len());
            assert_eq!(view.is_empty(), want.is_empty());
            assert_eq!(
                view.last().map(|s| (s.at, s.value.to_bits())),
                want.last().copied()
            );
            let by_value: Vec<(SimTime, u64)> = view
                .into_iter()
                .map(|s| (s.at, s.value.to_bits()))
                .collect();
            assert_eq!(by_value, want);
        }
    }

    #[test]
    fn repeated_values_at_a_fixed_interval_share_one_run() {
        let mut m = MetricsRegistry::new();
        let s = m.series("depth");
        for t in 1..=1000 {
            m.record(s, SimTime::from_us(t), 0.0);
        }
        m.record(s, SimTime::from_us(1001), 1.0);
        assert_eq!(m.series[s.0].runs.len(), 2);
        assert_eq!(m.samples(s).len(), 1001);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn series_reject_time_regressions() {
        let mut m = MetricsRegistry::new();
        let s = m.series("x");
        m.record(s, SimTime::from_ns(10), 1.0);
        m.record(s, SimTime::from_ns(5), 2.0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_panics() {
        let mut m = MetricsRegistry::new();
        m.counter("x");
        m.gauge("x");
    }

    #[test]
    fn iteration_is_registration_order() {
        let mut m = MetricsRegistry::new();
        m.counter("b");
        m.counter("a");
        m.gauge("z");
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        let rendered = m.to_string();
        assert!(rendered.contains("counter b = 0"));
        assert!(rendered.contains("gauge   z = 0"));
    }
}
