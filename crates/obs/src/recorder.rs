//! Virtual-time span/event recorder.
//!
//! Every timestamp is a [`SimTime`] — microseconds of *virtual* time, not
//! wall clock — so same-seed simulation runs produce byte-identical
//! traces. Recording is off by default; the hot-path cost of the disabled
//! recorder is one relaxed atomic load and a branch (asserted by
//! `disabled_recorder_is_nearly_free` in the workspace tests).
//!
//! Wall-clock data exists in exactly one place: [`PhaseRecord`]s, which
//! feed the end-of-run phase summary table and are deliberately **not**
//! part of the exported trace, keeping exports deterministic.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ids_simclock::{SimDuration, SimTime};
use parking_lot::Mutex;

/// Identifies one horizontal track (a "thread" row in Perfetto).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId(pub u32);

/// A value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Floating-point argument.
    F64(f64),
    /// Text argument.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// One recorded trace event, keyed to virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A complete span (`ph: "X"` in Chrome trace terms).
    Span {
        /// Category, e.g. `"exec"`, `"queue"`, `"opt"`.
        cat: &'static str,
        /// Event name, e.g. the query kind.
        name: String,
        /// Track the span renders on.
        track: TrackId,
        /// Virtual start time.
        start: SimTime,
        /// Virtual duration.
        dur: SimDuration,
        /// Attached arguments.
        args: Vec<(&'static str, ArgValue)>,
    },
    /// A zero-duration marker (`ph: "i"`).
    Instant {
        /// Category.
        cat: &'static str,
        /// Event name.
        name: String,
        /// Track the marker renders on.
        track: TrackId,
        /// Virtual timestamp.
        ts: SimTime,
        /// Attached arguments.
        args: Vec<(&'static str, ArgValue)>,
    },
    /// A counter sample (`ph: "C"`), plotted as a stacked area chart.
    Counter {
        /// Counter name, e.g. `"engine.buffer.hit_rate"`.
        name: &'static str,
        /// Virtual timestamp of the sample.
        ts: SimTime,
        /// Sampled value.
        value: f64,
    },
}

/// Wall + virtual timing of one named run phase (setup/simulate/…).
#[derive(Debug, Clone)]
pub struct PhaseRecord {
    /// Phase name.
    pub name: String,
    /// Wall-clock time spent in the phase.
    pub wall: Duration,
    /// Span of virtual time covered by events recorded during the phase
    /// (zero when the recorder was disabled or no events fired).
    pub virtual_span: SimDuration,
    /// Number of trace events recorded during the phase.
    pub events: usize,
}

#[derive(Default)]
struct RecorderInner {
    events: Vec<TraceEvent>,
    /// Track names in id order.
    tracks: Vec<String>,
    phases: Vec<PhaseRecord>,
}

/// The global trace recorder. Obtain it with [`recorder()`].
pub struct Recorder {
    enabled: AtomicBool,
    inner: Mutex<RecorderInner>,
}

thread_local! {
    /// Current virtual time, published by whoever drives the simulation
    /// (the scheduler) so deeper layers (buffer pool, fault injection)
    /// can read it without threading a clock through every call.
    ///
    /// Per thread: a simulation publishes and reads its clock on the
    /// thread that drives it, so simulations running concurrently on
    /// other threads can neither see nor move it.
    static VNOW: Cell<u64> = const { Cell::new(0) };
}

static RECORDER: Recorder = Recorder {
    enabled: AtomicBool::new(false),
    inner: Mutex::new(RecorderInner {
        events: Vec::new(),
        tracks: Vec::new(),
        phases: Vec::new(),
    }),
};

/// The process-wide recorder.
#[inline]
pub fn recorder() -> &'static Recorder {
    &RECORDER
}

impl Recorder {
    /// `true` when events are being captured. The disabled fast path of
    /// every `record_*` call is this load plus a branch.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts capturing events.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops capturing events (already-captured events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Drops all captured events, tracks, and phases, and resets the
    /// calling thread's virtual time to zero.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.events.clear();
        inner.tracks.clear();
        inner.phases.clear();
        VNOW.with(|v| v.set(0));
    }

    /// Publishes the calling thread's current virtual time (the scheduler
    /// calls this as it advances through a replay).
    ///
    /// Always tracked, even while the recorder is disabled: beyond
    /// timestamping trace samples, the published time is the clock bus
    /// that fault injection keys its windows on, and fault behavior must
    /// not change with observability on or off.
    #[inline]
    pub fn set_vnow(&self, t: SimTime) {
        VNOW.with(|v| v.set(t.as_micros()));
    }

    /// The virtual time most recently published on the calling thread.
    #[inline]
    pub fn vnow(&self) -> SimTime {
        SimTime::from_micros(VNOW.with(Cell::get))
    }

    /// Interns a track by name, returning a stable id. Repeated calls
    /// with the same name return the same id.
    pub fn track(&self, name: &str) -> TrackId {
        let mut inner = self.inner.lock();
        if let Some(pos) = inner.tracks.iter().position(|t| t == name) {
            return TrackId(pos as u32);
        }
        inner.tracks.push(name.to_string());
        TrackId((inner.tracks.len() - 1) as u32)
    }

    /// Records a complete span; no-op while disabled.
    #[inline]
    pub fn record_span(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        track: TrackId,
        start: SimTime,
        dur: SimDuration,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.inner.lock().events.push(TraceEvent::Span {
            cat,
            name: name.into(),
            track,
            start,
            dur,
            args,
        });
    }

    /// Records an instant marker; no-op while disabled.
    #[inline]
    pub fn record_instant(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        track: TrackId,
        ts: SimTime,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.inner.lock().events.push(TraceEvent::Instant {
            cat,
            name: name.into(),
            track,
            ts,
            args,
        });
    }

    /// Records a counter sample; no-op while disabled.
    #[inline]
    pub fn record_counter(&self, name: &'static str, ts: SimTime, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.inner
            .lock()
            .events
            .push(TraceEvent::Counter { name, ts, value });
    }

    /// A snapshot of all captured events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.clone()
    }

    /// Number of captured events.
    pub fn event_count(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// The events captured after the first `mark` (a prior
    /// [`event_count`](Recorder::event_count) value), used for delta
    /// capture: mark, run a section, then collect just that section's
    /// events. Returns an empty vec if the mark is past the end.
    pub fn events_since(&self, mark: usize) -> Vec<TraceEvent> {
        let inner = self.inner.lock();
        inner
            .events
            .get(mark.min(inner.events.len())..)
            .map(<[TraceEvent]>::to_vec)
            .unwrap_or_default()
    }

    /// Track names in id order.
    pub fn tracks(&self) -> Vec<String> {
        self.inner.lock().tracks.clone()
    }

    /// All completed phase records, in completion order.
    pub fn phases(&self) -> Vec<PhaseRecord> {
        self.inner.lock().phases.clone()
    }

    /// Starts a named phase; the returned guard completes it on drop.
    /// Phases time wall clock unconditionally and attribute whatever
    /// trace events fire while they are open, so the phase table works
    /// with the recorder on or off.
    pub fn phase(&'static self, name: impl Into<String>) -> PhaseGuard {
        let events_at_start = self.inner.lock().events.len();
        PhaseGuard {
            recorder: self,
            name: name.into(),
            started: Instant::now(),
            events_at_start,
        }
    }
}

/// Completes a phase on drop. Created by [`Recorder::phase`].
pub struct PhaseGuard {
    recorder: &'static Recorder,
    name: String,
    started: Instant,
    events_at_start: usize,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let wall = self.started.elapsed();
        let mut inner = self.recorder.inner.lock();
        let new_events = &inner.events[self.events_at_start.min(inner.events.len())..];
        let mut lo = SimTime::MAX;
        let mut hi = SimTime::ZERO;
        for e in new_events {
            let (start, end) = match e {
                TraceEvent::Span { start, dur, .. } => (*start, *start + *dur),
                TraceEvent::Instant { ts, .. } | TraceEvent::Counter { ts, .. } => (*ts, *ts),
            };
            lo = lo.min(start);
            hi = hi.max(end);
        }
        let virtual_span = if lo > hi {
            SimDuration::ZERO
        } else {
            hi.saturating_since(lo)
        };
        let events = new_events.len();
        inner.phases.push(PhaseRecord {
            name: std::mem::take(&mut self.name),
            wall,
            virtual_span,
            events,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global; tests that mutate it run under one
    // lock so `cargo test`'s thread pool cannot interleave them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _guard = TEST_LOCK.lock();
        let r = recorder();
        r.disable();
        r.clear();
        let t = r.track("t");
        r.record_span("cat", "s", t, us(0), SimDuration::from_micros(5), vec![]);
        r.record_instant("cat", "i", t, us(1), vec![]);
        r.record_counter("c", us(2), 1.0);
        assert_eq!(r.event_count(), 0);
    }

    #[test]
    fn enabled_recorder_captures_in_order() {
        let _guard = TEST_LOCK.lock();
        let r = recorder();
        r.clear();
        r.enable();
        let t = r.track("worker/0");
        r.record_span(
            "exec",
            "count",
            t,
            us(10),
            SimDuration::from_micros(5),
            vec![("tag", ArgValue::U64(1))],
        );
        r.record_counter("hits", us(15), 3.0);
        let events = r.events();
        r.disable();
        r.clear();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], TraceEvent::Span { name, .. } if name == "count"));
        assert!(matches!(&events[1], TraceEvent::Counter { value, .. } if *value == 3.0));
    }

    #[test]
    fn tracks_are_interned() {
        let _guard = TEST_LOCK.lock();
        let r = recorder();
        r.clear();
        let a = r.track("alpha");
        let b = r.track("beta");
        let a2 = r.track("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(r.tracks(), vec!["alpha".to_string(), "beta".to_string()]);
        r.clear();
    }

    #[test]
    fn vnow_round_trips_when_enabled() {
        let _guard = TEST_LOCK.lock();
        let r = recorder();
        r.clear();
        r.enable();
        r.set_vnow(us(1234));
        assert_eq!(r.vnow(), us(1234));
        r.disable();
        r.clear();
    }

    #[test]
    fn phase_guard_attributes_events_and_virtual_span() {
        let _guard = TEST_LOCK.lock();
        let r = recorder();
        r.clear();
        r.enable();
        {
            let _p = r.phase("execute");
            let t = r.track("w");
            r.record_span(
                "exec",
                "q",
                t,
                us(100),
                SimDuration::from_micros(50),
                vec![],
            );
            r.record_instant("exec", "m", t, us(400), vec![]);
        }
        let phases = r.phases();
        r.disable();
        r.clear();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].name, "execute");
        assert_eq!(phases[0].events, 2);
        // Virtual span covers 100 → 400.
        assert_eq!(phases[0].virtual_span, SimDuration::from_micros(300));
    }

    #[test]
    fn phase_guard_with_recorder_disabled_still_times_wall() {
        let _guard = TEST_LOCK.lock();
        let r = recorder();
        r.disable();
        r.clear();
        {
            let _p = r.phase("setup");
        }
        let phases = r.phases();
        r.clear();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].virtual_span, SimDuration::ZERO);
        assert_eq!(phases[0].events, 0);
    }
}
