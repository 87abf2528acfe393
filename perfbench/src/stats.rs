//! The benchmark's own metric arithmetic: percentile choice, ratios that
//! keep their base, and span self-time attribution over the program's
//! telemetry stream.

use std::collections::BTreeMap;
use std::fmt;

use bolt::{Phase, TelemetryEvent};

/// A tail percentile is only reported when at least this many samples lie
/// strictly beyond it; fewer and the "tail" is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (linear interpolation between the middle pair).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` with linear interpolation, the same rule
/// the program's own latency summaries use.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    bolt_linalg::stats::percentile(xs, p).expect("non-empty, NaN-free samples")
}

/// Samples strictly greater than `value`.
pub fn samples_beyond(xs: &[f64], value: f64) -> usize {
    xs.iter().filter(|&&x| x > value).count()
}

/// The `p`-th percentile of `xs` if at least [`MIN_BEYOND`] samples lie
/// strictly beyond it, else `None` — the caller must gather more samples
/// before it may report that percentile.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let value = percentile(xs, p);
    (samples_beyond(xs, value) >= MIN_BEYOND).then_some(value)
}

/// A ratio that remembers its base, so every printed share says what it
/// is a share of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub part: f64,
    /// Denominator (the base).
    pub base: f64,
}

impl Ratio {
    /// `part / base`.
    pub fn new(part: f64, base: f64) -> Ratio {
        Ratio { part, base }
    }

    /// The ratio's value; 0 when the base is 0 (nothing to be a share of).
    pub fn value(self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.part / self.base
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ({:.6} / {:.6})",
            self.value(),
            self.part,
            self.base
        )
    }
}

/// Nesting depth of each phase's span: a span claims the spans of deeper
/// phases that closed inside it.
fn depth(phase: Phase) -> u8 {
    match phase {
        Phase::ServiceRequest | Phase::AttackExecution | Phase::RecommenderFit => 0,
        Phase::DetectionIteration => 1,
        Phase::AnytimeDeepen => 2,
        _ => 3,
    }
}

/// Whether a `parent` span can enclose a `child` span. The anytime
/// deepening loop probes without sweep spans: a probe or MRC sweep span
/// recorded just before a deepen span is its sibling, not its child.
fn encloses(parent: Phase, child: Phase) -> bool {
    depth(child) > depth(parent)
        && !(parent == Phase::AnytimeDeepen && matches!(child, Phase::ProbeSweep | Phase::MrcSweep))
}

/// Wall-time attribution of one telemetry stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTimes {
    /// Per phase: summed span wall time (ns).
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Per phase: summed self time, span wall minus enclosed child spans (ns).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Per phase: number of spans.
    pub count: BTreeMap<&'static str, u64>,
    /// Service-request spans that enclosed at least one child span — the
    /// requests that ran a hunt (and so took a cluster snapshot).
    pub hunts: u64,
    /// Per unit: summed wall of its top-level spans (its busy time).
    pub unit_busy_ns: BTreeMap<usize, u64>,
}

impl SpanTimes {
    /// Attributes every span of `events`. Spans carry no start time or
    /// parent link, so nesting is rebuilt from record order: a span closes
    /// after every span it encloses, so on close it claims the unclaimed
    /// spans recorded since that it can enclose.
    pub fn from_events(events: &[TelemetryEvent]) -> SpanTimes {
        let mut out = SpanTimes::default();
        // Closed spans not yet claimed by a parent: (unit, phase, wall).
        let mut open: Vec<(usize, Phase, u64)> = Vec::new();
        for event in events {
            let TelemetryEvent::Span {
                phase,
                unit,
                wall_ns,
                ..
            } = *event
            else {
                continue;
            };
            let mut child_ns = 0u64;
            while let Some(&(u, child, wall)) = open.last() {
                if u != unit || !encloses(phase, child) {
                    break;
                }
                child_ns += wall;
                open.pop();
            }
            let name = phase.as_str();
            *out.total_ns.entry(name).or_default() += wall_ns;
            *out.self_ns.entry(name).or_default() += wall_ns.saturating_sub(child_ns);
            *out.count.entry(name).or_default() += 1;
            if phase == Phase::ServiceRequest && child_ns > 0 {
                out.hunts += 1;
            }
            open.push((unit, phase, wall_ns));
        }
        for (unit, _, wall) in open {
            *out.unit_busy_ns.entry(unit).or_default() += wall;
        }
        out
    }

    /// Summed wall time of `phase`'s spans, in ms.
    pub fn total_ms(&self, phase: Phase) -> f64 {
        self.total_ns.get(phase.as_str()).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Summed self time of `phase`'s spans, in ms.
    pub fn self_ms(&self, phase: Phase) -> f64 {
        self.self_ns.get(phase.as_str()).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Number of `phase` spans.
    pub fn count(&self, phase: Phase) -> u64 {
        self.count.get(phase.as_str()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: Phase, unit: usize, wall_ns: u64) -> TelemetryEvent {
        TelemetryEvent::Span {
            phase,
            unit,
            sim_start_s: 0.0,
            sim_duration_s: 0.0,
            wall_ns,
        }
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 200 distinct samples: p95 = 190.05, so exactly 10 lie beyond.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&xs, 95.0);
        assert_eq!(samples_beyond(&xs, p95), 10);
        assert_eq!(tail_percentile(&xs, 95.0), Some(p95));
        // 180 samples leave only 9 beyond p95 (171.05): not reportable.
        let short: Vec<f64> = (1..=180).map(f64::from).collect();
        assert_eq!(samples_beyond(&short, percentile(&short, 95.0)), 9);
        assert_eq!(tail_percentile(&short, 95.0), None);
        // Ties at the tail do not count as beyond.
        let flat = vec![1.0; 500];
        assert_eq!(tail_percentile(&flat, 95.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn median_interpolates_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn ratio_keeps_and_prints_its_base() {
        let r = Ratio::new(67.0, 274.0);
        assert!((r.value() - 67.0 / 274.0).abs() < 1e-15);
        let shown = r.to_string();
        assert!(
            shown.contains("67.000000") && shown.contains("274.000000"),
            "{shown}"
        );
        assert_eq!(Ratio::new(3.0, 0.0).value(), 0.0);
        assert!(Ratio::new(3.0, 0.0).to_string().contains("/ 0.000000"));
    }

    #[test]
    fn self_time_subtracts_enclosed_children() {
        let events = vec![
            // Unit 1, request A: an iteration holding a sweep and a
            // decomposition.
            span(Phase::ProbeSweep, 1, 10),
            span(Phase::Decomposition, 1, 20),
            span(Phase::DetectionIteration, 1, 50),
            span(Phase::ServiceRequest, 1, 100),
            // Request B: expired in the queue, no children.
            span(Phase::ServiceRequest, 1, 5),
            // Unit 2, an anytime iteration: the initial sweep is the
            // deepen span's sibling; the decomposition is its child.
            span(Phase::ProbeSweep, 2, 7),
            span(Phase::Decomposition, 2, 3),
            span(Phase::AnytimeDeepen, 2, 30),
            span(Phase::DetectionIteration, 2, 40),
        ];
        let t = SpanTimes::from_events(&events);
        assert_eq!(t.self_ns["service-request"], (100 - 50) + 5);
        assert_eq!(t.self_ns["detection-iteration"], (50 - 30) + (40 - 30 - 7));
        assert_eq!(t.self_ns["anytime-deepen"], 30 - 3);
        assert_eq!(t.self_ns["probe-sweep"], 17);
        assert_eq!(t.total_ns["service-request"], 105);
        assert_eq!(t.hunts, 1);
        assert_eq!(t.count(Phase::ServiceRequest), 2);
        assert_eq!(t.unit_busy_ns[&1], 105);
        assert_eq!(t.unit_busy_ns[&2], 40);
    }

    #[test]
    fn self_time_never_claims_across_units_or_goes_negative() {
        let events = vec![
            span(Phase::ProbeSweep, 1, 10),
            // Unit 2's iteration must not claim unit 1's sweep.
            span(Phase::DetectionIteration, 2, 4),
            // A child reported longer than its parent clamps to zero self.
            span(Phase::Decomposition, 3, 9),
            span(Phase::DetectionIteration, 3, 6),
        ];
        let t = SpanTimes::from_events(&events);
        assert_eq!(t.self_ns["detection-iteration"], 4);
        assert_eq!(t.self_ns["probe-sweep"], 10);
        assert_eq!(t.unit_busy_ns[&1], 10);
    }
}
