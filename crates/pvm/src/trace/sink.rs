//! Trace export: chrome://tracing JSON and a plain-text flame summary.
//!
//! The JSON artifact is the Trace Event Format consumed by Perfetto /
//! `chrome://tracing`: duration pairs (`ph:"B"`/`"E"`) for faults,
//! upcalls and spans, instant events (`ph:"i"`) for everything else,
//! with `ts` in microseconds of *simulated* time so the viewer shows
//! the cost-model timeline the paper's tables are measured on. The
//! flame summary is a per-stack inclusive simulated-time rollup plus
//! the per-phase latency histograms — greppable, diffable text.

use super::histogram::{HistogramSnapshot, Phase};
use super::{TraceEvent, TraceRecord, Tracer};
use crate::telemetry::{Dim, Telemetry, TelemetrySample};
use chorus_hal::Access;

/// A drained capture of a [`Tracer`], ready for export.
pub struct TraceSink {
    records: Vec<TraceRecord>,
    hists: Vec<(Phase, HistogramSnapshot)>,
    dropped: u64,
    /// Gauge samples attached via [`TraceSink::with_telemetry`]:
    /// exported as chrome-trace counter tracks and in
    /// [`TraceSink::telemetry_json`].
    series: Vec<TelemetrySample>,
}

/// The Trace Event Format phase of one event.
enum Ph {
    Begin,
    End,
    Instant,
}

/// One event decomposed for export: phase, name, and key/value args
/// (values already JSON-encoded).
fn parts(e: &TraceEvent) -> (Ph, String, Vec<(&'static str, String)>) {
    let s = |v: &str| format!("\"{v}\"");
    let access = |a: Access| match a {
        Access::Read => "\"read\"".to_string(),
        Access::Write => "\"write\"".to_string(),
        Access::Execute => "\"execute\"".to_string(),
    };
    match *e {
        TraceEvent::FaultEnter { ctx, va, access: a } => (
            Ph::Begin,
            "fault".into(),
            vec![
                ("ctx", ctx.to_string()),
                ("va", format!("\"{va:#x}\"")),
                ("access", access(a)),
            ],
        ),
        TraceEvent::FaultExit { resolution, .. } => (
            Ph::End,
            "fault".into(),
            vec![("resolution", s(resolution.label()))],
        ),
        TraceEvent::StubWait { cache, offset } => (
            Ph::Instant,
            "stub.wait".into(),
            vec![("cache", cache.to_string()), ("offset", offset.to_string())],
        ),
        TraceEvent::StubWake => (Ph::Instant, "stub.wake".into(), vec![]),
        TraceEvent::HistoryPush { cache, offset } => (
            Ph::Instant,
            "history.push".into(),
            vec![("cache", cache.to_string()), ("offset", offset.to_string())],
        ),
        TraceEvent::HistoryWalk {
            cache,
            offset,
            depth,
        } => (
            Ph::Instant,
            "history.walk".into(),
            vec![
                ("cache", cache.to_string()),
                ("offset", offset.to_string()),
                ("depth", depth.to_string()),
            ],
        ),
        TraceEvent::UpcallStart {
            kind,
            segment,
            offset,
            size,
        } => (
            Ph::Begin,
            format!("upcall.{}", kind.label()),
            vec![
                ("segment", segment.to_string()),
                ("offset", offset.to_string()),
                ("size", size.to_string()),
            ],
        ),
        TraceEvent::UpcallEnd {
            kind,
            outcome,
            retries,
        } => (
            Ph::End,
            format!("upcall.{}", kind.label()),
            vec![
                ("outcome", s(outcome.label())),
                ("retries", retries.to_string()),
            ],
        ),
        TraceEvent::UpcallSubmit {
            kind,
            segment,
            offset,
            size,
            inflight,
            pages,
            last_arrival_ns,
        } => (
            Ph::Instant,
            format!("upcall.submit.{}", kind.label()),
            vec![
                ("segment", segment.to_string()),
                ("offset", offset.to_string()),
                ("size", size.to_string()),
                ("inflight", inflight.to_string()),
                ("pages", pages.to_string()),
                ("last_arrival_ns", last_arrival_ns.to_string()),
            ],
        ),
        TraceEvent::UpcallComplete {
            kind,
            outcome,
            retries,
            inflight,
            pages,
            last_arrival_ns,
        } => (
            Ph::Instant,
            format!("upcall.complete.{}", kind.label()),
            vec![
                ("outcome", s(outcome.label())),
                ("retries", retries.to_string()),
                ("inflight", inflight.to_string()),
                ("pages", pages.to_string()),
                ("last_arrival_ns", last_arrival_ns.to_string()),
            ],
        ),
        TraceEvent::Eviction { cache, offset } => (
            Ph::Instant,
            "clock.evict".into(),
            vec![("cache", cache.to_string()), ("offset", offset.to_string())],
        ),
        TraceEvent::DropBehind { cache, offset } => (
            Ph::Instant,
            "clock.dropBehind".into(),
            vec![("cache", cache.to_string()), ("offset", offset.to_string())],
        ),
        TraceEvent::ClockSweep { sweeps } => (
            Ph::Instant,
            "clock.sweep".into(),
            vec![("sweeps", sweeps.to_string())],
        ),
        TraceEvent::Quarantine { cache } => (
            Ph::Instant,
            "quarantine".into(),
            vec![("cache", cache.to_string())],
        ),
        TraceEvent::MapperFaultInjected { kind } => (
            Ph::Instant,
            "mapper.inject".into(),
            vec![("kind", s(kind.label()))],
        ),
        TraceEvent::WatchdogCancel { kind, segment } => (
            Ph::Instant,
            format!("watchdog.cancel.{}", kind.label()),
            vec![("segment", segment.to_string())],
        ),
        TraceEvent::MapperSuspected { segment, timeouts } => (
            Ph::Instant,
            "mapper.suspected".into(),
            vec![
                ("segment", segment.to_string()),
                ("timeouts", timeouts.to_string()),
            ],
        ),
        TraceEvent::SpanBegin { name } => (Ph::Begin, name.into(), vec![]),
        TraceEvent::SpanEnd { name } => (Ph::End, name.into(), vec![]),
    }
}

impl TraceSink {
    /// Drains the tracer's rings and histograms into a capture.
    pub fn capture(tracer: &Tracer) -> TraceSink {
        TraceSink {
            records: tracer.drain(),
            hists: Phase::ALL
                .iter()
                .map(|&p| (p, tracer.histogram(p)))
                .collect(),
            dropped: tracer.dropped(),
            series: Vec::new(),
        }
    }

    /// Attaches the telemetry sampler's gauge series (see
    /// [`crate::Pvm::telemetry_series`]) so exports include counter
    /// tracks alongside the event timeline.
    pub fn with_telemetry(mut self, series: Vec<TelemetrySample>) -> TraceSink {
        self.series = series;
        self
    }

    /// The attached gauge series (empty unless
    /// [`TraceSink::with_telemetry`] was used).
    pub fn series(&self) -> &[TelemetrySample] {
        &self.series
    }

    /// The captured records, in sequence order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records lost to ring overflow before the capture.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The captured per-phase histograms.
    pub fn histograms(&self) -> &[(Phase, HistogramSnapshot)] {
        &self.hists
    }

    /// Exports the Trace Event Format JSON (`chrome://tracing`,
    /// Perfetto). `ts` is simulated microseconds.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = Vec::with_capacity(self.records.len());
        for rec in &self.records {
            let (ph, name, args) = parts(&rec.event);
            let ph = match ph {
                Ph::Begin => "B",
                Ph::End => "E",
                Ph::Instant => "i",
            };
            let mut ev = format!(
                "{{\"name\":\"{}\",\"cat\":\"pvm\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
                name,
                ph,
                rec.sim_ns as f64 / 1000.0,
                rec.lane
            );
            if ph == "i" {
                ev.push_str(",\"s\":\"t\"");
            }
            let mut args = args;
            args.push(("seq", rec.seq.to_string()));
            let body: Vec<String> = args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            ev.push_str(&format!(",\"args\":{{{}}}}}", body.join(",")));
            events.push(ev);
        }
        // Counter tracks (`ph:"C"`): one multi-series event per gauge
        // group per sample, so Perfetto renders stacked area charts of
        // the live state next to the event timeline.
        for s in &self.series {
            let ts = s.sim_ns as f64 / 1000.0;
            let mut counter = |name: &str, args: String| {
                events.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"pvm\",\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":1,\"args\":{{{args}}}}}"
                ));
            };
            counter("mem.free", format!("\"free_frames\":{}", s.free_frames));
            counter(
                "engine.queues",
                format!(
                    "\"inflight\":{},\"arriving_pages\":{}",
                    s.inflight_upcalls, s.arriving_pages
                ),
            );
            counter(
                "residency",
                format!(
                    "\"clock_ring\":{},\"gmap_slots\":{}",
                    s.clock_ring_pages, s.gmap_slots
                ),
            );
            counter(
                "readahead",
                format!(
                    "\"ahead_pulls\":{},\"ahead_skipped\":{}",
                    s.ahead_pulls, s.ahead_skipped
                ),
            );
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"clock\":\"simulated\",\"dropped\":{}}}}}\n",
            events.join(",\n"),
            self.dropped
        )
    }

    /// Exports the `telemetry.json` artifact: the gauge series, the
    /// dimensional counter tables, and the per-phase latency summary.
    /// Hand-built JSON (the repo carries no serde), same as the chrome
    /// export.
    pub fn telemetry_json(&self, telemetry: &Telemetry) -> String {
        let series: Vec<String> = self
            .series
            .iter()
            .map(|s| {
                format!(
                    "{{\"sim_ns\":{},\"free_frames\":{},\
                     \"inflight_upcalls\":{},\"arriving_pages\":{},\"clock_ring_pages\":{},\
                     \"gmap_slots\":{},\"ahead_pulls\":{},\"ahead_skipped\":{}}}",
                    s.sim_ns,
                    s.free_frames,
                    s.inflight_upcalls,
                    s.arriving_pages,
                    s.clock_ring_pages,
                    s.gmap_slots,
                    s.ahead_pulls,
                    s.ahead_skipped
                )
            })
            .collect();
        let dims: Vec<String> = Dim::ALL
            .iter()
            .map(|&d| {
                let rows: Vec<String> = telemetry
                    .table(d)
                    .iter()
                    .map(|(id, counts)| {
                        let cells: Vec<String> = counts
                            .iter()
                            .map(|(c, n)| format!("\"{}\":{n}", c.label()))
                            .collect();
                        format!("{{\"id\":{id},{}}}", cells.join(","))
                    })
                    .collect();
                format!("\"{}\":[{}]", d.label(), rows.join(","))
            })
            .collect();
        let phases: Vec<String> = self
            .hists
            .iter()
            .map(|(p, s)| {
                format!(
                    "{{\"phase\":\"{}\",\"samples\":{},\"p50_ns\":{},\"p99_ns\":{},\
                     \"p999_ns\":{},\"mean_ns\":{:.1},\"max_ns\":{}}}",
                    p.label(),
                    s.count(),
                    s.percentile(0.50),
                    s.percentile(0.99),
                    s.percentile(0.999),
                    s.mean(),
                    s.max
                )
            })
            .collect();
        format!(
            "{{\"series\":[{}],\"dims\":{{{}}},\"phases\":[{}]}}\n",
            series.join(",\n"),
            dims.join(","),
            phases.join(",\n")
        )
    }

    /// Renders the plain-text flame summary: per-stack inclusive
    /// simulated time, instant-event counts, and the latency
    /// histograms.
    pub fn flame_summary(&self) -> String {
        use std::collections::BTreeMap;
        // Per-lane stack walk over B/E pairs; inclusive ns per path.
        let mut stacks: BTreeMap<u32, Vec<(String, u64)>> = BTreeMap::new();
        let mut paths: BTreeMap<String, (u64, u64)> = BTreeMap::new(); // (count, ns)
        let mut instants: BTreeMap<String, u64> = BTreeMap::new();
        for rec in &self.records {
            let (ph, name, _) = parts(&rec.event);
            let stack = stacks.entry(rec.lane).or_default();
            match ph {
                Ph::Begin => stack.push((name, rec.sim_ns)),
                Ph::End => {
                    // Tolerate pairs broken by ring overflow: pop only a
                    // matching frame.
                    if let Some(pos) = stack.iter().rposition(|(n, _)| *n == name) {
                        let (_, start) = stack[pos];
                        let path: Vec<&str> =
                            stack[..=pos].iter().map(|(n, _)| n.as_str()).collect();
                        let e = paths.entry(path.join(";")).or_default();
                        e.0 += 1;
                        e.1 += rec.sim_ns.saturating_sub(start);
                        stack.truncate(pos);
                    }
                }
                Ph::Instant => *instants.entry(name).or_default() += 1,
            }
        }
        let mut out = String::new();
        out.push_str("PVM trace flame summary (simulated time)\n");
        out.push_str(&format!(
            "records={} dropped={}\n\n",
            self.records.len(),
            self.dropped
        ));
        out.push_str("inclusive time by stack (ns):\n");
        let mut rows: Vec<(&String, &(u64, u64))> = paths.iter().collect();
        rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
        for (path, (count, ns)) in rows {
            out.push_str(&format!("  {ns:>14}  {count:>8}x  {path}\n"));
        }
        out.push_str("\ninstant events:\n");
        for (name, count) in &instants {
            out.push_str(&format!("  {count:>8}x  {name}\n"));
        }
        out.push_str("\nlatency histograms (simulated ns, log2 buckets):\n");
        for (phase, snap) in &self.hists {
            out.push_str(&format!("{}:\n{}", phase.label(), snap.render()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Resolution, TraceConfig, Tracer, UpcallKind, UpcallOutcome};
    use super::*;
    use crate::stats::{Counter, StatsRegistry};
    use crate::telemetry::At;
    use chorus_gmi::SegmentId;
    use chorus_hal::{CostModel, CostParams, OpKind};
    use std::sync::Arc;

    fn capture_with_activity() -> TraceSink {
        let model = Arc::new(CostModel::new(CostParams::sun3()));
        let t = Tracer::new(
            TraceConfig {
                enabled: true,
                ..TraceConfig::default()
            },
            model.clone(),
            Arc::new(StatsRegistry::new()),
        );
        let f = t.fault_enter(1, 0x8000, Access::Write);
        t.event(|| TraceEvent::StubWake);
        t.event(|| TraceEvent::UpcallStart {
            kind: UpcallKind::PullIn,
            segment: 4,
            offset: 0,
            size: 8192,
        });
        model.charge(OpKind::SegmentIoPage);
        t.event(|| TraceEvent::UpcallEnd {
            kind: UpcallKind::PullIn,
            outcome: UpcallOutcome::Ok,
            retries: 1,
        });
        t.fault_exit(f, 1, 0x8000, Resolution::CowCopy);
        TraceSink::capture(&t)
    }

    #[test]
    fn chrome_json_is_well_formed_and_balanced() {
        let sink = capture_with_activity();
        let json = sink.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"upcall.pullIn\""));
        assert!(json.contains("\"resolution\":\"cow_copy\""));
        // Structural sanity without a JSON parser: balanced braces and
        // brackets, equal quote pairs.
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON");
        assert_eq!(json.matches('"').count() % 2, 0);
        // B and E counts match per capture.
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count()
        );
    }

    #[test]
    fn flame_summary_rolls_up_stacks() {
        let sink = capture_with_activity();
        let text = sink.flame_summary();
        assert!(text.contains("fault;upcall.pullIn"), "{text}");
        assert!(text.contains("stub.wake"));
        assert!(text.contains("fault.total:"));
        assert!(text.contains("samples=1"));
    }

    #[test]
    fn empty_capture_exports_cleanly() {
        let t = Tracer::disabled();
        let sink = TraceSink::capture(&t);
        let json = sink.chrome_trace_json();
        assert!(json.contains("\"traceEvents\":[]"));
        assert!(sink.flame_summary().contains("records=0"));
    }

    fn sample(sim_ns: u64, free: u32) -> TelemetrySample {
        TelemetrySample {
            sim_ns,
            free_frames: free,
            inflight_upcalls: 2,
            arriving_pages: 1,
            clock_ring_pages: 5,
            gmap_slots: 6,
            ahead_pulls: 4,
            ahead_skipped: 3,
        }
    }

    #[test]
    fn counter_tracks_ride_in_the_chrome_export() {
        let sink = capture_with_activity().with_telemetry(vec![sample(0, 10), sample(1_000, 8)]);
        let json = sink.chrome_trace_json();
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 8, "4 tracks x 2");
        assert!(json.contains("\"name\":\"mem.free\""));
        assert!(json.contains("\"ahead_pulls\":4,\"ahead_skipped\":3"));
        assert!(json.contains("\"name\":\"residency\""));
        // Still structurally sound with the counter events in place.
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON");
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count()
        );
    }

    #[test]
    fn telemetry_json_carries_series_dims_and_phases() {
        let mut telemetry = Telemetry::default();
        let cache = chorus_hal::Id::from_raw_parts(3, 0);
        let at = At::Fault(chorus_hal::Id::from_raw_parts(0, 0), Some(cache));
        telemetry.add(Counter::Faults, 1, at);
        telemetry.add(Counter::PushOuts, 2, At::Io(cache, SegmentId(7)));
        let sink = capture_with_activity().with_telemetry(vec![sample(500, 9)]);
        let json = sink.telemetry_json(&telemetry);
        assert!(json.contains("\"series\":[{\"sim_ns\":500"));
        assert!(json.contains("\"cache\":[{\"id\":3,\"faults\":1"));
        assert!(json.contains("\"mapper\":[{\"id\":7,"));
        assert!(json.contains("\"push_outs\":2"));
        assert!(json.contains("\"phase\":\"fault.total\""));
        assert!(json.contains("\"context\":[{\"id\":0,\"faults\":1}]"));
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON");
    }
}
