//! The `fleet_paced` workload: 1024 streams replay the corpus through
//! `perspectrond` from one generator thread, as an open loop at a fixed
//! rate over staggered streams. Every window is sent once with
//! `try_submit` when it is due, and a refusal is a miss. Half the streams
//! replay a faulted copy of the corpus.
//!
//! A run is cut into segments; each starts a fresh service, drives it,
//! drains it, shuts it down and checks every stream's verdicts against a
//! lone packed streaming detector fed the same rows.

use std::time::Instant;

use perspectron::faults::{mix, XorShift64};
use perspectron::stream::DEFAULT_QUARANTINE_AFTER;
use perspectron::{IntervalVerdict, PerSpectron};
use perspectron_serviced::{Perspectrond, ServiceConfig, ServiceReport, SubmitError};
use uarch_stats::SampleSink;

use crate::openloop::{Schedule, Tally};
use crate::setup::{Replay, Setup};
use crate::spans::Tracer;

/// Concurrent streams.
pub const STREAMS: usize = 1024;
/// Offered load, windows per second.
pub const RATE: f64 = 100_000.0;
/// Latency limit, µs.
pub const SLO_LIMIT_US: u32 = 1_000;
/// Per-shard queue bound: 41 ms of the offered load, so a stall of the
/// host shows as latency rather than as refusals.
pub const QUEUE_DEPTH: usize = 4096;
/// Segments a run is cut into.
pub const SEGMENTS: usize = 6;

/// Shard workers: one core is the generator's.
pub fn shards() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1)
}

/// What one segment measured.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Whether spans were recorded during the segment.
    pub traced: bool,
    /// First submit to the return of the final drain.
    pub wall_s: f64,
    /// Windows the schedule made due.
    pub due: u64,
    /// Windows the service refused.
    pub failed: u64,
    /// Windows the service scored.
    pub scored: u64,
    /// Scoring sweeps.
    pub sweeps: u64,
    /// `Busy` rejections the submitter saw.
    pub busy: u64,
    /// Service-reported submit-to-verdict latencies, µs, ascending.
    pub latencies_us: Vec<u32>,
    /// Windows that missed the latency limit.
    pub slo_misses: u64,
    /// Generator lateness of every accepted window, ns, ascending.
    pub late_ns: Vec<f64>,
    /// Generator time not spent waiting for the next due window.
    pub gen_busy_s: f64,
    /// `Perspectrond::start`, `drain` and `shutdown` wall times.
    pub start_s: f64,
    /// See `start_s`.
    pub drain_s: f64,
    /// See `start_s`.
    pub shutdown_s: f64,
    /// Windows scored under degraded input, and streams quarantined.
    pub degraded_windows: u64,
    /// See `degraded_windows`.
    pub quarantined_streams: u64,
    /// Heap the service's report holds per scored window, bytes.
    pub bytes_retained_per_window: f64,
}

/// Lone-stream reference verdicts, per trace, for the longest prefix any
/// stream has needed so far.
struct References<'a> {
    detector: &'a PerSpectron,
    replay: &'a Replay,
    per_trace: Vec<Vec<IntervalVerdict>>,
}

impl<'a> References<'a> {
    fn new(detector: &'a PerSpectron, replay: &'a Replay) -> Self {
        Self {
            detector,
            replay,
            per_trace: vec![Vec::new(); replay.traces()],
        }
    }

    /// Verdicts of a lone packed streaming detector fed windows `ks` of a
    /// stream looping trace `t`.
    fn lone(&self, t: usize, ks: impl Iterator<Item = usize>) -> Vec<IntervalVerdict> {
        let mut sink = self.detector.streaming_packed();
        for k in ks {
            let (at, row) = self.replay.window(t, k);
            sink.on_sample(at, row);
        }
        sink.flush();
        sink.verdicts().to_vec()
    }

    /// The first `n` verdicts of a stream looping trace `t` unbroken.
    fn prefix(&mut self, t: usize, n: usize) -> &[IntervalVerdict] {
        if self.per_trace[t].len() < n {
            self.per_trace[t] = self.lone(t, 0..n);
        }
        &self.per_trace[t][..n]
    }
}

fn same(a: &IntervalVerdict, b: &IntervalVerdict) -> bool {
    a.at_inst == b.at_inst
        && a.confidence.to_bits() == b.confidence.to_bits()
        && a.suspicious == b.suspicious
        && a.degraded == b.degraded
}

fn quarantined(verdicts: &[IntervalVerdict]) -> bool {
    let mut run = 0;
    for v in verdicts {
        run = if v.degraded.is_some() { run + 1 } else { 0 };
        if run >= DEFAULT_QUARANTINE_AFTER {
            return true;
        }
    }
    false
}

/// Checks a segment's report: nothing lost, restarted or duplicated, and
/// every stream bit-identical to its lone reference, with the degraded
/// and quarantine counts that reference implies.
fn verify(
    report: &ServiceReport,
    refs: &mut References<'_>,
    assign: &[usize],
    sent: &[usize],
    refused_at: &[Vec<usize>],
    accepted: u64,
) -> Result<(u64, u64), String> {
    if !report.restarts.is_empty() {
        return Err(format!("shard workers restarted: {:?}", report.restarts));
    }
    if report.lost_windows() != 0 {
        return Err(format!("{} windows lost", report.lost_windows()));
    }
    if report.windows_scored != accepted {
        return Err(format!(
            "{} windows accepted but {} scored",
            accepted, report.windows_scored
        ));
    }
    let (mut degraded, mut quarantine) = (0u64, 0u64);
    let mut outcomes = report.streams.iter().peekable();
    for s in 0..assign.len() {
        let expected: Vec<IntervalVerdict> = if refused_at[s].is_empty() {
            refs.prefix(assign[s], sent[s]).to_vec()
        } else {
            let gaps = &refused_at[s];
            refs.lone(assign[s], (0..sent[s]).filter(|k| !gaps.contains(k)))
        };
        let got: &[IntervalVerdict] = match outcomes.peek() {
            Some(o) if o.stream == s as u64 => &outcomes.next().expect("peeked").verdicts,
            _ => &[],
        };
        if got.len() != expected.len() {
            return Err(format!(
                "stream {s}: {} verdicts, lone reference has {}",
                got.len(),
                expected.len()
            ));
        }
        if let Some(i) = (0..got.len()).find(|&i| !same(&got[i], &expected[i])) {
            return Err(format!(
                "stream {s}: verdict {i} differs from the lone reference: {:?} vs {:?}",
                got[i], expected[i]
            ));
        }
        degraded += expected.iter().filter(|v| v.degraded.is_some()).count() as u64;
        quarantine += u64::from(quarantined(&expected));
    }
    if outcomes.next().is_some() {
        return Err("the service reported a stream nobody submitted".to_string());
    }
    let reported_degraded: u64 = report
        .streams
        .iter()
        .map(|s| s.degraded_windows as u64)
        .sum();
    let reported_quarantine = report.quarantined_streams().count() as u64;
    if (reported_degraded, reported_quarantine) != (degraded, quarantine) {
        return Err(format!(
            "service counted {reported_degraded} degraded windows and {reported_quarantine} \
             quarantined streams; the lone references give {degraded} and {quarantine}"
        ));
    }
    Ok((degraded, quarantine))
}

fn retained_bytes_per_window(report: &ServiceReport) -> f64 {
    let mut bytes = report.latencies_us.capacity() * std::mem::size_of::<u32>();
    for s in &report.streams {
        bytes += s.verdicts.capacity() * std::mem::size_of::<IntervalVerdict>();
        for v in &s.verdicts {
            if let Some(d) = &v.degraded {
                bytes += d.missing_components.capacity() * std::mem::size_of::<String>();
                bytes += d
                    .missing_components
                    .iter()
                    .map(String::capacity)
                    .sum::<usize>();
            }
        }
    }
    bytes as f64 / report.windows_scored.max(1) as f64
}

/// Runs the segments numbered `indices`, `seconds` each; with
/// `alternate`, the odd-numbered ones are traced.
pub fn run(
    setup: &Setup,
    tr: &mut Tracer,
    seconds: f64,
    seed: u64,
    indices: std::ops::Range<usize>,
    alternate: bool,
) -> Result<Vec<Segment>, String> {
    let replay = &setup.replay;
    // The seed deals the streams out over the traces.
    let mut assign: Vec<usize> = (0..STREAMS).map(|s| s % replay.traces()).collect();
    let mut rng = XorShift64::new(mix(seed ^ 0x00a5_516e));
    for i in (1..assign.len()).rev() {
        assign.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let schedule = Schedule::new(STREAMS, RATE, seconds, seed);
    let mut refs = References::new(&setup.detector, replay);
    let mut segments = Vec::with_capacity(indices.len());
    for index in indices {
        let traced = alternate && index % 2 == 1;
        tr.set_on(traced);
        let mut seg = Segment {
            traced,
            ..Segment::default()
        };
        let t = Instant::now();
        let o = tr.enter("service.start", index as u64);
        let service = Perspectrond::start(
            &setup.detector,
            ServiceConfig {
                shards: shards(),
                queue_depth: QUEUE_DEPTH,
                ..ServiceConfig::default()
            },
        );
        tr.exit(o);
        seg.start_s = t.elapsed().as_secs_f64();
        let submitter = service.submitter();
        let mut sent = vec![0usize; STREAMS];
        let mut refused_at = vec![Vec::new(); STREAMS];
        let mut tally = Tally::default();

        let root = tr.enter("fleet.segment", index as u64);
        let t0 = Instant::now();
        let mut wait_ns = 0u64;
        for round in 0..schedule.rounds() {
            let o_round = tr.enter("gen.round", round);
            for i in round as usize * STREAMS..(round as usize + 1) * STREAMS {
                let (stream, due) = schedule.window(i);
                let s = stream as usize;
                let k = sent[s];
                let id = (k as u64) << 16 | s as u64;
                let o = tr.enter("gen.wait", id);
                let mut now = t0.elapsed().as_nanos() as u64;
                let waited_from = now;
                while now < due {
                    std::hint::spin_loop();
                    now = t0.elapsed().as_nanos() as u64;
                }
                wait_ns += now - waited_from;
                tr.exit(o);
                let (at, row) = replay.window(assign[s], k);
                let o = tr.enter("service.msg", id);
                let msg: Box<[f64]> = row.into();
                tr.exit(o);
                let sent_ns = t0.elapsed().as_nanos() as u64;
                let o = tr.enter("service.try_submit", id);
                let r = submitter.try_submit(s as u64, at, msg);
                tr.exit(o);
                sent[s] += 1;
                match r {
                    Ok(()) => tally.accepted(due, sent_ns),
                    Err(SubmitError::Busy { .. }) => {
                        tally.refused();
                        refused_at[s].push(k);
                    }
                    Err(e) => return Err(format!("submit failed: {e}")),
                }
            }
            tr.exit(o_round);
        }
        seg.due = tally.due();
        seg.failed = tally.refused_count();
        seg.gen_busy_s = (t0.elapsed().as_nanos() as u64 - wait_ns) as f64 * 1e-9;
        let t = Instant::now();
        let o = tr.enter("service.drain", index as u64);
        service.drain();
        tr.exit(o);
        seg.drain_s = t.elapsed().as_secs_f64();
        seg.wall_s = t0.elapsed().as_secs_f64();
        tr.exit(root);

        seg.busy = submitter.busy_rejections();
        drop(submitter);
        let t = Instant::now();
        let o = tr.enter("service.shutdown", index as u64);
        let report = service.shutdown();
        tr.exit(o);
        seg.shutdown_s = t.elapsed().as_secs_f64();
        let report = report.map_err(|e| format!("service shutdown failed: {e}"))?;
        tr.set_on(false);

        seg.scored = report.windows_scored;
        seg.sweeps = report.sweeps;
        seg.bytes_retained_per_window = retained_bytes_per_window(&report);
        let accepted = seg.due - seg.failed;
        let (degraded, quarantine) =
            verify(&report, &mut refs, &assign, &sent, &refused_at, accepted)
                .map_err(|e| format!("segment {index}: {e}"))?;
        seg.degraded_windows = degraded;
        seg.quarantined_streams = quarantine;
        seg.slo_misses = tally.slo_misses(&report.latencies_us, SLO_LIMIT_US);
        seg.late_ns = tally.sorted_late_ns();
        seg.latencies_us = report.latencies_us;
        segments.push(seg);
    }
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perspectron::{CorpusSpec, SessionState};
    use perspectron_serviced::StreamOutcome;

    fn fixture() -> (PerSpectron, Replay) {
        let mut spec = CorpusSpec::quick().with_insts(30_000);
        spec.workloads
            .retain(|w| w.name == "flush-reload" || w.name == "hmmer");
        let corpus = spec.collect();
        let width = corpus.schema().len();
        let replay = Replay {
            width,
            insts: corpus
                .traces
                .iter()
                .map(|t| t.trace.instruction_counts().to_vec())
                .collect(),
            rows: corpus
                .traces
                .iter()
                .map(|t| t.trace.flat_values().to_vec())
                .collect(),
        };
        (PerSpectron::train(&corpus, 0), replay)
    }

    fn report(streams: Vec<StreamOutcome>) -> ServiceReport {
        ServiceReport {
            shards: 1,
            windows_scored: streams.iter().map(|s| s.verdicts.len() as u64).sum(),
            sweeps: 1,
            max_coalesced: 1,
            busy_rejections: 0,
            shed: 0,
            retries: 0,
            storms: 0,
            restarts: Vec::new(),
            latencies_us: Vec::new(),
            streams,
        }
    }

    #[test]
    fn verification_accepts_lone_stream_verdicts_and_refuses_any_drift() {
        let (detector, replay) = fixture();
        let mut refs = References::new(&detector, &replay);
        // Two streams on trace 1, seven windows each (the trace loops);
        // stream 1 had window 2 refused.
        let assign = [1, 1];
        let sent = [7, 7];
        let refused_at = vec![Vec::new(), vec![2]];
        let lone0 = refs.lone(1, 0..7);
        let lone1 = refs.lone(1, [0, 1, 3, 4, 5, 6].into_iter());
        let outcome = |stream, verdicts: Vec<IntervalVerdict>| StreamOutcome {
            stream,
            state: SessionState::Healthy,
            degraded_windows: verdicts.iter().filter(|v| v.degraded.is_some()).count(),
            lost_windows: 0,
            verdicts,
        };
        let good = report(vec![outcome(0, lone0.clone()), outcome(1, lone1.clone())]);
        assert_eq!(
            verify(&good, &mut refs, &assign, &sent, &refused_at, 13),
            Ok((0, 0))
        );
        assert!(verify(&good, &mut refs, &assign, &sent, &refused_at, 14).is_err());

        let mut drifted = lone0.clone();
        drifted[4].confidence = f64::from_bits(drifted[4].confidence.to_bits() ^ 1);
        let bad = report(vec![outcome(0, drifted), outcome(1, lone1.clone())]);
        assert!(verify(&bad, &mut refs, &assign, &sent, &refused_at, 13).is_err());

        let mut miscounted = report(vec![outcome(0, lone0), outcome(1, lone1)]);
        miscounted.streams[1].degraded_windows += 1;
        assert!(verify(&miscounted, &mut refs, &assign, &sent, &refused_at, 13).is_err());
    }

    #[test]
    fn quarantine_takes_the_configured_run_of_degraded_windows() {
        let v = |degraded: bool| IntervalVerdict {
            at_inst: 0,
            confidence: 0.0,
            suspicious: false,
            degraded: degraded.then(Default::default),
        };
        let mut run: Vec<IntervalVerdict> =
            (0..DEFAULT_QUARANTINE_AFTER - 1).map(|_| v(true)).collect();
        run.push(v(false));
        run.extend((0..DEFAULT_QUARANTINE_AFTER - 1).map(|_| v(true)));
        assert!(!quarantined(&run));
        run.push(v(true));
        assert!(quarantined(&run));
    }
}
