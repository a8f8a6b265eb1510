//! The `live` workload: the paper's own deployment. Each single-core
//! workload of the suite runs through `try_stream_trace` with a packed
//! streaming detector as its sink, and each cross-core scenario runs on a
//! two-core `Machine` through `run_with_sink` with the detector trained on
//! the two-core schema. Nearly all of the time is simulation.

use std::time::Instant;

use perspectron::faults::{mix, XorShift64};
use perspectron::trace::try_stream_trace;
use perspectron::{core_seed, workload_seed, PerSpectron, StreamingDetector};
use sim_cpu::{CoreConfig, Machine, SimError};
use sim_mem::HierarchyConfig;
use uarch_stats::SampleSink;
use workloads::{CoreScenario, Workload};

use crate::digest::{combine, Fnv64};
use crate::setup::Setup;
use crate::spans::Tracer;

/// Instructions simulated per single-core workload, and machine-wide per
/// cross-core scenario.
pub const LIVE_INSTS: u64 = 50_000;
/// Sampling interval, committed instructions.
pub const INTERVAL: u64 = 10_000;
/// Digest of one full pass: every stat row and every verdict of every
/// job. Only a change to what is simulated or scored may move it.
pub const EXPECTED_DIGEST: u64 = 0xe75c_5fa5_8173_63ea;

/// One unit of live work.
pub enum Job {
    /// A single-core workload.
    Single(Workload),
    /// A cross-core scenario on a two-core machine.
    Cross(CoreScenario),
}

impl Job {
    /// The workload's or scenario's name.
    pub fn name(&self) -> &str {
        match self {
            Job::Single(w) => &w.name,
            Job::Cross(s) => &s.name,
        }
    }
}

/// Every job of a pass: the single-core suite and the cross-core suite.
pub fn jobs() -> Vec<Job> {
    let mut v: Vec<Job> = workloads::full_suite()
        .into_iter()
        .map(Job::Single)
        .collect();
    v.extend(workloads::cross_core_suite().into_iter().map(Job::Cross));
    v
}

/// The sink the simulator streams into: digests every row, forwards it to
/// the detector, and notes when each window closed and when its verdict
/// appeared.
struct LiveSink<'a> {
    detector: StreamingDetector,
    tr: &'a mut Tracer,
    id: u64,
    digest: Fnv64,
    closed: Vec<Instant>,
    seen: usize,
    latencies_ns: &'a mut Vec<f64>,
    last_insts: u64,
}

impl<'a> LiveSink<'a> {
    fn new(
        detector: &PerSpectron,
        tr: &'a mut Tracer,
        id: u64,
        latencies_ns: &'a mut Vec<f64>,
    ) -> Self {
        Self {
            detector: detector.streaming_packed(),
            tr,
            id,
            digest: Fnv64::default(),
            closed: Vec::new(),
            seen: 0,
            latencies_ns,
            last_insts: 0,
        }
    }

    fn collect_verdicts(&mut self) {
        let n = self.detector.verdicts().len();
        if n > self.seen {
            let now = Instant::now();
            for &closed in &self.closed[self.seen..n] {
                self.latencies_ns
                    .push(now.duration_since(closed).as_nanos() as f64);
            }
            self.seen = n;
        }
    }

    /// Scores the final partial batch and folds every verdict into the
    /// digest. Returns `(windows, digest)`.
    fn finish(mut self) -> (u64, u64) {
        let o = self.tr.enter("stream.flush", self.id);
        self.detector.flush();
        self.tr.exit(o);
        self.collect_verdicts();
        let o = self.tr.enter("digest.verdicts", self.id);
        for v in self.detector.verdicts() {
            self.digest.verdict(v);
        }
        self.tr.exit(o);
        (self.seen as u64, self.digest.finish())
    }
}

impl SampleSink for LiveSink<'_> {
    fn on_sample(&mut self, insts: u64, row: &[f64]) {
        self.closed.push(Instant::now());
        self.last_insts = insts;
        let o = self.tr.enter("digest.row", self.id);
        self.digest.row(insts, row);
        self.tr.exit(o);
        let o = self.tr.enter("stream.on_sample", self.id);
        self.detector.on_sample(insts, row);
        self.tr.exit(o);
        self.collect_verdicts();
    }
}

/// What one job did.
struct JobRun {
    insts: u64,
    chain_s: f64,
    windows: u64,
    digest: u64,
}

fn run_job(
    job: &Job,
    setup: &Setup,
    insts: u64,
    tr: &mut Tracer,
    id: u64,
    latencies_ns: &mut Vec<f64>,
) -> Result<JobRun, SimError> {
    let t = Instant::now();
    match job {
        Job::Single(w) => {
            let mut sink = LiveSink::new(&setup.detector, tr, id, latencies_ns);
            let o = sink.tr.enter("sim.try_stream_trace", id);
            let r = try_stream_trace(w, insts, INTERVAL, &mut sink);
            sink.tr.exit(o);
            let committed = sink.last_insts;
            let (windows, digest) = sink.finish();
            r?;
            Ok(JobRun {
                insts: committed,
                chain_s: t.elapsed().as_secs_f64(),
                windows,
                digest,
            })
        }
        Job::Cross(s) => {
            let o = tr.enter("sim.machine_new", id);
            let machine = Machine::try_new(
                &CoreConfig::default(),
                &HierarchyConfig::default(),
                s.programs.clone(),
            );
            tr.exit(o);
            let mut machine = machine?;
            let base = workload_seed(&s.name);
            for i in 0..machine.n_cores() {
                machine.core_mut(i).set_noise_seed(core_seed(base, i));
            }
            let mut sink = LiveSink::new(&setup.detector_2core, tr, id, latencies_ns);
            let o = sink.tr.enter("sim.run_with_sink", id);
            let r = machine.run_with_sink(insts, INTERVAL, &mut sink);
            sink.tr.exit(o);
            let (windows, digest) = sink.finish();
            let summary = r?;
            Ok(JobRun {
                insts: summary.committed,
                chain_s: t.elapsed().as_secs_f64(),
                windows,
                digest,
            })
        }
    }
}

/// One pass over every job.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Whether spans were recorded during the pass.
    pub traced: bool,
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Single-core instructions simulated, and the wall time of the
    /// single-core jobs (simulation plus detection).
    pub insts: u64,
    /// See `insts`.
    pub chain_s: f64,
    /// The same for the two-core jobs.
    pub insts_2core: u64,
    /// See `insts_2core`.
    pub chain_2core_s: f64,
    /// Windows scored.
    pub windows: u64,
    /// Window-closed-to-verdict latency of every window, ns.
    pub latencies_ns: Vec<f64>,
    /// Jobs run, and jobs that failed.
    pub jobs: u64,
    /// See `jobs`.
    pub failed: u64,
    /// The pass digest.
    pub digest: u64,
}

/// Runs whole passes, each in a seed-drawn job order, until `seconds`
/// have passed (at least one pass). Passes are numbered from
/// `first` across calls; with `alternate`, the odd-numbered ones are
/// traced.
pub fn run(
    setup: &Setup,
    tr: &mut Tracer,
    seconds: f64,
    seed: u64,
    first: u64,
    alternate: bool,
) -> Vec<Pass> {
    let jobs = jobs();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let index = first + passes.len() as u64;
        let traced = alternate && index % 2 == 1;
        tr.set_on(traced);
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        let mut rng = XorShift64::new(mix(seed ^ mix(index)));
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let mut pass = Pass {
            traced,
            ..Pass::default()
        };
        let mut digests = Vec::with_capacity(jobs.len());
        let t = Instant::now();
        let root = tr.enter("live.pass", index);
        for &j in &order {
            let job = &jobs[j];
            let id = index << 32 | j as u64;
            pass.jobs += 1;
            match run_job(job, setup, LIVE_INSTS, tr, id, &mut pass.latencies_ns) {
                Ok(r) => {
                    match job {
                        Job::Single(_) => {
                            pass.insts += r.insts;
                            pass.chain_s += r.chain_s;
                        }
                        Job::Cross(_) => {
                            pass.insts_2core += r.insts;
                            pass.chain_2core_s += r.chain_s;
                        }
                    }
                    pass.windows += r.windows;
                    digests.push((job.name().to_string(), r.digest));
                }
                Err(e) => {
                    eprintln!("live: {} failed: {e}", job.name());
                    pass.failed += 1;
                }
            }
        }
        tr.exit(root);
        pass.wall_s = t.elapsed().as_secs_f64();
        pass.digest = combine(&digests);
        passes.push(pass);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tr.set_on(false);
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Replay;
    use perspectron::{CorpusSpec, ScenarioSpec};

    const INSTS: u64 = 30_000;

    fn small_setup() -> Setup {
        let mut single = CorpusSpec::quick().with_insts(INSTS);
        single
            .workloads
            .retain(|w| w.name == "flush-reload" || w.name == "hmmer");
        let mut cross = ScenarioSpec::cross_core_quick().with_insts(INSTS);
        cross.scenarios.truncate(2);
        Setup {
            detector: PerSpectron::train(&single.collect(), 0),
            detector_2core: PerSpectron::train(&cross.collect(), 0),
            replay: Replay {
                width: 0,
                insts: Vec::new(),
                rows: Vec::new(),
            },
            collect_insts: 0,
            collect_s: 0.0,
            collect_insts_2core: 0,
            collect_2core_s: 0.0,
        }
    }

    fn digests(setup: &Setup, jobs: &[Job], traced: bool) -> Vec<(String, u64)> {
        let mut tr = Tracer::new(traced);
        let mut latencies = Vec::new();
        jobs.iter()
            .map(|job| {
                let r = run_job(job, setup, INSTS, &mut tr, 0, &mut latencies)
                    .expect("the job simulates");
                assert_eq!(r.windows, INSTS / INTERVAL);
                (job.name().to_string(), r.digest)
            })
            .collect()
    }

    #[test]
    fn the_pass_digest_repeats_in_any_job_order_and_with_tracing() {
        let setup = small_setup();
        let mut jobs: Vec<Job> = jobs()
            .into_iter()
            .filter(|j| ["hmmer", "spectre-v1"].contains(&j.name()) || matches!(j, Job::Cross(_)))
            .take(3)
            .collect();
        let first = digests(&setup, &jobs, false);
        jobs.reverse();
        let reversed = digests(&setup, &jobs, true);
        assert_eq!(combine(&first), combine(&reversed));
        let distinct: std::collections::BTreeSet<u64> = first.iter().map(|(_, d)| *d).collect();
        assert_eq!(distinct.len(), first.len(), "every job has its own digest");
    }
}
