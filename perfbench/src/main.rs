//! `perfbench --workload <live|fleet_paced> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Sets up [`SETUPS`] times, runs the workload for about `--seconds`,
//! checks its outputs, and prints a readable report followed by one JSON
//! result line. With `--trace 0` that line holds the end-to-end metrics;
//! with `--trace 1` it holds the per-layer metrics taken from spans, and
//! the spans are written under `perfbench/out/`. A failed check prints a
//! result line without numbers and exits with code 1.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::fleet::{self, Segment};
use perfbench::live::{self, Pass};
use perfbench::report::{failure_line, result_line, Metrics};
use perfbench::setup;
use perfbench::spans::{Layer, Tracer};
use perfbench::stats::{self, median};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <live|fleet_paced> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["live", "fleet_paced"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A run that cannot report numbers.
struct Failure {
    why: String,
    attempted: u64,
    failed: u64,
}

impl From<String> for Failure {
    fn from(why: String) -> Self {
        Self {
            why,
            attempted: 1,
            failed: 1,
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn layer(layers: &std::collections::BTreeMap<&str, Layer>, name: &str) -> Layer {
    layers.get(name).copied().unwrap_or_default()
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Prints the reconciliation of a root span: the self time of each layer
/// span below it as a share of its wall time, and the share no layer
/// covers. Returns that unattributed share.
fn reconcile(layers: &std::collections::BTreeMap<&str, Layer>, root: &str, chain: &[&str]) -> f64 {
    let r = layer(layers, root);
    let wall = r.total_ns as f64;
    let parts: Vec<String> = chain
        .iter()
        .map(|n| {
            format!(
                "{n} {:.2}%",
                100.0 * share(layer(layers, n).self_ns as f64, wall)
            )
        })
        .collect();
    let unattributed = share(r.self_ns as f64, wall);
    println!(
        "  ledger {root}: wall {:.4} s = {}, unattributed {:.2}%",
        wall * 1e-9,
        parts.join(" + "),
        unattributed * 100.0
    );
    unattributed
}

fn live_report(
    args: &Args,
    passes: &[Pass],
    tr: &Tracer,
    m: &mut Metrics,
) -> Result<(u64, u64), Failure> {
    let attempted: u64 = passes.iter().map(|p| p.jobs).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    for (i, p) in passes.iter().enumerate() {
        if p.digest != live::EXPECTED_DIGEST {
            return Err(Failure {
                why: format!(
                    "pass {i}: digest {:#018x}, expected {:#018x}",
                    p.digest,
                    live::EXPECTED_DIGEST
                ),
                attempted,
                failed: failed.max(1),
            });
        }
    }
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let sum = |ps: &[&Pass], f: fn(&Pass) -> f64| ps.iter().map(|p| f(p)).sum::<f64>();
    let mut latencies: Vec<f64> = plain.iter().flat_map(|p| p.latencies_ns.clone()).collect();
    latencies.sort_by(f64::total_cmp);
    let (p50, p99) = stats::median_and_tail(&latencies, 0.99)
        .ok_or("too few windows for a latency tail".to_string())?;
    m.set(
        "sim_insts_per_s",
        sum(&plain, |p| p.insts as f64) / sum(&plain, |p| p.chain_s),
    );
    m.set(
        "sim_insts_per_s_2core",
        sum(&plain, |p| p.insts_2core as f64) / sum(&plain, |p| p.chain_2core_s),
    );
    m.set(
        "windows_per_s",
        sum(&plain, |p| p.windows as f64) / sum(&plain, |p| p.wall_s),
    );
    m.set_noted("latency_p50_us", p50.value * 1e-3, format!("n={}", p50.n));
    m.set_noted(
        "latency_p99_us",
        p99.value * 1e-3,
        format!("q={:.4} n={}", p99.q, p99.n),
    );
    m.set_noted(
        "failed_share",
        share(failed as f64, attempted as f64),
        "failed jobs / jobs".to_string(),
    );
    println!(
        "live: {} passes ({} traced) of {} jobs, digest {:#018x} as recorded",
        passes.len(),
        passes.len() - plain.len(),
        passes[0].jobs,
        passes[0].digest
    );
    if args.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let n = traced.len() as f64;
        let layers = tr.layers();
        m.set(
            "sim.self_s",
            layer(&layers, "sim.try_stream_trace").self_ns as f64 * 1e-9 / n,
        );
        m.set(
            "sim.self_s_2core",
            layer(&layers, "sim.run_with_sink").self_ns as f64 * 1e-9 / n,
        );
        let detect =
            layer(&layers, "stream.on_sample").total_ns + layer(&layers, "stream.flush").total_ns;
        m.set(
            "stream.detect_ns_per_window",
            detect as f64 / sum(&traced, |p| p.windows as f64),
        );
        let cost =
            |ps: &[&Pass]| sum(ps, |p| p.wall_s) / sum(ps, |p| (p.insts + p.insts_2core) as f64);
        m.set("tracing.overhead_share", cost(&traced) / cost(&plain) - 1.0);
        m.set(
            "ledger.unattributed_share",
            reconcile(
                &layers,
                "live.pass",
                &[
                    "sim.try_stream_trace",
                    "sim.machine_new",
                    "sim.run_with_sink",
                    "digest.row",
                    "stream.on_sample",
                    "stream.flush",
                    "digest.verdicts",
                ],
            ),
        );
    }
    Ok((attempted, failed))
}

fn fleet_report(
    args: &Args,
    segments: &[Segment],
    tr: &Tracer,
    m: &mut Metrics,
) -> Result<(u64, u64), Failure> {
    let attempted: u64 = segments.iter().map(|s| s.due).sum();
    let failed: u64 = segments.iter().map(|s| s.failed).sum();
    if failed == 0 {
        // Same seed, same schedule, same rows: the counts must repeat.
        let first = (
            segments[0].degraded_windows,
            segments[0].quarantined_streams,
        );
        if let Some(s) = segments
            .iter()
            .find(|s| (s.degraded_windows, s.quarantined_streams) != first)
        {
            return Err(Failure {
                why: format!(
                    "degraded/quarantine counts {:?} and {:?} differ between segments",
                    first,
                    (s.degraded_windows, s.quarantined_streams)
                ),
                attempted,
                failed,
            });
        }
    }
    for (i, s) in segments.iter().enumerate() {
        let (p50, p99) = stats::binned_median_and_tail(&s.latencies_us, 0.99)
            .expect("a segment scores thousands of windows");
        println!(
            "  segment {i}{}: due {} failed {} scored {} in {:.4} s, {:.1} windows/sweep, \
             latency p50 {:.1} us p99 {:.1} us, max {} us",
            if s.traced { " (traced)" } else { "" },
            s.due,
            s.failed,
            s.scored,
            s.wall_s,
            share(s.scored as f64, s.sweeps as f64),
            p50.value,
            p99.value,
            s.latencies_us.last().copied().unwrap_or(0),
        );
    }
    let plain: Vec<&Segment> = segments.iter().filter(|s| !s.traced).collect();
    let med = |ss: &[&Segment], f: &dyn Fn(&Segment) -> f64| {
        median(&ss.iter().map(|s| f(s)).collect::<Vec<f64>>())
    };
    let quantiles = |s: &Segment| {
        stats::binned_median_and_tail(&s.latencies_us, 0.99)
            .expect("a segment scores thousands of windows")
    };
    m.set(
        "windows_per_s",
        med(&plain, &|s| s.scored as f64 / s.wall_s),
    );
    m.set("latency_p50_us", med(&plain, &|s| quantiles(s).0.value));
    let tail = quantiles(plain[0]).1;
    m.set_noted(
        "latency_p99_us",
        med(&plain, &|s| quantiles(s).1.value),
        format!(
            "median of segments; q={:.4} n={} per segment",
            tail.q, tail.n
        ),
    );
    let sum_of = |ss: &[&Segment], f: fn(&Segment) -> u64| ss.iter().map(|s| f(s)).sum::<u64>();
    m.set_noted(
        "failed_share",
        share(failed as f64, attempted as f64),
        "windows refused / windows due".to_string(),
    );
    m.set_noted(
        "slo_miss_share",
        share(
            sum_of(&plain, |s| s.slo_misses) as f64,
            sum_of(&plain, |s| s.due) as f64,
        ),
        format!(
            "refused, late or slow past {} us / due",
            fleet::SLO_LIMIT_US
        ),
    );
    m.set_noted(
        "service.degraded_windows",
        segments[0].degraded_windows as f64,
        "segment 0".to_string(),
    );
    m.set_noted(
        "service.quarantined_streams",
        segments[0].quarantined_streams as f64,
        "segment 0".to_string(),
    );
    println!(
        "{}: {} segments ({} traced) of {:.3} s, {} streams, {} shard(s), available_parallelism {}",
        args.workload,
        segments.len(),
        segments.len() - plain.len(),
        args.seconds / fleet::SEGMENTS as f64,
        fleet::STREAMS,
        fleet::shards(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if args.trace {
        let traced: Vec<&Segment> = segments.iter().filter(|s| s.traced).collect();
        let layers = tr.layers();
        let per = |l: Layer| share(l.total_ns as f64, l.count as f64);
        m.set(
            "service.msg_ns_per_window",
            per(layer(&layers, "service.msg")),
        );
        m.set(
            "service.submit_ns_per_window",
            per(layer(&layers, "service.try_submit")),
        );
        m.set(
            "service.windows_per_sweep",
            share(
                sum_of(&traced, |s| s.scored) as f64,
                sum_of(&traced, |s| s.sweeps) as f64,
            ),
        );
        m.set(
            "service.busy_per_window",
            share(
                sum_of(&traced, |s| s.busy) as f64,
                sum_of(&traced, |s| s.due) as f64,
            ),
        );
        m.set(
            "service.queue_p50_us",
            med(&traced, &|s| quantiles(s).0.value),
        );
        m.set(
            "service.bytes_retained_per_window",
            med(&traced, &|s| s.bytes_retained_per_window),
        );
        m.set("service.start_s", med(&traced, &|s| s.start_s));
        m.set("service.drain_s", med(&traced, &|s| s.drain_s));
        m.set("service.shutdown_s", med(&traced, &|s| s.shutdown_s));
        // The rate fixes the wall time, so tracing shows in the
        // generator's busy time per window.
        let unit_cost = |s: &Segment| s.gen_busy_s / s.due as f64;
        m.set(
            "tracing.overhead_share",
            med(&traced, &unit_cost) / med(&plain, &unit_cost) - 1.0,
        );
        let late = med(&plain, &|s| {
            let q = stats::supported_quantile(s.late_ns.len(), 0.99)
                .expect("a segment sends thousands of windows");
            stats::nearest_rank(&s.late_ns, q) * 1e-3
        });
        m.set("gen.late_p99_us", late);
        m.set(
            "ledger.unattributed_share",
            reconcile(
                &layers,
                "fleet.segment",
                &[
                    "gen.round",
                    "gen.wait",
                    "service.msg",
                    "service.try_submit",
                    "service.drain",
                ],
            ),
        );
    }
    Ok((attempted, failed))
}

fn run(args: &Args) -> Result<String, Failure> {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let mut tr = Tracer::new(args.trace);
    let mut walls = Vec::with_capacity(SETUPS);
    let mut rates = Vec::with_capacity(SETUPS);
    let mut rates_2core = Vec::with_capacity(SETUPS);
    let fleet = args.workload == "fleet_paced";
    // Set-ups and measurement alternate, so the measured part of a run is
    // spread over its whole length rather than one stretch of it.
    let per_setup_segments = fleet::SEGMENTS / SETUPS;
    let mut passes: Vec<Pass> = Vec::new();
    let mut segments: Vec<Segment> = Vec::new();
    let mut setup = None;
    for i in 0..SETUPS {
        drop(setup.take());
        tr.set_on(args.trace);
        let t = Instant::now();
        let s = setup::run(&mut tr, args.seed, fleet, &out)?;
        walls.push(t.elapsed().as_secs_f64());
        rates.push(s.collect_insts as f64 / s.collect_s);
        rates_2core.push(s.collect_insts_2core as f64 / s.collect_2core_s);
        if fleet {
            segments.extend(fleet::run(
                &s,
                &mut tr,
                args.seconds / fleet::SEGMENTS as f64,
                args.seed,
                i * per_setup_segments..(i + 1) * per_setup_segments,
                args.trace,
            )?);
        } else {
            passes.extend(live::run(
                &s,
                &mut tr,
                args.seconds / SETUPS as f64,
                args.seed,
                passes.len() as u64,
                args.trace,
            ));
        }
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let mut m = Metrics::default();
    m.set_noted(
        "setup_s",
        median(&walls),
        format!("median of {SETUPS}: {walls:.3?}"),
    );
    // Overwritten by `live`, which measures the simulator directly.
    m.set("sim_insts_per_s", median(&rates));
    m.set("sim_insts_per_s_2core", median(&rates_2core));
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (attempted, failed) = if fleet {
        fleet_report(args, &segments, &tr, &mut m)?
    } else {
        live_report(args, &passes, &tr, &mut m)?
    };
    m.set("rss_peak_mb", peak_rss_mb()?);
    if args.trace {
        let layers = tr.layers();
        let per_setup = |name: &str| layer(&layers, name).total_ns as f64 * 1e-9 / SETUPS as f64;
        for (metric, span) in [
            ("trace.collect_s", "trace.collect"),
            ("trace.collect_2core_s", "trace.collect_2core"),
            ("dataset.build_s", "dataset.build"),
            ("features.select_s", "features.select"),
            ("detector.fit_s", "detector.fit"),
            ("corpus_io.write_s", "corpus_io.write"),
        ] {
            m.set(metric, per_setup(span));
        }
        let rows: usize = (0..setup.replay.traces())
            .map(|t| setup.replay.len_of(t))
            .sum();
        m.set(
            "corpus_io.read_ns_per_row",
            per_setup("corpus_io.read") * 1e9 / rows as f64,
        );
        m.set(
            "setup.unattributed_share",
            reconcile(
                &layers,
                "setup",
                &[
                    "trace.collect",
                    "trace.collect_2core",
                    "dataset.build",
                    "features.select",
                    "detector.fit",
                    "faults.fault_corpus",
                    "corpus_io.write",
                    "corpus_io.read",
                ],
            ),
        );
        let stem = out.join(&args.workload);
        tr.write(&stem)
            .map_err(|e| format!("writing spans to {}: {e}", stem.display()))?;
    }
    print!("{}", m.table());
    result_line(attempted, failed, &m, args.trace).map_err(|why| Failure {
        why,
        attempted,
        failed,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!("perfbench: {}", f.why);
            println!("{}", failure_line(f.attempted, f.failed));
            ExitCode::FAILURE
        }
    }
}
