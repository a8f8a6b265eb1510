//! What every workload sets up before it measures: the quick single-core
//! corpus and the quick cross-core corpus are collected, each trains a
//! detector, and the corpus the fleet replays goes to disk in the
//! columnar format and comes back one row at a time into memory.

use std::path::Path;
use std::time::Instant;

use perspectron::corpus_io::{self, CorpusReader};
use perspectron::faults::mix;
use perspectron::{
    CollectedCorpus, CorpusSpec, Dataset, Encoding, FaultPlan, FaultSpec, FeatureSelection,
    PerSpectron, ScenarioSpec, SelectionConfig,
};

use crate::spans::Tracer;

/// Instructions simulated per workload of the training corpus.
pub const CORPUS_INSTS: u64 = 150_000;

/// A corpus held in memory as the rows a fleet replays.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Columns per row.
    pub width: usize,
    /// Per trace: the committed-instruction count of every row.
    pub insts: Vec<Vec<u64>>,
    /// Per trace: every row, row-major.
    pub rows: Vec<Vec<f64>>,
}

impl Replay {
    /// Traces held.
    pub fn traces(&self) -> usize {
        self.insts.len()
    }

    /// Rows of trace `t`.
    pub fn len_of(&self, t: usize) -> usize {
        self.insts[t].len()
    }

    /// The `k`-th window of a stream that loops trace `t`: its row and
    /// its instruction count, which keeps growing across loops.
    pub fn window(&self, t: usize, k: usize) -> (u64, &[f64]) {
        let len = self.len_of(t);
        let j = k % len;
        let lap = (k / len) as u64 * self.insts[t][len - 1];
        (
            lap + self.insts[t][j],
            &self.rows[t][j * self.width..(j + 1) * self.width],
        )
    }
}

/// Everything a workload measures against.
#[derive(Debug)]
pub struct Setup {
    /// Detector trained on the single-core corpus.
    pub detector: PerSpectron,
    /// Detector trained on the two-core (cross-core scenario) corpus.
    pub detector_2core: PerSpectron,
    /// The rows the fleet workloads replay.
    pub replay: Replay,
    /// Instructions simulated collecting the single-core corpus.
    pub collect_insts: u64,
    /// Wall time of that collection.
    pub collect_s: f64,
    /// Instructions simulated collecting the two-core corpus.
    pub collect_insts_2core: u64,
    /// Wall time of that collection.
    pub collect_2core_s: f64,
}

/// The fault preset the paced fleet replays: 5% component dropout and 1%
/// value corruption, with its plan seed drawn from the run's seed.
pub fn light_faults(seed: u64) -> FaultSpec {
    FaultSpec {
        seed: mix(seed ^ 0x00fa_0175),
        component_dropout: 0.05,
        corruption: 0.01,
        ..FaultSpec::none()
    }
}

fn insts_of(corpus: &CollectedCorpus) -> u64 {
    corpus
        .traces
        .iter()
        .map(|t| t.trace.instruction_counts().last().copied().unwrap_or(0))
        .sum()
}

fn train(tr: &mut Tracer, corpus: &CollectedCorpus, id: u64) -> PerSpectron {
    let dataset = tr.span("dataset.build", id, |_| {
        Dataset::from_corpus(corpus, Encoding::KSparse)
    });
    let selection = tr.span("features.select", id, |_| {
        FeatureSelection::select(&dataset, &SelectionConfig::default())
    });
    tr.span("detector.fit", id, |_| {
        PerSpectron::train_with_selection(&dataset, selection)
    })
}

/// Sets up once. With `faults`, the replayed corpus holds every trace
/// twice: clean, then faulted with [`light_faults`]`(seed)`. The corpus file
/// goes to `dir` and is removed again.
pub fn run(tr: &mut Tracer, seed: u64, faults: bool, dir: &Path) -> Result<Setup, String> {
    let root = tr.enter("setup", seed);
    let t = Instant::now();
    let corpus = tr
        .span("trace.collect", 1, |_| {
            CorpusSpec::quick().with_insts(CORPUS_INSTS).try_collect()
        })
        .map_err(|e| format!("single-core corpus collection failed: {e}"))?;
    let collect_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let corpus_2core = tr
        .span("trace.collect_2core", 2, |_| {
            ScenarioSpec::cross_core_quick().try_collect()
        })
        .map_err(|e| format!("two-core corpus collection failed: {e}"))?;
    let collect_2core_s = t.elapsed().as_secs_f64();

    let detector = train(tr, &corpus, 1);
    let detector_2core = train(tr, &corpus_2core, 2);

    let mut replayed = corpus.clone();
    if faults {
        let faulted = tr.span("faults.fault_corpus", seed, |_| {
            FaultPlan::new(light_faults(seed), corpus.schema()).fault_corpus(&corpus)
        });
        replayed.traces.extend(faulted.traces);
    }
    let path = dir.join(format!("corpus-{}.pspc", std::process::id()));
    tr.span("corpus_io.write", 0, |_| {
        corpus_io::write_corpus(&path, &replayed)
    })
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let replay = tr.span("corpus_io.read", 0, |_| read_rows(&path));
    std::fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))?;
    let replay = replay?;
    tr.exit(root);
    Ok(Setup {
        detector,
        detector_2core,
        replay,
        collect_insts: insts_of(&corpus),
        collect_s,
        collect_insts_2core: insts_of(&corpus_2core),
        collect_2core_s,
    })
}

/// Loads every row of the corpus at `path` through
/// [`CorpusReader::read_row`].
fn read_rows(path: &Path) -> Result<Replay, String> {
    let reader = CorpusReader::open(path).map_err(|e| format!("opening corpus: {e}"))?;
    let width = reader.schema().len();
    let mut replay = Replay {
        width,
        insts: Vec::with_capacity(reader.n_traces()),
        rows: Vec::with_capacity(reader.n_traces()),
    };
    let mut row = Vec::with_capacity(width);
    for t in 0..reader.n_traces() {
        let n = reader.trace_meta(t).rows;
        let mut insts = Vec::with_capacity(n);
        let mut rows = Vec::with_capacity(n * width);
        for j in 0..n {
            insts.push(
                reader
                    .read_row(t, j, &mut row)
                    .map_err(|e| format!("reading row {j} of trace {t}: {e}"))?,
            );
            rows.extend_from_slice(&row);
        }
        if insts.is_empty() {
            return Err(format!("trace {t} has no rows"));
        }
        replay.insts.push(insts);
        replay.rows.push(rows);
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn looping_windows_keep_counting_instructions() {
        let r = Replay {
            width: 2,
            insts: vec![vec![10, 20, 30]],
            rows: vec![vec![1.0, 1.5, 2.0, 2.5, 3.0, 3.5]],
        };
        assert_eq!(r.window(0, 0), (10, &[1.0, 1.5][..]));
        assert_eq!(r.window(0, 2), (30, &[3.0, 3.5][..]));
        assert_eq!(r.window(0, 3), (40, &[1.0, 1.5][..]));
        assert_eq!(r.window(0, 7), (80, &[2.0, 2.5][..]));
    }
}
