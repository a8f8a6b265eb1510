//! FNV-1a digests over what the collection chain produces: every sampled
//! statistic row and every verdict. A change that only makes the chain
//! faster leaves the simulated statistics, and so the digest, identical.

use perspectron::IntervalVerdict;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a folded over 64-bit words (a row of `f64` statistics is folded
/// by bit pattern, one word per value).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(OFFSET)
    }
}

impl Fnv64 {
    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// Folds a byte string, length first so adjacent strings cannot
    /// alias.
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for &x in b {
            self.word(u64::from(x));
        }
    }

    /// Folds one sampled row: its instruction count, then every value.
    pub fn row(&mut self, at_inst: u64, row: &[f64]) {
        self.word(at_inst);
        self.word(row.len() as u64);
        for &v in row {
            self.word(v.to_bits());
        }
    }

    /// Folds one verdict, bit-exactly.
    pub fn verdict(&mut self, v: &IntervalVerdict) {
        self.word(v.at_inst);
        self.word(v.confidence.to_bits());
        self.word(u64::from(v.suspicious));
        match &v.degraded {
            None => self.word(0),
            Some(d) => {
                self.word(1);
                self.word(d.sanitized_values as u64);
                for c in &d.missing_components {
                    self.bytes(c.as_bytes());
                }
            }
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Combines per-job digests into one value that does not depend on the
/// order the jobs ran in: jobs are folded sorted by name.
pub fn combine(jobs: &[(String, u64)]) -> u64 {
    let mut sorted: Vec<&(String, u64)> = jobs.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h = Fnv64::default();
    for (name, d) in sorted {
        h.bytes(name.as_bytes());
        h.word(*d);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perspectron::Degraded;

    fn verdict(at: u64, confidence: f64) -> IntervalVerdict {
        IntervalVerdict {
            at_inst: at,
            confidence,
            suspicious: confidence >= 0.0,
            degraded: None,
        }
    }

    #[test]
    fn combined_digest_ignores_job_order() {
        let a = vec![("mcf".to_string(), 1), ("spectre".to_string(), 2)];
        let b = vec![("spectre".to_string(), 2), ("mcf".to_string(), 1)];
        assert_eq!(combine(&a), combine(&b));
        let c = vec![("mcf".to_string(), 2), ("spectre".to_string(), 1)];
        assert_ne!(combine(&a), combine(&c), "digests stay bound to their job");
    }

    #[test]
    fn digest_repeats_for_equal_input_and_moves_on_any_bit() {
        let rows: [[f64; 3]; 2] = [[1.0, 2.0, 0.5], [0.0, -3.0, 7.25]];
        let run = |flip: bool| {
            let mut h = Fnv64::default();
            for (j, r) in rows.iter().enumerate() {
                let mut r = *r;
                if flip && j == 1 {
                    r[2] = f64::from_bits(r[2].to_bits() ^ 1);
                }
                h.row(10_000 * (j as u64 + 1), &r);
                h.verdict(&verdict(10_000 * (j as u64 + 1), 0.25));
            }
            h.finish()
        };
        assert_eq!(run(false), run(false));
        assert_ne!(run(false), run(true));
    }

    #[test]
    fn verdict_digest_sees_confidence_bits_and_degradation() {
        let base = verdict(5, 0.5);
        let digest = |v: &IntervalVerdict| {
            let mut h = Fnv64::default();
            h.verdict(v);
            h.finish()
        };
        let mut nudged = base.clone();
        nudged.confidence = f64::from_bits(base.confidence.to_bits() + 1);
        assert_ne!(digest(&base), digest(&nudged));
        let mut degraded = base.clone();
        degraded.degraded = Some(Degraded {
            missing_components: vec!["dcache".to_string()],
            sanitized_values: 0,
        });
        assert_ne!(digest(&base), digest(&degraded));
    }
}
