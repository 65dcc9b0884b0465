//! Learning-curve recording and summary statistics.
//!
//! Figures 5–9 of the paper are accuracy-vs-communication-round curves and
//! Table II/III report "mean ± std" accuracies; [`TrainingHistory`] captures
//! the raw series and provides those summaries.

/// One evaluated communication round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Communication round index (0-based).
    pub round: usize,
    /// Global-model test accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Global-model test loss.
    pub test_loss: f32,
    /// Mean client training loss reported this round.
    pub train_loss: f32,
}

/// The accuracy/loss series of one training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingHistory {
    records: Vec<RoundRecord>,
}

impl TrainingHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one evaluated round.
    pub fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// All recorded rounds in order.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The accuracy series as `(round, accuracy%)` pairs — the format of the
    /// paper's learning-curve figures.
    pub fn accuracy_curve(&self) -> Vec<(usize, f32)> {
        self.records
            .iter()
            .map(|r| (r.round, r.accuracy * 100.0))
            .collect()
    }

    /// Highest test accuracy observed, in `[0, 1]`.
    pub fn best_accuracy(&self) -> f32 {
        self.records
            .iter()
            .map(|r| r.accuracy)
            .fold(0.0, f32::max)
    }

    /// Test accuracy of the last evaluated round, in `[0, 1]`.
    pub fn final_accuracy(&self) -> f32 {
        self.records.last().map(|r| r.accuracy).unwrap_or(0.0)
    }

    /// The first round at which accuracy reached `target` (in `[0, 1]`), or
    /// `None` if it never did. Used for the paper's "rounds to reach the best
    /// baseline accuracy" comparison (Section IV-C3).
    pub fn rounds_to_reach(&self, target: f32) -> Option<usize> {
        self.records
            .iter()
            .find(|r| r.accuracy >= target)
            .map(|r| r.round)
    }

    /// Mean and sample standard deviation of accuracy (in percent) over the
    /// last `k` evaluations — the "x ± y" format of Tables II and III.
    pub fn mean_std_last(&self, k: usize) -> (f32, f32) {
        if self.records.is_empty() || k == 0 {
            return (0.0, 0.0);
        }
        let start = self.records.len().saturating_sub(k);
        let values: Vec<f32> = self.records[start..]
            .iter()
            .map(|r| r.accuracy * 100.0)
            .collect();
        let mean = values.iter().sum::<f32>() / values.len() as f32;
        let std = if values.len() < 2 {
            0.0
        } else {
            (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
                / (values.len() - 1) as f32)
                .sqrt()
        };
        (mean, std)
    }

    /// Largest absolute accuracy change between consecutive evaluations over
    /// the last `k` records — a simple fluctuation measure backing the
    /// paper's "FedCross converges with much smaller fluctuations" claim.
    pub fn max_fluctuation_last(&self, k: usize) -> f32 {
        if self.records.len() < 2 {
            return 0.0;
        }
        let start = self.records.len().saturating_sub(k.max(2));
        self.records[start..]
            .windows(2)
            .map(|w| (w[1].accuracy - w[0].accuracy).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, acc: f32) -> RoundRecord {
        RoundRecord {
            round,
            accuracy: acc,
            test_loss: 1.0 - acc,
            train_loss: 1.0 - acc,
        }
    }

    fn rising_history() -> TrainingHistory {
        let mut h = TrainingHistory::new();
        for (i, acc) in [0.1, 0.3, 0.45, 0.5, 0.52].iter().enumerate() {
            h.push(record(i, *acc));
        }
        h
    }

    #[test]
    fn basic_accessors() {
        let h = rising_history();
        assert_eq!(h.len(), 5);
        assert!(!h.is_empty());
        assert_eq!(h.records()[2].round, 2);
    }

    #[test]
    fn best_and_final_accuracy() {
        let mut h = rising_history();
        h.push(record(5, 0.40)); // dip at the end
        assert!((h.best_accuracy() - 0.52).abs() < 1e-6);
        assert!((h.final_accuracy() - 0.40).abs() < 1e-6);
    }

    #[test]
    fn empty_history_defaults() {
        let h = TrainingHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.best_accuracy(), 0.0);
        assert_eq!(h.final_accuracy(), 0.0);
        assert_eq!(h.rounds_to_reach(0.1), None);
        assert_eq!(h.mean_std_last(3), (0.0, 0.0));
        assert_eq!(h.max_fluctuation_last(3), 0.0);
    }

    #[test]
    fn rounds_to_reach_finds_first_crossing() {
        let h = rising_history();
        assert_eq!(h.rounds_to_reach(0.45), Some(2));
        assert_eq!(h.rounds_to_reach(0.30), Some(1));
        assert_eq!(h.rounds_to_reach(0.9), None);
    }

    #[test]
    fn accuracy_curve_is_in_percent() {
        let h = rising_history();
        let curve = h.accuracy_curve();
        assert_eq!(curve[0], (0, 10.0));
        assert_eq!(curve[4], (4, 52.0));
    }

    #[test]
    fn mean_std_last_matches_manual_computation() {
        let h = rising_history();
        let (mean, std) = h.mean_std_last(3);
        // Last three accuracies: 45%, 50%, 52%.
        assert!((mean - 49.0).abs() < 1e-4);
        assert!((std - 3.6055).abs() < 1e-2);
        // k larger than the history uses everything.
        let (mean_all, _) = h.mean_std_last(100);
        assert!((mean_all - 37.4).abs() < 1e-3);
    }

    #[test]
    fn fluctuation_measures_largest_jump() {
        let mut h = TrainingHistory::new();
        for (i, acc) in [0.2, 0.5, 0.45, 0.48].iter().enumerate() {
            h.push(record(i, *acc));
        }
        assert!((h.max_fluctuation_last(10) - 0.3).abs() < 1e-6);
        assert!((h.max_fluctuation_last(2) - 0.03).abs() < 1e-6);
    }
}
