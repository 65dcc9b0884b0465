//! The correctness gate every run must pass before any of its numbers are
//! reported.

use crate::run::RunOutcome;
use crate::workload::CLASSES;

/// Percentage points above chance (100 / classes) the final accuracy must
/// clear: a run that ends at or near chance has not learned, whatever it
/// printed.
pub const ACCURACY_MARGIN_PCT: f64 = 10.0;

/// The gate's findings for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds whose reported train loss is not finite.
    pub failed: u64,
    /// Every check that failed; empty when the run passed.
    pub failures: Vec<String>,
}

/// Checks a finished run:
///
/// * every reported loss (per-round train loss, evaluated test and train
///   loss) is finite;
/// * the final accuracy is above chance by [`ACCURACY_MARGIN_PCT`];
/// * the traffic is exactly one model download and one upload per selected
///   client per round, `2·K·d` scalars of 4 bytes — FedCross moves what
///   FedAvg moves;
/// * on a checkpointing run, the loaded state equals the saved state bit for
///   bit and the resumed history continues from the checkpoint round.
pub fn check(outcome: &RunOutcome, k: usize) -> Verdict {
    let mut failures = Vec::new();
    let attempted = outcome.log.len() as u64;
    let bad_rounds: Vec<usize> = outcome
        .log
        .iter()
        .filter(|r| !r.train_loss.is_finite())
        .map(|r| r.round)
        .collect();
    if let Some(first) = bad_rounds.first() {
        failures.push(format!(
            "{} of {attempted} rounds reported a non-finite train loss (first: round {first})",
            bad_rounds.len()
        ));
    }
    if outcome.log.len() != outcome.rounds {
        failures.push(format!(
            "{} rounds ran, {} were configured",
            outcome.log.len(),
            outcome.rounds
        ));
    }
    if let Some(r) = outcome
        .history
        .records()
        .iter()
        .find(|r| !(r.test_loss.is_finite() && r.train_loss.is_finite()))
    {
        failures.push(format!(
            "evaluation at round {} reported a non-finite loss (test {}, train {})",
            r.round, r.test_loss, r.train_loss
        ));
    }
    match outcome.history.records().last() {
        None => failures.push("no evaluation was recorded".to_string()),
        Some(last) => {
            let acc = f64::from(last.accuracy) * 100.0;
            let floor = 100.0 / CLASSES as f64 + ACCURACY_MARGIN_PCT;
            if !acc.is_finite() || acc <= floor {
                failures.push(format!(
                    "final accuracy {acc:.2}% at round {} is not above chance by {ACCURACY_MARGIN_PCT} points (needs > {floor}%)",
                    last.round
                ));
            }
        }
    }
    let expected = 2 * (k * outcome.dim * outcome.rounds) as u64;
    let comm = &outcome.comm;
    if comm.total_scalars() != expected
        || comm.extra_download + comm.extra_upload != 0
        || comm.rounds != outcome.rounds as u64
    {
        failures.push(format!(
            "traffic {} scalars over {} rounds, expected exactly 2·K·d·rounds = {expected} over {}",
            comm.total_scalars(),
            comm.rounds,
            outcome.rounds
        ));
    }
    if let Some(ckpt) = &outcome.checkpoint {
        if !ckpt.state_bitwise_equal {
            failures.push(format!(
                "checkpoint at round {}: loaded state differs from the saved state",
                ckpt.round
            ));
        }
        if !ckpt.history_continues {
            failures.push(format!(
                "checkpoint at round {}: resumed history does not continue from it",
                ckpt.round
            ));
        }
    }
    Verdict {
        attempted,
        failed: bad_rounds.len() as u64,
        failures,
    }
}
