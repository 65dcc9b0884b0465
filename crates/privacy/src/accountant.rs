//! Rényi-DP accounting for the subsampled Gaussian mechanism.
//!
//! Differentially-private FL needs to answer "after `T` rounds with noise
//! multiplier `z` and client sampling rate `q`, what (ε, δ) have we spent?".
//! This module implements the standard moments-accountant style answer:
//!
//! 1. the per-round Rényi divergence bound of the subsampled Gaussian
//!    mechanism at order `α` (the leading-order bound of Abadi et al. 2016,
//!    `q²·α / ((1-q)·z²)`, exact `α/(2z²)` when every client participates),
//! 2. linear composition of the per-round bound over rounds,
//! 3. conversion of the composed Rényi bound to an (ε, δ) guarantee by
//!    minimising `rdp(α) + log(1/δ)/(α-1)` over a grid of orders.
//!
//! The bound is the *leading-order* subsampling amplification term, which is
//! the regime (small `q`, `z ≳ 1`) the benchmark harness sweeps;
//! docs/DESIGN.md §4 records this as the accountant's scope.

use serde::{Deserialize, Serialize};

/// Orders α over which the RDP → (ε, δ) conversion is minimised.
const DEFAULT_ORDERS: &[f64] = &[
    1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 32.0,
    48.0, 64.0, 96.0, 128.0, 256.0, 512.0,
];

/// Tracks the Rényi-DP budget spent by a subsampled Gaussian training run.
///
/// The accountant composes **per-round** contributions: every recorded round
/// adds its Rényi divergence bound — evaluated at that round's *actual*
/// sampling rate — to a per-order spent-budget vector. The configured
/// `sampling_rate` is only the schedule's nominal rate (used by [`step`] and
/// the hypothetical projections [`epsilon_after`] /
/// [`rounds_until_budget`]); rounds where availability dropout reduced the
/// participant count should be recorded with [`step_with_rate`], so the
/// reported ε reflects what actually ran rather than the first round's
/// frozen `K / N`.
///
/// [`step`]: RdpAccountant::step
/// [`step_with_rate`]: RdpAccountant::step_with_rate
/// [`epsilon_after`]: RdpAccountant::epsilon_after
/// [`rounds_until_budget`]: RdpAccountant::rounds_until_budget
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RdpAccountant {
    noise_multiplier: f64,
    sampling_rate: f64,
    rounds: u64,
    /// Accumulated Rényi divergence per order, aligned with
    /// [`RdpAccountant::orders`].
    spent_rdp: Vec<f64>,
}

impl RdpAccountant {
    /// Creates an accountant for a schedule with the given noise multiplier
    /// `z` (noise std divided by sensitivity) and nominal per-round client
    /// sampling rate `q = K / N`.
    ///
    /// # Panics
    /// Panics if the sampling rate lies outside `(0, 1]` or the noise
    /// multiplier is negative.
    pub fn new(noise_multiplier: f32, sampling_rate: f32) -> Self {
        assert!(
            sampling_rate > 0.0 && sampling_rate <= 1.0,
            "sampling rate must lie in (0, 1]"
        );
        assert!(noise_multiplier >= 0.0, "noise multiplier must be >= 0");
        Self {
            noise_multiplier: noise_multiplier as f64,
            sampling_rate: sampling_rate as f64,
            rounds: 0,
            spent_rdp: vec![0.0; DEFAULT_ORDERS.len()],
        }
    }

    /// Reconstructs an accountant from a checkpointed spent-budget record.
    /// The composition is a running f64 sum, so restoring the exact bits and
    /// continuing reproduces the uninterrupted accountant bitwise.
    ///
    /// # Errors
    /// Rejects (with a message) a spent vector whose length does not match
    /// the order grid, or configuration values outside the constructor's
    /// domain — a checkpoint corrupted into an invalid accountant must not
    /// restore.
    pub fn restore(
        noise_multiplier: f64,
        sampling_rate: f64,
        rounds: u64,
        spent_rdp: Vec<f64>,
    ) -> Result<Self, String> {
        if !(sampling_rate > 0.0 && sampling_rate <= 1.0) {
            return Err(format!("sampling rate {sampling_rate} outside (0, 1]"));
        }
        if noise_multiplier.is_nan() || noise_multiplier < 0.0 {
            return Err(format!("invalid noise multiplier {noise_multiplier}"));
        }
        if spent_rdp.len() != DEFAULT_ORDERS.len() {
            return Err(format!(
                "spent-budget record has {} orders, this build uses {}",
                spent_rdp.len(),
                DEFAULT_ORDERS.len()
            ));
        }
        if spent_rdp.iter().any(|v| v.is_nan() || *v < 0.0) {
            return Err("spent-budget record contains a negative or NaN entry".to_string());
        }
        Ok(Self {
            noise_multiplier,
            sampling_rate,
            rounds,
            spent_rdp,
        })
    }

    /// Number of rounds recorded so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The nominal sampling rate the accountant was configured with.
    pub fn sampling_rate(&self) -> f64 {
        self.sampling_rate
    }

    /// The configured noise multiplier.
    pub fn noise_multiplier(&self) -> f64 {
        self.noise_multiplier
    }

    /// The accumulated Rényi divergence per order (aligned with
    /// [`RdpAccountant::orders`]) — the spent-budget record a checkpoint
    /// persists and [`RdpAccountant::restore`] accepts back.
    pub fn spent_rdp(&self) -> &[f64] {
        &self.spent_rdp
    }

    /// The order grid ε is minimised over.
    pub fn orders() -> &'static [f64] {
        DEFAULT_ORDERS
    }

    /// Records one completed round at the nominal sampling rate.
    pub fn step(&mut self) {
        self.step_with_rate(self.sampling_rate);
    }

    /// Records one completed round whose **actual** sampling rate was `q`
    /// (returned participants over federation size). Dropout rounds compose
    /// a smaller per-round bound than the nominal schedule; over-nominal
    /// participation composes a larger one — either way ε reports the run
    /// that happened.
    ///
    /// # Panics
    /// Panics if `q` lies outside `(0, 1]`. A round with zero participants
    /// performs no release and must simply not be recorded.
    pub fn step_with_rate(&mut self, q: f64) {
        assert!(q > 0.0 && q <= 1.0, "sampling rate must lie in (0, 1]");
        let z = self.noise_multiplier;
        for (spent, &alpha) in self.spent_rdp.iter_mut().zip(DEFAULT_ORDERS) {
            *spent += Self::rdp_once(z, alpha, q);
        }
        self.rounds += 1;
    }

    /// Records `rounds` completed rounds at the nominal sampling rate.
    pub fn step_many(&mut self, rounds: u64) {
        let (z, q) = (self.noise_multiplier, self.sampling_rate);
        for (spent, &alpha) in self.spent_rdp.iter_mut().zip(DEFAULT_ORDERS) {
            *spent += rounds as f64 * Self::rdp_once(z, alpha, q);
        }
        self.rounds += rounds;
    }

    /// One round's Rényi divergence bound at order `alpha` and sampling
    /// rate `q` under noise multiplier `z`.
    fn rdp_once(z: f64, alpha: f64, q: f64) -> f64 {
        if z == 0.0 {
            return f64::INFINITY;
        }
        let z2 = z * z;
        if (q - 1.0).abs() < 1e-12 {
            // Plain Gaussian mechanism: ε(α) = α / (2 z²).
            alpha / (2.0 * z2)
        } else {
            // Leading-order subsampled-Gaussian bound (moments accountant):
            // ε(α) ≤ q² α / ((1 - q) z²).
            q * q * alpha / ((1.0 - q) * z2)
        }
    }

    /// The (ε, δ) guarantee spent by the recorded rounds, composed from each
    /// round's actual sampling rate.
    pub fn epsilon(&self, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
        if self.rounds == 0 {
            return 0.0;
        }
        let log_inv_delta = (1.0 / delta).ln();
        self.spent_rdp
            .iter()
            .zip(DEFAULT_ORDERS)
            .map(|(&spent, &alpha)| spent + log_inv_delta / (alpha - 1.0))
            .fold(f64::INFINITY, f64::min)
    }

    /// The hypothetical (ε, δ) guarantee after `rounds` rounds at the
    /// **nominal** sampling rate (without mutating the accountant),
    /// minimised over the default order grid. A projection for schedule
    /// planning — the authoritative spent budget is [`RdpAccountant::epsilon`].
    pub fn epsilon_after(&self, rounds: u64, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
        if rounds == 0 {
            return 0.0;
        }
        if self.noise_multiplier == 0.0 {
            return f64::INFINITY;
        }
        let log_inv_delta = (1.0 / delta).ln();
        DEFAULT_ORDERS
            .iter()
            .map(|&alpha| {
                let total_rdp =
                    rounds as f64 * Self::rdp_once(self.noise_multiplier, alpha, self.sampling_rate);
                total_rdp + log_inv_delta / (alpha - 1.0)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The smallest number of rounds after which the (ε, δ) budget is
    /// exceeded, or `None` if `max_rounds` rounds stay within budget.
    pub fn rounds_until_budget(&self, epsilon: f64, delta: f64, max_rounds: u64) -> Option<u64> {
        (1..=max_rounds).find(|&t| self.epsilon_after(t, delta) > epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rounds_spend_nothing() {
        let accountant = RdpAccountant::new(1.0, 0.1);
        assert_eq!(accountant.epsilon(1e-5), 0.0);
        assert_eq!(accountant.rounds(), 0);
    }

    #[test]
    fn epsilon_grows_with_rounds() {
        let accountant = RdpAccountant::new(1.1, 0.1);
        let e10 = accountant.epsilon_after(10, 1e-5);
        let e100 = accountant.epsilon_after(100, 1e-5);
        let e1000 = accountant.epsilon_after(1000, 1e-5);
        assert!(e10 > 0.0);
        assert!(e100 > e10);
        assert!(e1000 > e100);
        assert!(e1000.is_finite());
    }

    #[test]
    fn epsilon_shrinks_with_more_noise() {
        let low_noise = RdpAccountant::new(0.8, 0.1).epsilon_after(200, 1e-5);
        let high_noise = RdpAccountant::new(2.0, 0.1).epsilon_after(200, 1e-5);
        assert!(high_noise < low_noise);
    }

    #[test]
    fn epsilon_shrinks_with_smaller_sampling_rate() {
        let dense = RdpAccountant::new(1.1, 0.5).epsilon_after(200, 1e-5);
        let sparse = RdpAccountant::new(1.1, 0.05).epsilon_after(200, 1e-5);
        assert!(sparse < dense);
    }

    #[test]
    fn no_noise_means_infinite_epsilon() {
        let accountant = RdpAccountant::new(0.0, 0.1);
        assert!(accountant.epsilon_after(1, 1e-5).is_infinite());
    }

    #[test]
    fn full_participation_uses_the_plain_gaussian_bound() {
        // With q = 1 and one round, ε ≈ min_α α/(2z²) + log(1/δ)/(α-1),
        // which for z = 4 and δ = 1e-5 is well below the q→1 limit of the
        // subsampled formula (which would diverge).
        let accountant = RdpAccountant::new(4.0, 1.0);
        let eps = accountant.epsilon_after(1, 1e-5);
        assert!(eps.is_finite() && eps > 0.0);
        assert!(eps < 5.0, "one round of z=4 should be modest, got {eps}");
    }

    #[test]
    fn moments_accountant_magnitude_is_reasonable() {
        // z = 1.1, q = 0.01, T = 1000, δ = 1e-5: the literature reports ε in
        // the low single digits; the leading-order bound lands close to 2.
        let eps = RdpAccountant::new(1.1, 0.01).epsilon_after(1000, 1e-5);
        assert!(eps > 0.5 && eps < 4.0, "unexpected epsilon {eps}");
    }

    #[test]
    fn stepping_matches_epsilon_after() {
        let mut accountant = RdpAccountant::new(1.0, 0.2);
        for _ in 0..25 {
            accountant.step();
        }
        accountant.step_many(25);
        assert_eq!(accountant.rounds(), 50);
        let via_steps = accountant.epsilon(1e-6);
        let direct = accountant.epsilon_after(50, 1e-6);
        assert!((via_steps - direct).abs() < 1e-12);
    }

    #[test]
    fn rounds_until_budget_finds_the_crossing() {
        let accountant = RdpAccountant::new(1.0, 0.1);
        let budget = accountant.epsilon_after(100, 1e-5);
        let crossing = accountant
            .rounds_until_budget(budget, 1e-5, 500)
            .expect("budget must be exceeded within 500 rounds");
        assert!(crossing > 100 && crossing <= 500);
        assert!(accountant.rounds_until_budget(f64::INFINITY, 1e-5, 50).is_none());
    }

    #[test]
    fn dropout_rounds_spend_less_than_the_nominal_rate() {
        // 50 nominal-rate rounds vs 50 rounds where dropout halved the
        // participant count: the dropout run must report a smaller ε, and
        // mixing actual rates must land between the two pure schedules.
        let nominal = 0.4f64;
        let mut full = RdpAccountant::new(1.0, nominal as f32);
        let mut halved = RdpAccountant::new(1.0, nominal as f32);
        let mut mixed = RdpAccountant::new(1.0, nominal as f32);
        for round in 0..50 {
            full.step();
            halved.step_with_rate(nominal / 2.0);
            mixed.step_with_rate(if round % 2 == 0 { nominal } else { nominal / 2.0 });
        }
        let (e_full, e_half, e_mix) =
            (full.epsilon(1e-5), halved.epsilon(1e-5), mixed.epsilon(1e-5));
        assert!(e_half < e_mix && e_mix < e_full, "{e_half} / {e_mix} / {e_full}");
        // The frozen-rate bug this guards against: stepping at the nominal
        // rate regardless of participation reports e_full for all three.
        assert_eq!(full.rounds(), 50);
    }

    #[test]
    fn step_with_full_participation_uses_the_plain_gaussian_bound() {
        let mut actual = RdpAccountant::new(2.0, 0.5);
        actual.step_with_rate(1.0);
        let reference = RdpAccountant::new(2.0, 1.0).epsilon_after(1, 1e-5);
        assert_eq!(actual.epsilon(1e-5), reference);
    }

    #[test]
    fn restore_reproduces_the_spent_budget_bitwise() {
        let mut original = RdpAccountant::new(1.1, 0.3);
        for round in 0..37 {
            original.step_with_rate(0.05 + 0.01 * (round % 7) as f64);
        }
        let restored = RdpAccountant::restore(
            original.noise_multiplier(),
            original.sampling_rate(),
            original.rounds(),
            original.spent_rdp().to_vec(),
        )
        .expect("valid record restores");
        assert_eq!(restored.rounds(), original.rounds());
        assert_eq!(
            restored.epsilon(1e-5).to_bits(),
            original.epsilon(1e-5).to_bits(),
            "restored epsilon must match bitwise"
        );
        // Continuing both accountants keeps them identical.
        let mut a = original.clone();
        let mut b = restored;
        a.step_with_rate(0.11);
        b.step_with_rate(0.11);
        assert_eq!(a.epsilon(1e-6).to_bits(), b.epsilon(1e-6).to_bits());
    }

    #[test]
    fn restore_rejects_malformed_records() {
        assert!(RdpAccountant::restore(1.0, 0.0, 1, vec![0.0; DEFAULT_ORDERS.len()]).is_err());
        assert!(RdpAccountant::restore(-1.0, 0.5, 1, vec![0.0; DEFAULT_ORDERS.len()]).is_err());
        assert!(RdpAccountant::restore(1.0, 0.5, 1, vec![0.0; 3]).is_err(), "order-grid mismatch");
        let mut bad = vec![0.0; DEFAULT_ORDERS.len()];
        bad[0] = -1.0;
        assert!(RdpAccountant::restore(1.0, 0.5, 1, bad.clone()).is_err());
        bad[0] = f64::NAN;
        assert!(RdpAccountant::restore(1.0, 0.5, 1, bad).is_err());
        assert_eq!(RdpAccountant::orders(), DEFAULT_ORDERS);
    }

    #[test]
    #[should_panic]
    fn zero_participation_step_is_rejected() {
        RdpAccountant::new(1.0, 0.5).step_with_rate(0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_sampling_rate_is_rejected() {
        let _ = RdpAccountant::new(1.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_delta_is_rejected() {
        let _ = RdpAccountant::new(1.0, 0.5).epsilon_after(1, 1.5);
    }
}
