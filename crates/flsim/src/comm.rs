//! Communication accounting.
//!
//! Section IV-C3 of the paper compares methods by per-round payload: FedAvg,
//! FedProx, CluSamp and FedCross exchange `2K` models per round, SCAFFOLD
//! adds `2K` control variates of model size, FedGen adds `K` generator
//! downloads. [`CommTracker`] counts those scalars as they happen so the
//! Table I column can be *measured* rather than asserted.

use serde::{Deserialize, Serialize};

/// Qualitative communication-overhead class used in the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommOverheadClass {
    /// Only model parameters are exchanged (FedAvg-equivalent payload).
    Low,
    /// Auxiliary payload below one model-equivalent per client per round.
    Medium,
    /// Auxiliary payload of one model-equivalent or more per client per round.
    High,
}

impl std::fmt::Display for CommOverheadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CommOverheadClass::Low => "Low",
            CommOverheadClass::Medium => "Medium",
            CommOverheadClass::High => "High",
        };
        write!(f, "{s}")
    }
}

/// Counts scalars (f32 parameters) moved between the cloud server and clients.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommTracker {
    /// Scalars sent server → client as model parameters.
    pub model_download: u64,
    /// Scalars sent client → server as model parameters.
    pub model_upload: u64,
    /// Auxiliary scalars sent server → client (control variates, generators…).
    pub extra_download: u64,
    /// Auxiliary scalars sent client → server.
    pub extra_upload: u64,
    /// Number of rounds recorded.
    pub rounds: u64,
    /// Number of client contacts (one per dispatched model).
    pub client_contacts: u64,
}

impl CommTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the dispatch of a model of `params` scalars to one client and
    /// the upload of the trained version.
    pub fn record_model_roundtrip(&mut self, params: usize) {
        self.model_download += params as u64;
        self.model_upload += params as u64;
        self.client_contacts += 1;
    }

    /// Records auxiliary download payload (per client).
    pub fn record_extra_download(&mut self, scalars: usize) {
        self.extra_download += scalars as u64;
    }

    /// Records auxiliary upload payload (per client).
    pub fn record_extra_upload(&mut self, scalars: usize) {
        self.extra_upload += scalars as u64;
    }

    /// Marks the end of one communication round.
    pub fn end_round(&mut self) {
        self.rounds += 1;
    }

    /// Total scalars moved in either direction.
    pub fn total_scalars(&self) -> u64 {
        self.model_download + self.model_upload + self.extra_download + self.extra_upload
    }

    /// Total payload in mebibytes assuming 4-byte scalars.
    pub fn total_mib(&self) -> f64 {
        self.total_scalars() as f64 * 4.0 / (1024.0 * 1024.0)
    }

    /// Average auxiliary payload per client contact, measured in units of one
    /// model of `model_params` scalars.
    pub fn extra_models_per_contact(&self, model_params: usize) -> f64 {
        if self.client_contacts == 0 || model_params == 0 {
            return 0.0;
        }
        (self.extra_download + self.extra_upload) as f64
            / (self.client_contacts as f64 * model_params as f64)
    }

    /// Classifies the overhead the way Table I does.
    pub fn overhead_class(&self, model_params: usize) -> CommOverheadClass {
        let extra = self.extra_models_per_contact(model_params);
        if extra < 1e-9 {
            CommOverheadClass::Low
        } else if extra < 1.0 {
            CommOverheadClass::Medium
        } else {
            CommOverheadClass::High
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_roundtrips_accumulate() {
        let mut t = CommTracker::new();
        t.record_model_roundtrip(100);
        t.record_model_roundtrip(100);
        t.end_round();
        assert_eq!(t.model_download, 200);
        assert_eq!(t.model_upload, 200);
        assert_eq!(t.client_contacts, 2);
        assert_eq!(t.rounds, 1);
        assert_eq!(t.total_scalars(), 400);
    }

    #[test]
    fn pure_model_exchange_is_low_overhead() {
        let mut t = CommTracker::new();
        for _ in 0..10 {
            t.record_model_roundtrip(1000);
        }
        assert_eq!(t.overhead_class(1000), CommOverheadClass::Low);
    }

    #[test]
    fn control_variates_make_it_high_overhead() {
        // SCAFFOLD: one extra model-sized payload both ways per contact.
        let mut t = CommTracker::new();
        for _ in 0..5 {
            t.record_model_roundtrip(1000);
            t.record_extra_download(1000);
            t.record_extra_upload(1000);
        }
        assert_eq!(t.overhead_class(1000), CommOverheadClass::High);
        assert!(t.extra_models_per_contact(1000) >= 1.9);
    }

    #[test]
    fn small_generator_is_medium_overhead() {
        // FedGen: a generator ~10% of the model, download only.
        let mut t = CommTracker::new();
        for _ in 0..5 {
            t.record_model_roundtrip(1000);
            t.record_extra_download(100);
        }
        assert_eq!(t.overhead_class(1000), CommOverheadClass::Medium);
    }

    #[test]
    fn total_mib_uses_four_byte_scalars() {
        let mut t = CommTracker::new();
        t.record_model_roundtrip(1024 * 1024 / 8);
        // download + upload = 2 * 128Ki scalars = 1 MiB at 4 bytes each.
        assert!((t.total_mib() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_tracker_is_low_class_and_zero() {
        let t = CommTracker::new();
        assert_eq!(t.total_scalars(), 0);
        assert_eq!(t.overhead_class(100), CommOverheadClass::Low);
        assert_eq!(t.extra_models_per_contact(0), 0.0);
    }

    #[test]
    fn display_of_classes() {
        assert_eq!(CommOverheadClass::Low.to_string(), "Low");
        assert_eq!(CommOverheadClass::Medium.to_string(), "Medium");
        assert_eq!(CommOverheadClass::High.to_string(), "High");
    }
}
