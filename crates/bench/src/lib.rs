//! # fedcross-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! FedCross paper's evaluation (Section IV), plus Criterion micro-benchmarks
//! of the computational kernels.
//!
//! Each table/figure has a dedicated binary (see docs/DESIGN.md §6 for the
//! full index); all of them share the experiment plumbing in this library:
//!
//! * [`TaskSpec`] / [`ModelSpec`] — the dataset × model grid of Table II,
//! * [`ExperimentConfig`] — scale knobs (rounds, clients, participation) with
//!   a reduced default scale suitable for CPU-only runs and a `--full` flag
//!   that restores the paper-scale parameters,
//! * [`run_method`] — builds the task, the model template and the algorithm,
//!   runs the simulation and returns the learning curve,
//! * [`Args`] — a tiny dependency-free CLI parser shared by the binaries,
//! * [`report`] — fixed-width table printing and JSON result dumps.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod determinism;
pub mod report;

use fedcross::{build_algorithm, AlgorithmSpec, SelectionStrategy};
use fedcross_data::federated::{
    FederatedDataset, SynthCifar100Config, SynthCifar10Config, SynthFemnistConfig,
    SynthSent140Config, SynthShakespeareConfig,
};
use fedcross_data::synth::images::SynthImageConfig;
use fedcross_data::Heterogeneity;
use fedcross_flsim::engine::SimulationResult;
use fedcross_flsim::{LocalTrainConfig, Simulation, SimulationConfig};
use fedcross_nn::models::{
    cnn, lstm_classifier, resnet, vgg_lite, CnnConfig, LstmConfig, ResNetConfig, VggConfig,
};
use fedcross_nn::Model;
use fedcross_tensor::SeededRng;

/// Which benchmark task (dataset stand-in) to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskSpec {
    /// CIFAR-10 stand-in with the given heterogeneity.
    Cifar10(Heterogeneity),
    /// CIFAR-100 stand-in with the given heterogeneity.
    Cifar100(Heterogeneity),
    /// FEMNIST stand-in (naturally non-IID).
    Femnist,
    /// Shakespeare stand-in (naturally non-IID, next-character prediction).
    Shakespeare,
    /// Sent140 stand-in (naturally non-IID, binary sentiment).
    Sent140,
}

impl TaskSpec {
    /// Table-friendly label, e.g. `"CIFAR-10 (beta=0.1)"`.
    pub fn label(&self) -> String {
        match self {
            TaskSpec::Cifar10(h) => format!("CIFAR-10 ({})", h.label()),
            TaskSpec::Cifar100(h) => format!("CIFAR-100 ({})", h.label()),
            TaskSpec::Femnist => "FEMNIST".to_string(),
            TaskSpec::Shakespeare => "Shakespeare".to_string(),
            TaskSpec::Sent140 => "Sent140".to_string(),
        }
    }

    /// Whether this is one of the naturally non-IID LEAF stand-ins.
    pub fn is_text(&self) -> bool {
        matches!(self, TaskSpec::Shakespeare | TaskSpec::Sent140)
    }
}

/// Which model family to train (the rows of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// The FedAvg two-conv CNN.
    Cnn,
    /// ResNet-20 (CPU-scaled).
    ResNet20,
    /// VGG-16 style network (CPU-scaled).
    Vgg16,
    /// LSTM classifier (text tasks).
    Lstm,
}

impl ModelSpec {
    /// Table-friendly label.
    pub fn label(&self) -> &'static str {
        match self {
            ModelSpec::Cnn => "CNN",
            ModelSpec::ResNet20 => "ResNet-20",
            ModelSpec::Vgg16 => "VGG-16",
            ModelSpec::Lstm => "LSTM",
        }
    }
}

/// Scale knobs of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Total number of clients `|C|`.
    pub num_clients: usize,
    /// Clients participating per round `K`.
    pub clients_per_round: usize,
    /// Training samples generated per client.
    pub samples_per_client: usize,
    /// Held-out test samples.
    pub test_samples: usize,
    /// Communication rounds.
    pub rounds: usize,
    /// Evaluate the global model every `eval_every` rounds.
    pub eval_every: usize,
    /// Client-side local training settings.
    pub local: LocalTrainConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        // Reduced repro scale for CPU-only runs. It does not reproduce the
        // paper's orderings; docs/DESIGN.md §3 records what it does show.
        Self {
            num_clients: 20,
            clients_per_round: 4,
            samples_per_client: 40,
            test_samples: 200,
            rounds: 30,
            eval_every: 2,
            local: LocalTrainConfig {
                epochs: 2,
                batch_size: 10,
                lr: 0.05,
                momentum: 0.5,
                weight_decay: 0.0,
            },
            seed: 42,
        }
    }
}

impl ExperimentConfig {
    /// The paper-scale configuration (Section IV-A): 100 clients, 10%
    /// participation, batch 50, five local epochs, SGD(0.01, 0.5). Round
    /// counts remain per-figure and are set by each harness binary.
    pub fn paper_scale() -> Self {
        Self {
            num_clients: 100,
            clients_per_round: 10,
            samples_per_client: 500,
            test_samples: 2000,
            rounds: 2000,
            eval_every: 10,
            local: LocalTrainConfig::default(),
            seed: 42,
        }
    }

    /// A very small scale for smoke tests of the harness itself.
    pub fn smoke() -> Self {
        Self {
            num_clients: 6,
            clients_per_round: 3,
            samples_per_client: 15,
            test_samples: 40,
            rounds: 3,
            eval_every: 1,
            local: LocalTrainConfig {
                epochs: 1,
                batch_size: 8,
                lr: 0.05,
                momentum: 0.5,
                weight_decay: 0.0,
            },
            seed: 42,
        }
    }
}

/// Builds the federated dataset for a task at the configured scale.
///
/// The image stand-ins are deliberately *hardened* relative to the library
/// defaults (overlapping class prototypes, heavier pixel noise): at benchmark
/// scale the easy defaults saturate every method at 100% accuracy, which would
/// erase the between-method differences the paper's tables measure.
pub fn build_task(task: TaskSpec, config: &ExperimentConfig, seed: u64) -> FederatedDataset {
    let mut rng = SeededRng::new(seed);
    match task {
        TaskSpec::Cifar10(h) => FederatedDataset::synth_cifar10(
            &SynthCifar10Config {
                num_clients: config.num_clients,
                samples_per_client: config.samples_per_client,
                test_samples: config.test_samples,
                image: SynthImageConfig {
                    noise_std: 1.2,
                    class_distinctness: 0.35,
                    ..SynthImageConfig::cifar10()
                },
            },
            h,
            &mut rng,
        ),
        TaskSpec::Cifar100(h) => FederatedDataset::synth_cifar100(
            &SynthCifar100Config {
                num_clients: config.num_clients,
                samples_per_client: config.samples_per_client,
                test_samples: config.test_samples,
                image: SynthImageConfig {
                    noise_std: 1.0,
                    class_distinctness: 0.35,
                    ..SynthImageConfig::cifar100()
                },
            },
            h,
            &mut rng,
        ),
        TaskSpec::Femnist => FederatedDataset::synth_femnist(
            &SynthFemnistConfig {
                num_clients: config.num_clients,
                samples_per_client: config.samples_per_client,
                test_samples: config.test_samples,
                image: SynthImageConfig {
                    noise_std: 0.9,
                    class_distinctness: 0.45,
                    ..SynthImageConfig::femnist()
                },
                ..Default::default()
            },
            &mut rng,
        ),
        TaskSpec::Shakespeare => FederatedDataset::synth_shakespeare(
            &SynthShakespeareConfig {
                num_clients: config.num_clients,
                samples_per_client: config.samples_per_client,
                test_samples: config.test_samples,
                ..Default::default()
            },
            &mut rng,
        ),
        TaskSpec::Sent140 => FederatedDataset::synth_sent140(
            &SynthSent140Config {
                num_clients: config.num_clients,
                samples_per_client: config.samples_per_client,
                test_samples: config.test_samples,
                ..Default::default()
            },
            &mut rng,
        ),
    }
}

/// Builds the model template matching a task and model family.
///
/// # Panics
/// Panics if the model family does not fit the task (e.g. an image CNN on a
/// text task).
pub fn build_model(
    model: ModelSpec,
    data: &FederatedDataset,
    seed: u64,
) -> Box<dyn Model> {
    let mut rng = SeededRng::new(seed);
    let classes = data.num_classes();
    let dims = data.test_set().sample_dims().to_vec();
    match model {
        ModelSpec::Lstm => {
            assert_eq!(dims.len(), 1, "LSTM expects [seq_len] samples");
            // The vocabulary is the class space for next-char prediction; for
            // sentiment the tokens range over the generator's vocabulary (64).
            let vocab = classes.max(64);
            lstm_classifier(
                LstmConfig {
                    vocab,
                    embed_dim: 16,
                    hidden_dim: 32,
                },
                classes,
                &mut rng,
            )
        }
        image_model => {
            assert_eq!(dims.len(), 3, "image models expect [C, H, W] samples");
            let shape = (dims[0], dims[1], dims[2]);
            match image_model {
                ModelSpec::Cnn => cnn(shape, classes, CnnConfig::default(), &mut rng),
                ModelSpec::ResNet20 => resnet(shape, classes, ResNetConfig::default(), &mut rng),
                ModelSpec::Vgg16 => vgg_lite(shape, classes, VggConfig::default(), &mut rng),
                ModelSpec::Lstm => unreachable!(),
            }
        }
    }
}

/// One completed experiment: which method, on what, and its learning curve.
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// Method label ("FedAvg", "FedCross", ...).
    pub method: String,
    /// Task label.
    pub task: String,
    /// Model label.
    pub model: String,
    /// The simulation result (learning curve + communication counters).
    pub result: SimulationResult,
}

impl ExperimentOutcome {
    /// Table II style "mean ± std" accuracy (percent) over the last few
    /// evaluations.
    pub fn accuracy_mean_std(&self) -> (f32, f32) {
        self.result.history.mean_std_last(3)
    }
}

/// Runs one FL method on one task/model combination.
pub fn run_method(
    spec: AlgorithmSpec,
    task: TaskSpec,
    model: ModelSpec,
    config: &ExperimentConfig,
) -> ExperimentOutcome {
    let data = build_task(task, config, config.seed);
    let template = build_model(model, &data, config.seed.wrapping_add(1));
    run_method_on(spec, &data, template, config, &task.label(), model.label())
}

/// Runs one FL method on an already-built dataset and template (used when a
/// harness sweeps methods over the same data).
pub fn run_method_on(
    spec: AlgorithmSpec,
    data: &FederatedDataset,
    template: Box<dyn Model>,
    config: &ExperimentConfig,
    task_label: &str,
    model_label: &str,
) -> ExperimentOutcome {
    let mut algorithm = build_algorithm(
        spec,
        template.params_flat(),
        data.num_clients(),
        config.clients_per_round.min(data.num_clients()),
    );
    let sim_config = SimulationConfig {
        rounds: config.rounds,
        clients_per_round: config.clients_per_round.min(data.num_clients()),
        eval_every: config.eval_every,
        eval_batch_size: 64,
        local: config.local,
        seed: config.seed,
    };
    let result = Simulation::new(sim_config, data, template).run(algorithm.as_mut());
    ExperimentOutcome {
        method: spec.label().to_string(),
        task: task_label.to_string(),
        model: model_label.to_string(),
        result,
    }
}

/// FedCross with a *scale-mapped* α for the reduced round budgets the harness
/// runs by default.
///
/// The paper's recommended α = 0.99 assumes 1000–2000 communication rounds:
/// what matters for middleware unification is the total cross-mixing budget
/// `(1-α) × rounds` (≈ 10–20 at paper scale). At the harness default of ~30
/// rounds the same budget corresponds to α ≈ 0.9 / 0.8, so the between-method
/// comparisons (Table II, Figures 5–7) use this mapped value; the α ablations
/// (Table III, Figure 8) still sweep α explicitly and show the full-range
/// behaviour at this scale. Documented in docs/DESIGN.md §3 (Reproduction
/// scale).
pub fn scaled_fedcross() -> AlgorithmSpec {
    AlgorithmSpec::FedCross {
        alpha: 0.9,
        strategy: SelectionStrategy::LowestSimilarity,
        acceleration: fedcross::Acceleration::None,
    }
}

/// The paper's six-method lineup with the scale-mapped FedCross of
/// [`scaled_fedcross`] substituted for the α = 0.99 configuration.
pub fn scaled_lineup() -> Vec<AlgorithmSpec> {
    let mut lineup = AlgorithmSpec::paper_lineup();
    let last = lineup.len() - 1;
    lineup[last] = scaled_fedcross();
    lineup
}

/// A tiny dependency-free CLI argument parser shared by the harness binaries.
///
/// Recognised flags: `--rounds N`, `--clients N`, `--k N`, `--samples N`,
/// `--test-samples N`, `--epochs N`, `--seed N`, `--eval-every N`, `--full`,
/// `--smoke`. Unknown flags are ignored so binaries can add their own.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit vector (used in tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Self { raw }
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The value following a `--name` flag, parsed.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// Applies the standard scale flags to an [`ExperimentConfig`].
    pub fn apply(&self, mut config: ExperimentConfig) -> ExperimentConfig {
        if self.flag("--full") {
            config = ExperimentConfig {
                rounds: config.rounds,
                eval_every: config.eval_every,
                ..ExperimentConfig::paper_scale()
            };
        }
        if self.flag("--smoke") {
            config = ExperimentConfig::smoke();
        }
        if let Some(v) = self.value("--rounds") {
            config.rounds = v;
        }
        if let Some(v) = self.value("--clients") {
            config.num_clients = v;
        }
        if let Some(v) = self.value("--k") {
            config.clients_per_round = v;
        }
        if let Some(v) = self.value("--samples") {
            config.samples_per_client = v;
        }
        if let Some(v) = self.value("--test-samples") {
            config.test_samples = v;
        }
        if let Some(v) = self.value("--epochs") {
            config.local.epochs = v;
        }
        if let Some(v) = self.value("--seed") {
            config.seed = v;
        }
        if let Some(v) = self.value("--eval-every") {
            config.eval_every = v;
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_labels_mention_dataset_and_heterogeneity() {
        assert_eq!(
            TaskSpec::Cifar10(Heterogeneity::Dirichlet(0.1)).label(),
            "CIFAR-10 (beta=0.1)"
        );
        assert_eq!(TaskSpec::Femnist.label(), "FEMNIST");
        assert!(TaskSpec::Shakespeare.is_text());
        assert!(!TaskSpec::Cifar100(Heterogeneity::Iid).is_text());
    }

    #[test]
    fn model_labels_match_the_paper() {
        assert_eq!(ModelSpec::Cnn.label(), "CNN");
        assert_eq!(ModelSpec::ResNet20.label(), "ResNet-20");
        assert_eq!(ModelSpec::Vgg16.label(), "VGG-16");
        assert_eq!(ModelSpec::Lstm.label(), "LSTM");
    }

    #[test]
    fn build_task_produces_matching_class_counts() {
        let config = ExperimentConfig::smoke();
        assert_eq!(
            build_task(TaskSpec::Cifar10(Heterogeneity::Iid), &config, 0).num_classes(),
            10
        );
        assert_eq!(build_task(TaskSpec::Femnist, &config, 0).num_classes(), 62);
        assert_eq!(build_task(TaskSpec::Sent140, &config, 0).num_classes(), 2);
    }

    #[test]
    fn build_model_matches_task_shapes() {
        let config = ExperimentConfig::smoke();
        let image = build_task(TaskSpec::Cifar10(Heterogeneity::Iid), &config, 0);
        let text = build_task(TaskSpec::Shakespeare, &config, 0);
        let cnn_model = build_model(ModelSpec::Cnn, &image, 1);
        let lstm_model = build_model(ModelSpec::Lstm, &text, 1);
        assert!(cnn_model.param_count() > 0);
        assert!(lstm_model.param_count() > 0);
    }

    #[test]
    #[should_panic]
    fn image_model_on_text_task_is_rejected() {
        let config = ExperimentConfig::smoke();
        let text = build_task(TaskSpec::Sent140, &config, 0);
        let _ = build_model(ModelSpec::Cnn, &text, 1);
    }

    #[test]
    fn run_method_produces_a_learning_curve() {
        let config = ExperimentConfig::smoke();
        let outcome = run_method(
            AlgorithmSpec::FedAvg,
            TaskSpec::Cifar10(Heterogeneity::Iid),
            ModelSpec::Cnn,
            &config,
        );
        assert_eq!(outcome.method, "FedAvg");
        assert_eq!(outcome.result.history.len(), config.rounds);
        let (mean, std) = outcome.accuracy_mean_std();
        assert!(mean >= 0.0 && std >= 0.0);
    }

    #[test]
    fn args_parse_flags_and_values() {
        let args = Args::from_vec(vec![
            "--rounds".into(),
            "7".into(),
            "--full".into(),
            "--k".into(),
            "5".into(),
        ]);
        assert!(args.flag("--full"));
        assert!(!args.flag("--smoke"));
        assert_eq!(args.value::<usize>("--rounds"), Some(7));
        assert_eq!(args.value::<usize>("--missing"), None);
        let config = args.apply(ExperimentConfig::default());
        assert_eq!(config.rounds, 7);
        assert_eq!(config.clients_per_round, 5);
        // --full switched to paper scale for the other knobs.
        assert_eq!(config.num_clients, 100);
    }

    #[test]
    fn smoke_flag_overrides_to_tiny_scale() {
        let args = Args::from_vec(vec!["--smoke".into()]);
        let config = args.apply(ExperimentConfig::default());
        assert_eq!(config.num_clients, ExperimentConfig::smoke().num_clients);
    }
}
