//! The benchmark's workloads: what each one trains, on which data, with
//! which server, and how its federation is built from a seed.

use std::sync::Arc;

use fedcross::{build_algorithm, AlgorithmSpec};
use fedcross_bench::scaled_fedcross;
use fedcross_data::federated::SynthCifar10Config;
use fedcross_data::synth::images::SynthImageConfig;
use fedcross_data::{ClientDataSource, SynthTaskSource};
use fedcross_data::{Dataset, FederatedDataset, Heterogeneity, ShardPlane, ShardPlaneConfig};
use fedcross_flsim::{FederatedAlgorithm, LocalTrainConfig, Simulation, SimulationConfig};
use fedcross_nn::layers::{Flatten, Linear, Relu};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_nn::{Model, Sequential};
use fedcross_tensor::SeededRng;

/// Side length of the synthetic CIFAR-10 stand-in images (3×16×16).
const IMAGE: (usize, usize, usize) = (3, 16, 16);
/// Classes of the CIFAR-10 stand-in.
pub const CLASSES: usize = 10;
/// Test-set batch size the simulation evaluates with.
pub const EVAL_BATCH: usize = 64;

/// The server-side algorithm of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Server {
    /// FedCross as the harness runs it (`scaled_fedcross`: α 0.9,
    /// lowest-similarity, cosine, no acceleration).
    FedCross,
    /// FedAvg: one global model, sample-weighted average.
    FedAvg,
}

/// The model architecture a workload trains.
#[derive(Debug, Clone, Copy)]
pub enum Arch {
    /// The two-conv CNN of `fedcross_nn::models::cnn`.
    Cnn(CnnConfig),
    /// Flatten followed by ReLU-separated linear layers of these widths and
    /// a final linear layer onto the classes.
    Mlp(&'static [usize]),
}

impl Arch {
    /// Builds the model template.
    pub fn build(&self, rng: &mut SeededRng) -> Box<dyn Model> {
        match *self {
            Arch::Cnn(config) => cnn(IMAGE, CLASSES, config, rng),
            Arch::Mlp(hidden) => {
                let mut model = Sequential::new("mlp").push(Flatten::new());
                let mut prev = IMAGE.0 * IMAGE.1 * IMAGE.2;
                for &width in hidden {
                    model = model.push(Linear::new(prev, width, rng)).push(Relu::new());
                    prev = width;
                }
                model.push(Linear::new(prev, CLASSES, rng)).boxed()
            }
        }
    }

    /// Multiply-accumulates of one sample's forward pass, counted from the
    /// layer shapes (convolutions are stride 1 with "same" padding, so each
    /// produces an output plane of its input's size).
    pub fn forward_macs_per_sample(&self) -> u64 {
        let (c, h, w) = IMAGE;
        match *self {
            Arch::Cnn(config) => {
                let (c1, c2) = config.conv_channels;
                let k2 = (config.kernel * config.kernel) as u64;
                let conv1 = (c1 * h * w * c) as u64 * k2;
                let conv2 = (c2 * (h / 2) * (w / 2) * c1) as u64 * k2;
                let flat = c2 * (h / 4) * (w / 4);
                let fc = (flat * config.fc_hidden + config.fc_hidden * CLASSES) as u64;
                conv1 + conv2 + fc
            }
            Arch::Mlp(hidden) => {
                let mut prev = c * h * w;
                let mut macs = 0u64;
                for &width in hidden.iter().chain(std::iter::once(&CLASSES)) {
                    macs += (prev * width) as u64;
                    prev = width;
                }
                macs
            }
        }
    }

    /// Floating-point operations of one sample's forward plus backward pass:
    /// two per multiply-accumulate forward, and the usual twice-forward for
    /// the backward pass (input and weight gradients).
    pub fn train_flops_per_sample(&self) -> u64 {
        3 * 2 * self.forward_macs_per_sample()
    }
}

/// How the workload's client data is held.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataSpec {
    /// Every shard materialised up front, Dirichlet label skew.
    Eager {
        /// Clients in the federation.
        clients: usize,
        /// Training samples per client.
        samples: usize,
        /// Dirichlet concentration β.
        beta: f32,
    },
    /// Shards synthesised on demand behind a bounded `ShardPlane`.
    Lazy {
        /// Clients in the federation.
        clients: usize,
        /// Training samples per client.
        samples: usize,
        /// Dirichlet concentration β.
        beta: f32,
        /// Shard-cache capacity.
        cache: usize,
        /// Prefetch ring depth.
        prefetch: usize,
    },
}

/// One named benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Server-side algorithm.
    pub server: Server,
    /// Client data.
    pub data: DataSpec,
    /// Held-out test samples.
    pub test_samples: usize,
    /// Model architecture.
    pub arch: Arch,
    /// Clients per round (`K`; FedCross middleware count).
    pub k: usize,
    /// Client-side training (the paper's SGD, lr 0.01, momentum 0.5, §IV-A).
    pub local: LocalTrainConfig,
    /// Evaluate the global model every this many rounds.
    pub eval_every: usize,
    /// Fewest rounds a run trains (at least 100 steady rounds for p90).
    pub min_rounds: usize,
    /// Rounds per second of `--seconds` (sizes the horizon).
    pub rounds_per_second: f64,
    /// Whether the run checkpoints, saves, loads and resumes at mid-run.
    pub checkpoint: bool,
}

/// The paper's headline setting: FedCross on a strongly non-IID split,
/// dominated by local convolution forward/backward.
pub const CNN_NONIID_TRAIN: Workload = Workload {
    name: "cnn_noniid_train",
    server: Server::FedCross,
    data: DataSpec::Eager {
        clients: 40,
        samples: 40,
        beta: 0.1,
    },
    test_samples: 200,
    arch: Arch::Cnn(CnnConfig {
        conv_channels: (16, 32),
        fc_hidden: 64,
        kernel: 3,
    }),
    k: 8,
    local: LocalTrainConfig {
        epochs: 2,
        batch_size: 10,
        lr: 0.01,
        momentum: 0.5,
        weight_decay: 0.0,
    },
    eval_every: 10,
    min_rounds: 101,
    rounds_per_second: 14.0,
    checkpoint: false,
};

/// Server-bound FedCross: a 1.3 M-parameter MLP, two local steps per
/// client, and a mid-run checkpoint/resume of the 13 M-float state.
pub const WIDE_FUSION_CKPT: Workload = Workload {
    name: "wide_fusion_ckpt",
    server: Server::FedCross,
    data: DataSpec::Eager {
        clients: 50,
        samples: 16,
        beta: 0.5,
    },
    test_samples: 1000,
    arch: Arch::Mlp(&[1024, 512]),
    k: 10,
    local: LocalTrainConfig {
        epochs: 1,
        batch_size: 8,
        lr: 0.01,
        momentum: 0.5,
        weight_decay: 0.0,
    },
    eval_every: 10,
    min_rounds: 102,
    rounds_per_second: 5.5,
    checkpoint: true,
};

/// Population-scale FedAvg over a lazy million-client shard plane with a
/// tiny CNN: selection, shard synthesis and per-call overhead dominate.
pub const POPULATION_FEDAVG: Workload = Workload {
    name: "population_fedavg",
    server: Server::FedAvg,
    data: DataSpec::Lazy {
        clients: 1_000_000,
        samples: 12,
        beta: 0.3,
        cache: 32,
        prefetch: 8,
    },
    test_samples: 200,
    arch: Arch::Cnn(CnnConfig {
        conv_channels: (4, 8),
        fc_hidden: 16,
        kernel: 3,
    }),
    k: 10,
    local: LocalTrainConfig {
        epochs: 1,
        batch_size: 6,
        lr: 0.01,
        momentum: 0.5,
        weight_decay: 0.0,
    },
    eval_every: 25,
    min_rounds: 200,
    rounds_per_second: 130.0,
    checkpoint: false,
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [CNN_NONIID_TRAIN, WIDE_FUSION_CKPT, POPULATION_FEDAVG];

impl Workload {
    /// Looks a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name == name)
    }

    /// Rounds one run trains for a `--seconds` budget: a fixed function of
    /// the budget, never of the machine's speed, so the work a run does and
    /// its accuracy and traffic are a pure function of
    /// `(workload, seed, seconds)`.
    pub fn horizon(&self, seconds: u64) -> usize {
        let sized = (self.rounds_per_second * seconds as f64).round() as usize;
        sized.max(self.min_rounds)
    }

    /// Simulation configuration for a run of `rounds` rounds.
    pub fn sim_config(&self, seed: u64, rounds: usize) -> SimulationConfig {
        SimulationConfig {
            rounds,
            clients_per_round: self.k,
            eval_every: self.eval_every,
            eval_batch_size: EVAL_BATCH,
            local: self.local,
            seed,
        }
    }

    /// The algorithm spec of this workload's server.
    pub fn spec(&self) -> AlgorithmSpec {
        match self.server {
            Server::FedCross => scaled_fedcross(),
            Server::FedAvg => AlgorithmSpec::FedAvg,
        }
    }

    /// The CIFAR-10 stand-in with the hardened image generator the
    /// repository's experiment harness uses (noise 1.2, class distinctness
    /// 0.35). Every client holds exactly `samples` samples whose classes
    /// follow the client's own `Dir(beta)` draw, so the work of a round does
    /// not depend on the seed or on which clients are selected.
    fn source(&self, clients: usize, samples: usize, beta: f32, seed: u64) -> SynthTaskSource {
        SynthTaskSource::cifar10(
            &SynthCifar10Config {
                num_clients: clients,
                samples_per_client: samples,
                test_samples: self.test_samples,
                image: SynthImageConfig {
                    noise_std: 1.2,
                    class_distinctness: 0.35,
                    ..SynthImageConfig::cifar10()
                },
            },
            Heterogeneity::Dirichlet(beta),
            seed,
        )
    }

    /// Builds the federation and the model template from `seed`.
    pub fn build(&self, seed: u64) -> Setup {
        let federation = match self.data {
            DataSpec::Eager {
                clients,
                samples,
                beta,
            } => Federation::Eager(self.source(clients, samples, beta, seed).materialize_all()),
            DataSpec::Lazy {
                clients,
                samples,
                beta,
                cache,
                prefetch,
            } => Federation::Lazy(ShardPlane::new(
                Arc::new(self.source(clients, samples, beta, seed)),
                ShardPlaneConfig {
                    capacity: cache,
                    prefetch_depth: prefetch,
                },
            )),
        };
        let template = self.arch.build(&mut SeededRng::new(seed.wrapping_add(1)));
        Setup {
            workload: *self,
            federation,
            template,
        }
    }
}

/// A workload's client data, in the backend the workload names.
pub enum Federation {
    /// Fully materialised.
    Eager(FederatedDataset),
    /// Lazy, behind a bounded cache with prefetch.
    Lazy(ShardPlane),
}

/// Everything a run needs before round 0.
pub struct Setup {
    /// The workload this setup was built for.
    pub workload: Workload,
    /// Client data.
    pub federation: Federation,
    /// Model template (initial parameters of every server model).
    pub template: Box<dyn Model>,
}

impl Setup {
    /// A freshly constructed server algorithm from the template's parameters.
    pub fn algorithm(&self) -> Box<dyn FederatedAlgorithm> {
        build_algorithm(
            self.workload.spec(),
            self.template.params_flat(),
            self.num_clients(),
            self.workload.k,
        )
    }

    /// A simulation over this setup's data.
    pub fn simulation(&self, config: SimulationConfig) -> Simulation<'_> {
        let template = self.template.clone_model();
        match &self.federation {
            Federation::Eager(data) => Simulation::new(config, data, template),
            Federation::Lazy(plane) => Simulation::new_sharded(config, plane, template),
        }
    }

    /// Clients in the federation.
    pub fn num_clients(&self) -> usize {
        match &self.federation {
            Federation::Eager(data) => data.num_clients(),
            Federation::Lazy(plane) => plane.num_clients(),
        }
    }

    /// The held-out test set.
    pub fn test_set(&self) -> &Dataset {
        match &self.federation {
            Federation::Eager(data) => data.test_set(),
            Federation::Lazy(plane) => plane.test_set(),
        }
    }

    /// Client `client`'s training shard (through the cache when lazy).
    pub fn shard(&self, client: usize) -> Arc<Dataset> {
        match &self.federation {
            Federation::Eager(data) => Arc::new(data.client(client).clone()),
            Federation::Lazy(plane) => plane.shard(client),
        }
    }
}
