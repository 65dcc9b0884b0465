//! Prints FNV-1a fingerprints of fixed-seed training trajectories.
//!
//! Used to pin the training plane bitwise: the hashes printed here must not
//! change across performance refactors of the compute kernels (see
//! `tests/tests/training_plane.rs`).

use fedcross::{
    Acceleration, BufferedFedCross, BufferedFedCrossConfig, FedCross, FedCrossConfig,
    RobustFedCross, RobustFedCrossConfig, RobustRule, SelectionStrategy, SimilarityMeasure,
};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::{Dataset, Heterogeneity};
use fedcross_flsim::engine::RoundContext;
use fedcross_flsim::client::local_train;
use fedcross_flsim::{
    AvailabilityModel, CommTracker, DeviceModel, FaultPlan, FederatedAlgorithm,
    LocalTrainConfig, RoundPolicy,
};
use fedcross_nn::models::{
    cnn, fedavg_cnn, lstm_classifier, mlp, resnet20_lite, CnnConfig, LstmConfig,
};
use fedcross_nn::Model;
use fedcross_privacy::{DpConfig, DpFedCross, NoisePlacement};
use fedcross_tensor::{SeededRng, Tensor};

fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

fn image_task(seed: u64, clients: usize) -> FederatedDataset {
    let mut rng = SeededRng::new(seed);
    FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: clients,
            samples_per_client: 20,
            test_samples: 30,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    )
}

fn flatten_images(data: &Dataset) -> Dataset {
    let n = data.len();
    let dim: usize = data.sample_dims().iter().product();
    Dataset::new(
        data.features().reshape(&[n, dim]),
        data.labels().to_vec(),
        data.num_classes(),
    )
}

/// Drives `algo` for six rounds of the tiny-CNN task under 50% random
/// dropout (so rounds with missing slots and with a lone survivor both
/// occur), optionally under a buffered service plane with stragglers and
/// stalls. Returns the global-model fingerprint and every round's
/// participant count. Mirrored by `variant_run` in
/// `tests/tests/training_plane.rs`.
fn variant_run(
    algo: &mut dyn FederatedAlgorithm,
    data: &FederatedDataset,
    template: &dyn Model,
    buffered: bool,
) -> (u64, Vec<usize>) {
    let master = SeededRng::new(41);
    let mut participants = Vec::new();
    for round in 0..6 {
        let mut comm = CommTracker::new();
        let mut ctx = RoundContext::new(
            data,
            template,
            LocalTrainConfig::fast(),
            4,
            master.fork(round as u64),
            &mut comm,
        )
        .with_availability(AvailabilityModel::RandomDropout { prob: 0.5 }, round);
        if buffered {
            ctx = ctx.with_service_plane(
                RoundPolicy::Buffered {
                    goal_k: 1,
                    max_staleness: 4,
                },
                Some(FaultPlan {
                    stall_prob: 0.3,
                    seed: 8,
                    ..Default::default()
                }),
                Some(DeviceModel::two_tier(0.5, 3.0, 5)),
                round,
            );
        }
        participants.push(algo.run_round(round, &mut ctx).participants);
    }
    (fnv1a(&algo.global_params()), participants)
}

fn main() {
    // 1. Three FedCross rounds on the tiny CNN (the zero_copy_plane config).
    let data = image_task(7, 6);
    let mut rng = SeededRng::new(3);
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (3, 6),
            fc_hidden: 12,
            kernel: 3,
        },
        &mut rng,
    );
    let config = FedCrossConfig {
        alpha: 0.9,
        strategy: SelectionStrategy::LowestSimilarity,
        measure: SimilarityMeasure::Cosine,
        ..Default::default()
    };
    let mut algo = FedCross::new(config, template.params_flat(), 4);
    let master = SeededRng::new(99);
    for round in 0..3 {
        let mut comm = CommTracker::new();
        let mut ctx = RoundContext::new(
            &data,
            template.as_ref(),
            LocalTrainConfig::fast(),
            4,
            master.fork(round as u64),
            &mut comm,
        );
        algo.run_round(round, &mut ctx);
    }
    println!("fedcross_global {:#018x}", fnv1a(&algo.global_params()));

    // 1b. Every FedCross server variant on the same task, under dropout.
    let init = template.params_flat();
    let robust = |rule| RobustFedCrossConfig {
        alpha: 0.9,
        rule,
        ..Default::default()
    };
    let dp = |placement| DpConfig {
        clip_norm: 5.0,
        noise_multiplier: 0.05,
        placement,
    };
    let dp_config = |placement| fedcross_privacy::algorithms::DpFedCrossConfig {
        alpha: 0.9,
        dp: dp(placement),
        ..Default::default()
    };
    let mut variants: Vec<(&str, Box<dyn FederatedAlgorithm>, bool)> = vec![
        (
            "robust_trimmed_mean",
            Box::new(RobustFedCross::new(
                robust(RobustRule::TrimmedMean { trim: 0.25 }),
                init.clone(),
                4,
            )),
            false,
        ),
        (
            "robust_norm_bound",
            Box::new(RobustFedCross::new(
                robust(RobustRule::NormBound { max_norm: 1.0 }),
                init.clone(),
                4,
            )),
            false,
        ),
        (
            "robust_krum",
            Box::new(RobustFedCross::new(
                robust(RobustRule::Krum { f: 1, m: 2 }),
                init.clone(),
                4,
            )),
            false,
        ),
        (
            "dp_central",
            Box::new(DpFedCross::new(dp_config(NoisePlacement::Central), init.clone(), 4, 19)),
            false,
        ),
        (
            "dp_local",
            Box::new(DpFedCross::new(dp_config(NoisePlacement::Local), init.clone(), 4, 19)),
            false,
        ),
        (
            "buffered",
            Box::new(BufferedFedCross::new(
                BufferedFedCrossConfig {
                    alpha: 0.9,
                    ..Default::default()
                },
                init.clone(),
                4,
                data.num_clients(),
            )),
            true,
        ),
        (
            "propeller_then_dynamic",
            Box::new(FedCross::new(
                FedCrossConfig {
                    alpha: 0.9,
                    acceleration: Acceleration::PropellerThenDynamic {
                        propellers: 2,
                        switch_round: 2,
                        until_round: 4,
                    },
                    ..Default::default()
                },
                init.clone(),
                4,
            )),
            false,
        ),
    ];
    for (name, algo, buffered) in &mut variants {
        let (fingerprint, participants) =
            variant_run(algo.as_mut(), &data, template.as_ref(), *buffered);
        println!("{name} {fingerprint:#018x} participants {participants:?}");
    }

    // 2. One local_train on the default CNN (crosses the matmul parallel
    //    thresholds, including the blocked at_b reduction).
    let mut rng = SeededRng::new(11);
    let mut model = fedavg_cnn((3, 16, 16), 10, &mut rng);
    let client_data = data.client(0);
    let local = LocalTrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 1e-4,
    };
    let mut train_rng = SeededRng::new(13);
    let update = local_train(0, model.as_mut(), client_data, &local, &mut train_rng, None);
    println!("cnn_local_train {:#018x}", fnv1a(update.params.as_slice()));

    // 3. One local_train on an MLP (pure linear/relu plane).
    let mut rng = SeededRng::new(17);
    let mut model = mlp(3 * 16 * 16, &[32, 16], 10, &mut rng);
    let flat = flatten_images(data.client(1));
    let mut train_rng = SeededRng::new(19);
    let update = local_train(
        1,
        model.as_mut(),
        &flat,
        &LocalTrainConfig::fast(),
        &mut train_rng,
        None,
    );
    println!("mlp_local_train {:#018x}", fnv1a(update.params.as_slice()));

    // 4. One local_train on the ResNet-lite (batchnorm + residual blocks).
    let mut rng = SeededRng::new(23);
    let mut model = resnet20_lite((3, 16, 16), 10, &mut rng);
    let mut train_rng = SeededRng::new(29);
    let local = LocalTrainConfig {
        epochs: 1,
        batch_size: 10,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 0.0,
    };
    let update = local_train(2, model.as_mut(), data.client(2), &local, &mut train_rng, None);
    println!("resnet_local_train {:#018x}", fnv1a(update.params.as_slice()));

    // 5. One local_train on the LSTM classifier (embedding + recurrence).
    let mut rng = SeededRng::new(31);
    let mut model = lstm_classifier(
        LstmConfig {
            vocab: 32,
            embed_dim: 8,
            hidden_dim: 16,
        },
        8,
        &mut rng,
    );
    let tokens: Vec<f32> = (0..40 * 12).map(|i| ((i * 7 + 3) % 32) as f32).collect();
    let labels: Vec<usize> = (0..40).map(|i| (i * 5 + 1) % 8).collect();
    let text = Dataset::new(Tensor::from_vec(tokens, &[40, 12]), labels, 8);
    let mut train_rng = SeededRng::new(37);
    let update = local_train(
        3,
        model.as_mut(),
        &text,
        &LocalTrainConfig::fast(),
        &mut train_rng,
        None,
    );
    println!("lstm_local_train {:#018x}", fnv1a(update.params.as_slice()));
}
