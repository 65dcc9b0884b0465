//! Differentially-private federated training: run DP-FedAvg and DP-FedCross
//! on the same skewed federation and watch the privacy budget accumulate —
//! then checkpoint DP-FedCross mid-run, "restart", and resume bitwise.
//!
//! The paper's Section IV-F1 claims FedCross composes with FedAvg-style
//! privacy mechanisms because the client-side pipeline is unchanged; this
//! example exercises exactly that composition, printing the accuracy and the
//! (ε, δ = 1e-5) guarantee after every few rounds. Because all DP noise is
//! derived from `(domain, seed, absolute round, slot)` — never from a
//! consumed RNG — and the accountant's spent budget travels inside the
//! checkpoint, the resumed run reproduces the uninterrupted one exactly,
//! spent ε included.
//!
//! ```text
//! cargo run -p fedcross-examples --release --bin dp_federated_training
//! ```

use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::Heterogeneity;
use fedcross_flsim::{
    Checkpoint, FederatedAlgorithm, LocalTrainConfig, Simulation, SimulationConfig,
};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_privacy::algorithms::{DpFedAvg, DpFedCross, DpFedCrossConfig};
use fedcross_privacy::mechanism::{DpConfig, NoisePlacement};
use fedcross_tensor::SeededRng;

const DELTA: f64 = 1e-5;

fn main() {
    // A 20-client federation with strong label skew (Dirichlet beta = 0.3).
    let mut rng = SeededRng::new(21);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 20,
            samples_per_client: 40,
            test_samples: 200,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.3),
        &mut rng,
    );
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (8, 16),
            fc_hidden: 32,
            kernel: 3,
        },
        &mut rng,
    );
    println!(
        "federation: {} clients, model: {} parameters",
        data.num_clients(),
        template.param_count()
    );

    // Clip every client delta to L2 norm 5 and add central Gaussian noise with
    // multiplier 0.1 — a mild setting that should cost little accuracy.
    let dp = DpConfig {
        clip_norm: 5.0,
        noise_multiplier: 0.1,
        placement: NoisePlacement::Central,
    };
    println!(
        "privacy mechanism: clip C={}, noise multiplier z={}, {} placement\n",
        dp.clip_norm, dp.noise_multiplier, dp.placement
    );

    let sim_config = SimulationConfig {
        rounds: 24,
        clients_per_round: 4,
        eval_every: 4,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 5,
    };

    // DP-FedAvg.
    let mut dp_fedavg = DpFedAvg::new(template.params_flat(), dp, 101);
    let result = Simulation::new(sim_config, &data, template.clone_model())
        .run_with_observer(&mut dp_fedavg, |round, record| {
            println!(
                "  [DP-FedAvg  ] round {:>3}: accuracy {:>5.1}%",
                round,
                record.accuracy * 100.0
            );
        });
    println!(
        "DP-FedAvg   : best accuracy {:.1}%, spent epsilon = {:.2} at delta = {DELTA}\n",
        result.best_accuracy_pct(),
        dp_fedavg.epsilon(DELTA).unwrap_or(f64::INFINITY)
    );

    // DP-FedCross with the same mechanism on every middleware upload.
    let fedcross_config = DpFedCrossConfig {
        alpha: 0.9,
        dp,
        ..Default::default()
    };
    let build_fedcross = || {
        DpFedCross::new(
            fedcross_config,
            template.params_flat(),
            sim_config.clients_per_round,
            103,
        )
    };
    let mut dp_fedcross = build_fedcross();
    let sim = Simulation::new(sim_config, &data, template.clone_model());
    let result = sim.run_with_observer(&mut dp_fedcross, |round, record| {
        println!(
            "  [DP-FedCross] round {:>3}: accuracy {:>5.1}%",
            round,
            record.accuracy * 100.0
        );
    });
    println!(
        "DP-FedCross : best accuracy {:.1}%, spent epsilon = {:.2} at delta = {DELTA}",
        result.best_accuracy_pct(),
        dp_fedcross.epsilon(DELTA).unwrap_or(f64::INFINITY)
    );
    println!("(name of the second algorithm: {})", dp_fedcross.name());

    // The same DP-FedCross trajectory, interrupted: train half the rounds,
    // checkpoint (middleware models + spent privacy budget), simulate a
    // server restart, resume. The noise plane is round-derived, so the
    // resumed run must be bitwise identical to the uninterrupted one — and
    // the accountant must report the exact same spent epsilon.
    let halfway = sim_config.rounds / 2;
    let mut interrupted = build_fedcross();
    let partial = sim.run_segment(&mut interrupted, 0, halfway);
    let checkpoint_path = std::env::temp_dir().join("fedcross-example-dp-checkpoint");
    sim.checkpoint(&interrupted, &partial)
        .expect("DP-FedCross supports checkpointing")
        .save(&checkpoint_path)
        .expect("checkpoint saves");
    println!(
        "\ncheckpointed DP-FedCross at round {halfway} (epsilon so far {:.2}) to {}",
        interrupted.epsilon(DELTA).unwrap_or(f64::INFINITY),
        checkpoint_path.display()
    );
    drop(interrupted); // the "crash"

    let restored = Checkpoint::load(&checkpoint_path).expect("checkpoint loads");
    let mut resumed = build_fedcross();
    let second = sim
        .resume(&restored, &mut resumed)
        .expect("checkpoint matches the resuming simulation");
    let identical = dp_fedcross
        .global_params()
        .iter()
        .zip(resumed.global_params())
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && result.history == second.history
        && dp_fedcross.epsilon(DELTA).unwrap().to_bits()
            == resumed.epsilon(DELTA).unwrap().to_bits();
    println!(
        "resumed DP run is bitwise identical (params, history, spent epsilon): {}",
        if identical { "yes" } else { "NO (bug!)" }
    );
    assert!(identical, "DP resume must be a non-event");
    let _ = std::fs::remove_file(&checkpoint_path);

    println!("\nExpected: both methods learn under the mild mechanism and report the same");
    println!("epsilon, because they share the clipping/noising schedule and sampling rate;");
    println!("and a mid-run restart changes nothing — noise, models and spent budget resume");
    println!("exactly where they left off.");
}
