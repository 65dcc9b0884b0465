//! Checkpoint and resume: stop a FedCross run half-way, persist its complete
//! state (middleware models + learning curve + communication counters) to
//! disk, reload it after a simulated server restart and finish the run —
//! **bitwise identically** to a run that was never interrupted.
//!
//! FedCross' training state is the middleware model list — the deployable
//! global model is derived from it — so a production server has to checkpoint
//! the whole list, not one model. The engine derives every round's random
//! streams from the *absolute* round index, so `Simulation::resume` continues
//! the exact trajectory: same client selections, same evaluation cadence,
//! same parameters to the last bit.
//!
//! ```text
//! cargo run -p fedcross-examples --release --bin checkpoint_resume
//! ```

use fedcross::{FedCross, FedCrossConfig};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::Heterogeneity;
use fedcross_flsim::{
    Checkpoint, FederatedAlgorithm, LocalTrainConfig, Simulation, SimulationConfig,
};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_tensor::SeededRng;

fn main() {
    let mut rng = SeededRng::new(55);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 12,
            samples_per_client: 40,
            test_samples: 200,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
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

    let fed_config = FedCrossConfig {
        alpha: 0.9,
        ..Default::default()
    };
    let sim_config = SimulationConfig {
        rounds: 20,
        clients_per_round: 4,
        eval_every: 2,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 13,
    };
    let halfway = sim_config.rounds / 2;
    let sim = Simulation::new(sim_config, &data, template.clone_model());

    // Reference: the same 20 rounds with no interruption, for the bitwise
    // comparison at the end.
    let mut reference = FedCross::new(fed_config, template.params_flat(), 4);
    let uninterrupted = sim.run(&mut reference);

    // Phase 1: train the first half of the run and checkpoint atomically.
    let mut algo = FedCross::new(fed_config, template.params_flat(), 4);
    let partial = sim.run_segment(&mut algo, 0, halfway);
    println!(
        "phase 1: rounds 0..{halfway}, accuracy so far {:.1}%",
        partial.final_accuracy_pct()
    );

    let checkpoint_path = std::env::temp_dir().join("fedcross-example-checkpoint");
    let checkpoint = sim
        .checkpoint(&algo, &partial)
        .expect("FedCross supports checkpointing");
    checkpoint.save(&checkpoint_path).expect("checkpoint saves");
    println!(
        "checkpointed {} middleware models ({} parameters each) at round {} to {}",
        checkpoint.state.models.len(),
        checkpoint.param_count(),
        checkpoint.rounds_completed,
        checkpoint_path.display()
    );

    // Phase 2: the server restarts — reload the checkpoint into a freshly
    // constructed FedCross and let the engine finish rounds 10..20. Round
    // RNGs, availability draws and the eval_every cadence all derive from the
    // absolute round index, so nothing about the trajectory changes.
    let restored = Checkpoint::load(&checkpoint_path).expect("checkpoint loads");
    let mut resumed = FedCross::new(fed_config, template.params_flat(), 4);
    let second = sim
        .resume(&restored, &mut resumed)
        .expect("checkpoint matches the resuming simulation");
    println!(
        "phase 2 (resumed after restart): rounds {halfway}..{}, final accuracy {:.1}%",
        sim_config.rounds,
        second.final_accuracy_pct()
    );

    // One continuous learning curve: strictly increasing absolute rounds.
    let rounds: Vec<usize> = second.history.records().iter().map(|r| r.round).collect();
    assert!(
        rounds.windows(2).all(|w| w[0] < w[1]),
        "merged history must have strictly increasing round indices: {rounds:?}"
    );
    println!("merged learning curve evaluated at rounds {rounds:?}");

    // The money shot: restart was a non-event.
    let identical = reference
        .global_params()
        .iter()
        .zip(resumed.global_params())
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && uninterrupted.history == second.history
        && uninterrupted.comm == second.comm;
    println!(
        "resumed run is bitwise identical to the uninterrupted run: {}",
        if identical { "yes" } else { "NO (bug!)" }
    );
    assert!(identical, "resume must be a non-event");

    let _ = std::fs::remove_file(&checkpoint_path);
    println!("\nExpected: identical global parameters, history records and communication");
    println!("totals — lossless persistence of the multi-model training state across a restart.");
}
