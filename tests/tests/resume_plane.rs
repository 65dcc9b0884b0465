//! Resume-plane integration tests: a run checkpointed at round `R` and
//! resumed after a (simulated) server restart must be **bitwise identical**
//! to the uninterrupted run — same global parameters, same history records at
//! the same absolute rounds, same communication totals. Covers all nine
//! shipped algorithms — FedCross, the five baselines (SCAFFOLD's control
//! variates, FedGen's teacher, CluSamp's update directions), secure
//! aggregation, the DP variants (round-derived noise + accountant spent
//! budget) and compressed uploads (round-derived dithering, `UploadStats`
//! counters, error-feedback residual tables) — under both full availability
//! and random client dropout, plus checkpoint validation, on-disk corruption
//! safety, and the noise plane's order-independence contract (permuting
//! upload arrival order must not change a round's result).

use fedcross::{build_algorithm, AlgorithmSpec, RobustRule};
use fedcross_compress::{CompressedFedAvg, Compressor, TopK, UniformQuantizer};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::Heterogeneity;
use fedcross_flsim::checkpoint::StateError;
use fedcross_flsim::engine::{RoundContext, RoundReport};
use fedcross_flsim::{
    AdversaryModel, AlgorithmState, Attack, AvailabilityModel, Checkpoint, DeviceModel,
    FaultPlan, FederatedAlgorithm, LocalTrainConfig, LocalUpdate, ResumeError, RoundPolicy,
    Simulation, SimulationConfig,
};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_nn::params::ParamBlock;
use fedcross_nn::Model;
use fedcross_privacy::algorithms::{DpFedAvg, DpFedCross, DpFedCrossConfig, SecureAggFedAvg};
use fedcross_privacy::mechanism::{DpConfig, NoisePlacement};
use fedcross_tensor::stats::std_dev_of;
use fedcross_tensor::SeededRng;
use std::path::PathBuf;

fn setup(seed: u64) -> (FederatedDataset, Box<dyn Model>) {
    let mut rng = SeededRng::new(seed);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 6,
            samples_per_client: 12,
            test_samples: 40,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    );
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (2, 4),
            fc_hidden: 8,
            kernel: 3,
        },
        &mut rng,
    );
    (data, template)
}

fn sim_config(rounds: usize, eval_every: usize) -> SimulationConfig {
    SimulationConfig {
        rounds,
        clients_per_round: 3,
        eval_every,
        eval_batch_size: 32,
        local: LocalTrainConfig::fast(),
        seed: 77,
    }
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fedcross-resume-plane-{tag}"))
}

/// Runs the algorithm uninterrupted, then as checkpoint-at-R + restart +
/// resume (through an actual checkpoint file round trip), and asserts the two
/// trajectories are indistinguishable bit for bit. `build` receives
/// `(initial parameters, federation size)`; `check` receives the
/// uninterrupted and resumed algorithm for method-specific state assertions
/// (spent ε, upload counters, ...).
fn assert_restart_is_a_non_event_for<A: FederatedAlgorithm>(
    build: impl Fn(Vec<f32>, usize) -> A,
    availability: AvailabilityModel,
    tag: &str,
    check: impl Fn(&A, &A),
) {
    assert_restart_is_a_non_event_under(build, availability, None, tag, check);
}

/// Like [`assert_restart_is_a_non_event_for`] but with an optional adversary
/// model, so Byzantine-robust runs prove the same bitwise resume contract
/// while under attack (the adversary's membership and draw streams are
/// round-derived, not stateful, so a restart must not shift them).
fn assert_restart_is_a_non_event_under<A: FederatedAlgorithm>(
    build: impl Fn(Vec<f32>, usize) -> A,
    availability: AvailabilityModel,
    adversary: Option<AdversaryModel>,
    tag: &str,
    check: impl Fn(&A, &A),
) {
    assert_restart_is_a_non_event_in_plane(
        build,
        availability,
        adversary,
        RoundPolicy::Synchronous,
        None,
        None,
        tag,
        check,
    );
}

/// The fully general harness: availability × adversary × round policy ×
/// fault plan × device model. The fault plane (PR 7) derives every crash,
/// stall, duplicate and latency from round-keyed streams, so even a run that
/// is simultaneously under attack, dropping clients and injecting faults
/// must treat a restart as a non-event.
#[allow(clippy::too_many_arguments)]
fn assert_restart_is_a_non_event_in_plane<A: FederatedAlgorithm>(
    build: impl Fn(Vec<f32>, usize) -> A,
    availability: AvailabilityModel,
    adversary: Option<AdversaryModel>,
    policy: RoundPolicy,
    faults: Option<FaultPlan>,
    devices: Option<DeviceModel>,
    tag: &str,
    check: impl Fn(&A, &A),
) {
    let (data, template) = setup(5);
    let config = sim_config(6, 2);
    let checkpoint_round = 3;
    let mut sim = Simulation::new(config, &data, template.clone_model())
        .with_availability(availability)
        .with_round_policy(policy);
    if let Some(adversary) = adversary {
        sim = sim.with_adversaries(adversary);
    }
    if let Some(faults) = faults {
        sim = sim.with_faults(faults);
    }
    if let Some(devices) = devices {
        sim = sim.with_devices(devices);
    }
    let build = || build(template.params_flat(), data.num_clients());

    let mut whole = build();
    let uninterrupted = sim.run(&mut whole);

    // Phase 1 + checkpoint + (simulated) process death.
    let mut first = build();
    let partial = sim.run_segment(&mut first, 0, checkpoint_round);
    let path = temp_path(tag);
    sim.checkpoint(&first, &partial)
        .expect("snapshot supported")
        .save(&path)
        .expect("checkpoint saves");
    drop(first);

    // Restart: fresh algorithm, state restored from disk, run to the end.
    let restored = Checkpoint::load(&path).expect("checkpoint loads");
    let mut fresh = build();
    let resumed = sim
        .resume(&restored, &mut fresh)
        .expect("checkpoint matches the resuming simulation");
    let _ = std::fs::remove_file(&path);

    let label = whole.name();
    assert!(
        bitwise_eq(&whole.global_params(), &fresh.global_params()),
        "{label} ({tag}): resumed global params differ from the uninterrupted run"
    );
    assert_eq!(
        resumed.history, uninterrupted.history,
        "{label} ({tag}): history records diverged"
    );
    assert_eq!(
        resumed.comm, uninterrupted.comm,
        "{label} ({tag}): communication totals diverged"
    );
    assert_eq!(resumed.rounds_completed, config.rounds);
    // The eval_every cadence is anchored to absolute rounds: evaluations land
    // on the same rounds as the uninterrupted run, including the forced final
    // one, with no duplicate at the resume boundary.
    let rounds: Vec<usize> = resumed.history.records().iter().map(|r| r.round).collect();
    assert_eq!(rounds, vec![0, 2, 4, 5], "{label} ({tag}): eval cadence shifted");
    check(&whole, &fresh);
}

/// Adapter so registry-built `Box<dyn FederatedAlgorithm>` methods run
/// through the same generic harness as the concrete privacy/compress types.
struct Boxed(Box<dyn FederatedAlgorithm>);

impl FederatedAlgorithm for Boxed {
    fn name(&self) -> String {
        self.0.name()
    }
    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        self.0.run_round(round, ctx)
    }
    fn global_params(&self) -> Vec<f32> {
        self.0.global_params()
    }
    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.0.global_params_into(out);
    }
    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        self.0.snapshot_state()
    }
    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        self.0.restore_state(state)
    }
}

fn assert_restart_is_a_non_event(
    spec: AlgorithmSpec,
    availability: AvailabilityModel,
    tag: &str,
) {
    assert_restart_is_a_non_event_for(
        |init, num_clients| Boxed(build_algorithm(spec, init, num_clients, 3)),
        availability,
        tag,
        |_, _| {},
    );
}

#[test]
fn fedcross_restart_is_a_non_event_when_always_on() {
    assert_restart_is_a_non_event(
        AlgorithmSpec::fedcross_default(),
        AvailabilityModel::AlwaysOn,
        "fedcross-on",
    );
}

#[test]
fn fedcross_restart_is_a_non_event_under_random_dropout() {
    assert_restart_is_a_non_event(
        AlgorithmSpec::fedcross_default(),
        AvailabilityModel::RandomDropout { prob: 0.3 },
        "fedcross-drop",
    );
}

#[test]
fn scaffold_restart_is_a_non_event_when_always_on() {
    assert_restart_is_a_non_event(
        AlgorithmSpec::Scaffold,
        AvailabilityModel::AlwaysOn,
        "scaffold-on",
    );
}

#[test]
fn scaffold_restart_is_a_non_event_under_random_dropout() {
    assert_restart_is_a_non_event(
        AlgorithmSpec::Scaffold,
        AvailabilityModel::RandomDropout { prob: 0.3 },
        "scaffold-drop",
    );
}

#[test]
fn fedgen_restart_is_a_non_event_when_always_on() {
    assert_restart_is_a_non_event(
        AlgorithmSpec::FedGen,
        AvailabilityModel::AlwaysOn,
        "fedgen-on",
    );
}

#[test]
fn fedgen_restart_is_a_non_event_under_random_dropout() {
    assert_restart_is_a_non_event(
        AlgorithmSpec::FedGen,
        AvailabilityModel::RandomDropout { prob: 0.3 },
        "fedgen-drop",
    );
}

#[test]
fn remaining_baselines_resume_bitwise_too() {
    for (spec, tag) in [
        (AlgorithmSpec::FedAvg, "fedavg"),
        (AlgorithmSpec::FedProx { mu: 0.01 }, "fedprox"),
        (AlgorithmSpec::CluSamp, "clusamp"),
    ] {
        assert_restart_is_a_non_event(spec, AvailabilityModel::AlwaysOn, tag);
    }
}

// ---------------------------------------------------------------------------
// The round-derived noise plane: DP, compression and secure aggregation
// resume bitwise — including the accountant's spent ε, the upload counters
// and the error-feedback residual memory.
// ---------------------------------------------------------------------------

fn central_dp(noise_multiplier: f32) -> DpConfig {
    DpConfig {
        clip_norm: 2.0,
        noise_multiplier,
        placement: NoisePlacement::Central,
    }
}

fn check_epsilon_survives(whole: &DpFedAvg, resumed: &DpFedAvg) {
    let (a, b) = (whole.epsilon(1e-5).unwrap(), resumed.epsilon(1e-5).unwrap());
    assert_eq!(a.to_bits(), b.to_bits(), "spent epsilon diverged: {a} vs {b}");
    assert_eq!(
        whole.accountant().unwrap().rounds(),
        resumed.accountant().unwrap().rounds()
    );
}

#[test]
fn dp_fedavg_restart_is_a_non_event_when_always_on() {
    assert_restart_is_a_non_event_for(
        |init, _| DpFedAvg::new(init, central_dp(0.4), 101),
        AvailabilityModel::AlwaysOn,
        "dp-fedavg-on",
        check_epsilon_survives,
    );
}

#[test]
fn dp_fedavg_restart_is_a_non_event_under_random_dropout() {
    // Local placement under dropout: the per-client noise streams (keyed by
    // client id) must reproduce even when the set of responders varies.
    let local = DpConfig {
        clip_norm: 2.0,
        noise_multiplier: 0.2,
        placement: NoisePlacement::Local,
    };
    assert_restart_is_a_non_event_for(
        |init, _| DpFedAvg::new(init, local, 103),
        AvailabilityModel::RandomDropout { prob: 0.3 },
        "dp-fedavg-drop",
        check_epsilon_survives,
    );
}

#[test]
fn dp_fedcross_restart_is_a_non_event_when_always_on() {
    assert_restart_is_a_non_event_for(
        |init, _| {
            DpFedCross::new(
                DpFedCrossConfig {
                    dp: central_dp(0.3),
                    ..Default::default()
                },
                init,
                3,
                105,
            )
        },
        AvailabilityModel::AlwaysOn,
        "dp-fedcross-on",
        |whole, resumed| {
            let (a, b) = (whole.epsilon(1e-5).unwrap(), resumed.epsilon(1e-5).unwrap());
            assert_eq!(a.to_bits(), b.to_bits(), "spent epsilon diverged");
        },
    );
}

#[test]
fn dp_fedcross_restart_is_a_non_event_under_random_dropout() {
    assert_restart_is_a_non_event_for(
        |init, _| {
            DpFedCross::new(
                DpFedCrossConfig {
                    dp: central_dp(0.3),
                    ..Default::default()
                },
                init,
                3,
                107,
            )
        },
        AvailabilityModel::RandomDropout { prob: 0.3 },
        "dp-fedcross-drop",
        |whole, resumed| {
            let (a, b) = (whole.epsilon(1e-5).unwrap(), resumed.epsilon(1e-5).unwrap());
            assert_eq!(a.to_bits(), b.to_bits(), "spent epsilon diverged");
        },
    );
}

#[test]
fn compressed_fedavg_restart_is_a_non_event_without_error_feedback() {
    // Stochastic (dithered) quantization exercises the round-derived
    // compression streams; the upload counters must survive resume exactly.
    for availability in [
        AvailabilityModel::AlwaysOn,
        AvailabilityModel::RandomDropout { prob: 0.3 },
    ] {
        assert_restart_is_a_non_event_for(
            |init, _| {
                CompressedFedAvg::new(init, Box::new(UniformQuantizer::new(4, true)), false, 109)
            },
            availability,
            "compressed-quant",
            |whole, resumed| {
                assert_eq!(whole.upload_stats(), resumed.upload_stats());
                assert!(whole.upload_stats().uploads > 0);
            },
        );
    }
}

#[test]
fn compressed_fedavg_restart_is_a_non_event_with_error_feedback() {
    // Top-k with error feedback: the per-client residual memory is part of
    // the cross-round state and must restore exactly.
    for availability in [
        AvailabilityModel::AlwaysOn,
        AvailabilityModel::RandomDropout { prob: 0.3 },
    ] {
        assert_restart_is_a_non_event_for(
            |init, _| CompressedFedAvg::new(init, Box::new(TopK::new(0.25)), true, 111),
            availability,
            "compressed-topk-ef",
            |whole, resumed| {
                assert_eq!(whole.upload_stats(), resumed.upload_stats());
            },
        );
    }
}

#[test]
fn secure_agg_restart_is_a_non_event() {
    for (availability, tag) in [
        (AvailabilityModel::AlwaysOn, "secureagg-on"),
        (AvailabilityModel::RandomDropout { prob: 0.3 }, "secureagg-drop"),
    ] {
        assert_restart_is_a_non_event_for(
            |init, _| SecureAggFedAvg::new(init, 25.0, 113),
            availability,
            tag,
            |_, _| {},
        );
    }
}

// ---------------------------------------------------------------------------
// Robustness plane: adversarial runs must resume bitwise-identically too.
// The adversary's compromised set and colluding targets are derived from
// round-keyed streams, so a mid-run restart cannot shift who attacks or how.
// ---------------------------------------------------------------------------

#[test]
fn robust_fedavg_restart_is_a_non_event_under_attack_and_dropout() {
    for (rule, attack, tag) in [
        (
            RobustRule::Median,
            Attack::ScaledUpdate { factor: 25.0 },
            "robust-fedavg-median-scaled",
        ),
        (
            RobustRule::TrimmedMean { trim: 0.25 },
            Attack::SignFlip { scale: 4.0 },
            "robust-fedavg-trimmed-signflip",
        ),
        (
            RobustRule::Krum { f: 1, m: 1 },
            Attack::Colluding { magnitude: 8.0 },
            "robust-fedavg-krum-colluding",
        ),
    ] {
        assert_restart_is_a_non_event_under(
            |init, num_clients| {
                Boxed(build_algorithm(
                    AlgorithmSpec::RobustFedAvg { rule },
                    init,
                    num_clients,
                    3,
                ))
            },
            AvailabilityModel::RandomDropout { prob: 0.3 },
            Some(AdversaryModel {
                attack,
                fraction: 0.34,
                seed: 41,
            }),
            tag,
            |_, _| {},
        );
    }
}

#[test]
fn robust_fedcross_restart_is_a_non_event_under_attack_and_dropout() {
    for (rule, attack, tag) in [
        (
            RobustRule::TrimmedMean { trim: 0.34 },
            Attack::ScaledUpdate { factor: 25.0 },
            "robust-fedcross-trimmed-scaled",
        ),
        (
            RobustRule::NormBound { max_norm: 0.5 },
            Attack::LabelFlip,
            "robust-fedcross-normbound-labelflip",
        ),
    ] {
        assert_restart_is_a_non_event_under(
            |init, num_clients| {
                Boxed(build_algorithm(
                    AlgorithmSpec::RobustFedCross { alpha: 0.9, rule },
                    init,
                    num_clients,
                    3,
                ))
            },
            AvailabilityModel::RandomDropout { prob: 0.3 },
            Some(AdversaryModel {
                attack,
                fraction: 0.34,
                seed: 41,
            }),
            tag,
            |_, _| {},
        );
    }
}

// ---------------------------------------------------------------------------
// Fault plane: adversary × fault × dropout × straggler compositions must
// resume bitwise too. Fates and latencies are drawn from round-keyed streams
// (FaultDraw / DeviceSpeed / LatencyDraw), so a restart cannot shift who
// crashes, stalls, duplicates or misses a deadline.
// ---------------------------------------------------------------------------

fn noisy_transport() -> FaultPlan {
    FaultPlan {
        crash_prob: 0.15,
        stall_prob: 0.2,
        max_stall: 2,
        duplicate_prob: 0.2,
        server_fail_prob: 0.1,
        max_retries: 2,
        seed: 19,
    }
}

#[test]
fn fedcross_restart_is_a_non_event_under_faults_attack_and_dropout() {
    assert_restart_is_a_non_event_in_plane(
        |init, num_clients| {
            Boxed(build_algorithm(
                AlgorithmSpec::fedcross_default(),
                init,
                num_clients,
                3,
            ))
        },
        AvailabilityModel::RandomDropout { prob: 0.3 },
        Some(AdversaryModel {
            attack: Attack::ScaledUpdate { factor: 25.0 },
            fraction: 0.34,
            seed: 41,
        }),
        RoundPolicy::Synchronous,
        Some(noisy_transport()),
        None,
        "fedcross-faults-attack-drop",
        |_, _| {},
    );
}

#[test]
fn fedcross_deadline_restart_is_a_non_event_under_stragglers_and_faults() {
    assert_restart_is_a_non_event_in_plane(
        |init, num_clients| {
            Boxed(build_algorithm(
                AlgorithmSpec::fedcross_default(),
                init,
                num_clients,
                3,
            ))
        },
        AvailabilityModel::RandomDropout { prob: 0.2 },
        None,
        RoundPolicy::Deadline {
            budget: 2.0,
            min_quorum: 1,
        },
        Some(noisy_transport()),
        Some(DeviceModel {
            straggler_fraction: 0.4,
            slowdown: 8.0,
            jitter: 0.2,
            seed: 13,
        }),
        "fedcross-deadline-stragglers",
        |_, _| {},
    );
}

#[test]
fn robust_fedavg_deadline_restart_is_a_non_event_under_attack() {
    assert_restart_is_a_non_event_in_plane(
        |init, num_clients| {
            Boxed(build_algorithm(
                AlgorithmSpec::RobustFedAvg {
                    rule: RobustRule::TrimmedMean { trim: 0.25 },
                },
                init,
                num_clients,
                3,
            ))
        },
        AvailabilityModel::AlwaysOn,
        Some(AdversaryModel {
            attack: Attack::SignFlip { scale: 4.0 },
            fraction: 0.34,
            seed: 41,
        }),
        RoundPolicy::Deadline {
            budget: 2.0,
            min_quorum: 2,
        },
        Some(noisy_transport()),
        Some(DeviceModel::two_tier(0.4, 4.0, 23)),
        "robust-fedavg-deadline-attack",
        |_, _| {},
    );
}

#[test]
fn buffered_algorithms_restart_is_a_non_event_mid_buffer() {
    use fedcross::buffered::{BufferedFedAvg, BufferedFedCross, BufferedFedCrossConfig};
    let policy = RoundPolicy::Buffered {
        goal_k: 2,
        max_staleness: 3,
    };
    let devices = DeviceModel::two_tier(0.5, 3.0, 17);
    let faults = FaultPlan {
        stall_prob: 0.3,
        max_stall: 2,
        duplicate_prob: 0.2,
        ..Default::default()
    };
    assert_restart_is_a_non_event_in_plane(
        |init, num_clients| BufferedFedAvg::new(0.5, init, num_clients),
        AvailabilityModel::RandomDropout { prob: 0.2 },
        None,
        policy,
        Some(faults),
        Some(devices),
        "buffered-fedavg-mid-buffer",
        |whole, resumed| {
            // The pending stores themselves end identical, entry for entry.
            assert_eq!(whole.inflight(), resumed.inflight());
            assert_eq!(whole.buffer(), resumed.buffer());
        },
    );
    assert_restart_is_a_non_event_in_plane(
        |init, num_clients| {
            BufferedFedCross::new(BufferedFedCrossConfig::default(), init, 3, num_clients)
        },
        AvailabilityModel::AlwaysOn,
        None,
        policy,
        Some(faults),
        Some(devices),
        "buffered-fedcross-mid-buffer",
        |whole, resumed| {
            assert_eq!(whole.inflight(), resumed.inflight());
            assert_eq!(whole.buffer(), resumed.buffer());
        },
    );
}

#[test]
fn a_checkpoint_resumed_under_a_different_round_policy_or_fault_plan_is_rejected() {
    // The config fingerprint covers RoundPolicy, FaultPlan and DeviceModel:
    // any of them changing between checkpoint and resume changes the
    // trajectory, so the resume must refuse instead of silently splicing.
    let (data, template) = setup(7);
    let config = sim_config(6, 2);
    let sim = Simulation::new(config, &data, template.clone_model());
    let build =
        || build_algorithm(AlgorithmSpec::FedAvg, template.params_flat(), data.num_clients(), 3);

    let mut algo = build();
    let partial = sim.run_segment(algo.as_mut(), 0, 2);
    let checkpoint = sim.checkpoint(algo.as_ref(), &partial).expect("snapshot supported");

    let variants: Vec<(&str, Simulation<'_>)> = vec![
        (
            "deadline policy",
            Simulation::new(config, &data, template.clone_model()).with_round_policy(
                RoundPolicy::Deadline {
                    budget: 2.0,
                    min_quorum: 1,
                },
            ),
        ),
        (
            "buffered policy",
            Simulation::new(config, &data, template.clone_model()).with_round_policy(
                RoundPolicy::Buffered {
                    goal_k: 2,
                    max_staleness: 3,
                },
            ),
        ),
        (
            "fault plan",
            Simulation::new(config, &data, template.clone_model())
                .with_faults(noisy_transport()),
        ),
        (
            "device model",
            Simulation::new(config, &data, template.clone_model())
                .with_devices(DeviceModel::two_tier(0.4, 8.0, 13)),
        ),
    ];
    for (what, other_sim) in variants {
        let mut fresh = build();
        assert!(
            matches!(
                other_sim.resume(&checkpoint, fresh.as_mut()),
                Err(ResumeError::ConfigMismatch { .. })
            ),
            "resuming under a different {what} must be rejected"
        );
    }

    // Same fault plan but a different fault seed is a different trajectory.
    let faulty_sim =
        Simulation::new(config, &data, template.clone_model()).with_faults(noisy_transport());
    let mut algo = build();
    let partial = faulty_sim.run_segment(algo.as_mut(), 0, 2);
    let checkpoint = faulty_sim
        .checkpoint(algo.as_ref(), &partial)
        .expect("snapshot supported");
    let mut reseeded = noisy_transport();
    reseeded.seed = 20;
    let other_seed_sim =
        Simulation::new(config, &data, template.clone_model()).with_faults(reseeded);
    let mut fresh = build();
    assert!(matches!(
        other_seed_sim.resume(&checkpoint, fresh.as_mut()),
        Err(ResumeError::ConfigMismatch { .. })
    ));
    // And the matching plan still resumes fine.
    let mut fresh = build();
    assert!(faulty_sim.resume(&checkpoint, fresh.as_mut()).is_ok());
}

// ---------------------------------------------------------------------------
// Order independence: permuting upload arrival order must produce a bitwise
// identical round (noise keyed by client/slot, canonical aggregation order).
// ---------------------------------------------------------------------------

fn fake_update(client: usize, dim: usize) -> LocalUpdate {
    let params: Vec<f32> = (0..dim)
        .map(|i| ((client * 31 + i * 7) % 13) as f32 * 0.05 - 0.3)
        .collect();
    LocalUpdate {
        client,
        params: ParamBlock::from(params),
        num_samples: 10 + client,
        train_loss: 0.5 + client as f32 * 0.125,
        steps: 4,
    }
}

fn assert_reports_match(a: &RoundReport, b: &RoundReport) {
    assert_eq!(a.participants, b.participants);
    assert_eq!(a.total_samples, b.total_samples);
    assert_eq!(a.mean_train_loss.to_bits(), b.mean_train_loss.to_bits());
}

#[test]
fn dp_fedavg_round_is_independent_of_upload_order() {
    let dim = 48;
    let init = vec![0.1f32; dim];
    for placement in [NoisePlacement::Central, NoisePlacement::Local] {
        let dp = DpConfig {
            clip_norm: 1.0,
            noise_multiplier: 0.8,
            placement,
        };
        let updates: Vec<LocalUpdate> =
            [4usize, 0, 7, 2].iter().map(|&c| fake_update(c, dim)).collect();
        let mut permuted = updates.clone();
        permuted.reverse();
        permuted.swap(0, 2);

        let mut a = DpFedAvg::new(init.clone(), dp, 9);
        let mut b = DpFedAvg::new(init.clone(), dp, 9);
        let report_a = a.apply_updates(5, 10, &updates);
        let report_b = b.apply_updates(5, 10, &permuted);
        assert!(
            bitwise_eq(&a.global_params(), &b.global_params()),
            "{placement}: permuted upload order changed the DP-FedAvg round"
        );
        assert_reports_match(&report_a, &report_b);
        // And the noise genuinely fired (the round is not a no-op).
        assert!(!bitwise_eq(&a.global_params(), &init));
    }
}

#[test]
fn dp_fedcross_round_is_independent_of_upload_order() {
    let dim = 48;
    let init = vec![0.1f32; dim];
    let config = DpFedCrossConfig {
        dp: DpConfig {
            clip_norm: 1.0,
            noise_multiplier: 0.8,
            placement: NoisePlacement::Central,
        },
        ..Default::default()
    };
    let selected = vec![5usize, 2, 7];
    // Full round and a dropout round (slot 1's client never responded).
    for returned in [vec![5usize, 2, 7], vec![7usize, 5]] {
        let updates: Vec<LocalUpdate> =
            returned.iter().map(|&c| fake_update(c, dim)).collect();
        let mut permuted = updates.clone();
        permuted.reverse();

        let mut a = DpFedCross::new(config, init.clone(), 3, 9);
        let mut b = DpFedCross::new(config, init.clone(), 3, 9);
        let report_a = a.apply_updates(5, 10, &selected, &updates);
        let report_b = b.apply_updates(5, 10, &selected, &permuted);
        for (slot, (ma, mb)) in a.middleware().iter().zip(b.middleware()).enumerate() {
            assert!(
                bitwise_eq(ma, mb),
                "middleware slot {slot} diverged under permuted upload order"
            );
        }
        assert_reports_match(&report_a, &report_b);
    }
}

#[test]
fn compressed_fedavg_round_is_independent_of_upload_order() {
    let dim = 48;
    let init = vec![0.1f32; dim];
    type MakeCompressor = fn() -> Box<dyn Compressor>;
    let schemes: Vec<(MakeCompressor, bool)> = vec![
        (|| Box::new(UniformQuantizer::new(4, true)), false), // dithered rng path
        (|| Box::new(TopK::new(0.25)), true),                 // residual-memory path
    ];
    for (make_compressor, error_feedback) in schemes {
        let updates: Vec<LocalUpdate> =
            [4usize, 0, 7, 2].iter().map(|&c| fake_update(c, dim)).collect();
        let mut permuted = updates.clone();
        permuted.rotate_left(2);

        let mut a = CompressedFedAvg::new(init.clone(), make_compressor(), error_feedback, 9);
        let mut b = CompressedFedAvg::new(init.clone(), make_compressor(), error_feedback, 9);
        let report_a = a.apply_updates(5, &updates);
        let report_b = b.apply_updates(5, &permuted);
        assert!(
            bitwise_eq(&a.global_params(), &b.global_params()),
            "permuted upload order changed the compressed round (EF={error_feedback})"
        );
        assert_eq!(a.upload_stats(), b.upload_stats());
        assert_reports_match(&report_a, &report_b);
        // The residual memories end identical too: a second, deterministic
        // round from both instances produces the same model.
        let next: Vec<LocalUpdate> =
            [2usize, 7].iter().map(|&c| fake_update(c, dim)).collect();
        let _ = a.apply_updates(6, &next);
        let _ = b.apply_updates(6, &next);
        assert!(bitwise_eq(&a.global_params(), &b.global_params()));
    }
}

// ---------------------------------------------------------------------------
// Calibration fixes: central noise scales with *returned* uploads, and the
// accountant follows the actual participation rate under dropout.
// ---------------------------------------------------------------------------

#[test]
fn dp_fedcross_central_noise_calibrates_to_returned_uploads() {
    // One returned upload with a zero delta: the updated middleware model is
    // pure central noise. Its std must be z·C / 1 (returned count), not
    // z·C / K — the old behaviour divided by the configured K even when
    // clients dropped out, under-noising the release by K×.
    let dim = 4096;
    let config = DpFedCrossConfig {
        dp: DpConfig {
            clip_norm: 1.0,
            noise_multiplier: 1.0,
            placement: NoisePlacement::Central,
        },
        ..Default::default()
    };
    let mut algo = DpFedCross::new(config, vec![0.0f32; dim], 4, 21);
    let selected = vec![0usize, 1, 2, 3];
    let update = LocalUpdate {
        client: 2,
        params: ParamBlock::from(vec![0.0f32; dim]),
        num_samples: 10,
        train_loss: 1.0,
        steps: 1,
    };
    let report = algo.apply_updates(0, 8, &selected, &[update]);
    assert_eq!(report.participants, 1);
    let noise_std = std_dev_of(&algo.middleware()[2]);
    assert!(
        (noise_std - 1.0).abs() < 0.05,
        "single-upload central noise std should be z·C = 1.0, got {noise_std} \
         (0.25 would mean it was calibrated to the configured K again)"
    );
    // The untouched slots skipped the round entirely.
    for slot in [0usize, 1, 3] {
        assert!(algo.middleware()[slot].iter().all(|&v| v == 0.0));
    }
}

#[test]
fn accountant_follows_actual_participation_under_dropout() {
    // Same schedule with and without dropout: dropout rounds sample fewer
    // clients, so the spent epsilon must be strictly smaller than both the
    // full-participation run and the frozen-rate projection that ignores
    // dropout (the old `ensure_accountant` froze q at the first round).
    let (data, template) = setup(6);
    let config = sim_config(6, 2);
    let run = |availability: AvailabilityModel| {
        let mut algo = DpFedAvg::new(template.params_flat(), central_dp(0.8), 115);
        let result = Simulation::new(config, &data, template.clone_model())
            .with_availability(availability)
            .run(&mut algo);
        let accountant = algo.accountant().unwrap().clone();
        (accountant, result.comm.client_contacts)
    };
    let (full, full_contacts) = run(AvailabilityModel::AlwaysOn);
    let (dropped, dropped_contacts) = run(AvailabilityModel::RandomDropout { prob: 0.4 });
    assert_eq!(full_contacts, 18, "6 rounds x 3 clients");
    assert!(
        dropped_contacts < full_contacts,
        "this seed must actually drop clients for the test to be meaningful"
    );
    let eps_full = full.epsilon(1e-5);
    let eps_dropped = dropped.epsilon(1e-5);
    let eps_frozen_projection = dropped.epsilon_after(dropped.rounds(), 1e-5);
    assert!(
        eps_dropped < eps_full,
        "dropout must spend less budget ({eps_dropped} vs {eps_full})"
    );
    assert!(
        eps_dropped < eps_frozen_projection,
        "spent budget must track actual rates, not the frozen nominal q"
    );
}

// ---------------------------------------------------------------------------
// Checkpoint validation and corruption safety.
// ---------------------------------------------------------------------------

#[test]
fn resume_aligns_eval_cadence_even_from_an_off_cadence_checkpoint() {
    // Checkpoint at round 2, between the eval rounds 0 and 3 of an
    // eval_every = 3 schedule: the resumed run must evaluate at exactly the
    // absolute rounds the uninterrupted run does.
    let (data, template) = setup(6);
    let config = sim_config(7, 3);
    let sim = Simulation::new(config, &data, template.clone_model());
    let build =
        || build_algorithm(AlgorithmSpec::FedAvg, template.params_flat(), data.num_clients(), 3);

    let mut whole = build();
    let uninterrupted = sim.run(whole.as_mut());
    let expected: Vec<usize> =
        uninterrupted.history.records().iter().map(|r| r.round).collect();
    assert_eq!(expected, vec![0, 3, 6]);

    let mut first = build();
    let partial = sim.run_segment(first.as_mut(), 0, 2);
    let checkpoint = sim.checkpoint(first.as_ref(), &partial).expect("snapshot supported");
    let mut fresh = build();
    let resumed = sim.resume(&checkpoint, fresh.as_mut()).expect("resume succeeds");
    let rounds: Vec<usize> = resumed.history.records().iter().map(|r| r.round).collect();
    assert_eq!(rounds, expected, "cadence must be anchored to absolute rounds");
    assert_eq!(resumed.history, uninterrupted.history);
}

#[test]
fn a_foreign_checkpoint_is_rejected_loudly() {
    let (data, template) = setup(7);
    let config = sim_config(6, 2);
    let sim = Simulation::new(config, &data, template.clone_model());

    // A FedAvg checkpoint must not silently feed a FedCross run.
    let mut fedavg =
        build_algorithm(AlgorithmSpec::FedAvg, template.params_flat(), data.num_clients(), 3);
    let partial = sim.run_segment(fedavg.as_mut(), 0, 2);
    let checkpoint = sim.checkpoint(fedavg.as_ref(), &partial).expect("snapshot supported");

    let mut fedcross = build_algorithm(
        AlgorithmSpec::fedcross_default(),
        template.params_flat(),
        data.num_clients(),
        3,
    );
    match sim.resume(&checkpoint, fedcross.as_mut()) {
        Err(ResumeError::AlgorithmMismatch { checkpoint, resuming }) => {
            assert_eq!(checkpoint, "fedavg");
            assert!(resuming.contains("fedcross"));
        }
        other => panic!("expected AlgorithmMismatch, got {other:?}"),
    }

    // A checkpoint from a different template size must not load either.
    let mut rng = SeededRng::new(8);
    let small = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (2, 2),
            fc_hidden: 4,
            kernel: 3,
        },
        &mut rng,
    );
    let small_sim = Simulation::new(config, &data, small.clone_model());
    let mut fresh =
        build_algorithm(AlgorithmSpec::FedAvg, small.params_flat(), data.num_clients(), 3);
    assert!(matches!(
        small_sim.resume(&checkpoint, fresh.as_mut()),
        Err(ResumeError::ParamCountMismatch { .. })
    ));

    // A different availability model changes the trajectory: rejected.
    let dropout_sim = Simulation::new(config, &data, template.clone_model())
        .with_availability(AvailabilityModel::RandomDropout { prob: 0.3 });
    let mut fresh =
        build_algorithm(AlgorithmSpec::FedAvg, template.params_flat(), data.num_clients(), 3);
    assert!(matches!(
        dropout_sim.resume(&checkpoint, fresh.as_mut()),
        Err(ResumeError::ConfigMismatch { .. })
    ));

    // A different federation (here: more clients) changes the trajectory
    // too — the fingerprint covers the dataset shape, so this is rejected
    // instead of silently resuming with different client selections.
    let mut rng = SeededRng::new(11);
    let other_data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 8,
            samples_per_client: 12,
            test_samples: 40,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    );
    let other_data_sim = Simulation::new(config, &other_data, template.clone_model());
    let mut fresh = build_algorithm(
        AlgorithmSpec::FedAvg,
        template.params_flat(),
        other_data.num_clients(),
        3,
    );
    assert!(matches!(
        other_data_sim.resume(&checkpoint, fresh.as_mut()),
        Err(ResumeError::ConfigMismatch { .. })
    ));
}

#[test]
fn a_middleware_count_mismatch_is_rejected_loudly() {
    use fedcross::{FedCross, FedCrossConfig};
    // A K = 4 FedCross state must not restore into a K = 3 instance, even
    // though the algorithm family matches.
    let init = vec![0.5f32; 16];
    let four = FedCross::new(FedCrossConfig::default(), init.clone(), 4);
    let mut three = FedCross::new(FedCrossConfig::default(), init, 3);
    let err = three
        .restore_state(&four.snapshot_state().expect("snapshot supported"))
        .expect_err("K mismatch must fail");
    assert!(
        err.to_string().contains("middleware count mismatch"),
        "unexpected error: {err}"
    );
}

#[test]
fn a_checkpoint_resumed_under_a_different_noise_seed_is_rejected() {
    // Round-derived noise makes the trajectory a function of the seed, so
    // the DP and compressed algorithm names encode it — a resume with a
    // different noise/dither seed must fail the name check instead of
    // silently splicing two noise sequences.
    let (data, template) = setup(11);
    let config = sim_config(4, 2);
    let sim = Simulation::new(config, &data, template.clone_model());

    let mut dp = DpFedAvg::new(template.params_flat(), central_dp(0.4), 101);
    let partial = sim.run_segment(&mut dp, 0, 2);
    let checkpoint = sim.checkpoint(&dp, &partial).expect("snapshot supported");
    let mut other_seed = DpFedAvg::new(template.params_flat(), central_dp(0.4), 102);
    assert!(matches!(
        sim.resume(&checkpoint, &mut other_seed),
        Err(ResumeError::AlgorithmMismatch { .. })
    ));

    let make = |seed| {
        CompressedFedAvg::new(
            template.params_flat(),
            Box::new(UniformQuantizer::new(4, true)),
            false,
            seed,
        )
    };
    let mut compressed = make(109);
    let partial = sim.run_segment(&mut compressed, 0, 2);
    let checkpoint = sim.checkpoint(&compressed, &partial).expect("snapshot supported");
    let mut other_seed = make(110);
    assert!(matches!(
        sim.resume(&checkpoint, &mut other_seed),
        Err(ResumeError::AlgorithmMismatch { .. })
    ));
}

#[test]
fn a_compressed_checkpoint_without_its_residual_table_is_rejected() {
    // An EF-enabled CompressedFedAvg must refuse a state whose residual
    // table is missing (a hand-edited or cross-built checkpoint) instead of
    // silently resuming with an empty memory.
    let init = vec![0.0f32; 8];
    let mut with_ef = CompressedFedAvg::new(init.clone(), Box::new(TopK::new(0.5)), true, 1);
    let without_ef = CompressedFedAvg::new(init, Box::new(TopK::new(0.5)), false, 1);
    let state = without_ef.snapshot_state().expect("snapshot supported");
    let err = with_ef
        .restore_state(&state)
        .expect_err("missing residual table must fail");
    assert!(err.to_string().contains("ef_residuals"), "unexpected error: {err}");
}

#[test]
fn checkpoint_corruption_cannot_happen_mid_save_and_is_detected_on_load() {
    let (data, template) = setup(9);
    let config = sim_config(4, 2);
    let sim = Simulation::new(config, &data, template.clone_model());
    let mut algo =
        build_algorithm(AlgorithmSpec::FedAvg, template.params_flat(), data.num_clients(), 3);
    let partial = sim.run_segment(algo.as_mut(), 0, 2);
    let checkpoint = sim.checkpoint(algo.as_ref(), &partial).expect("snapshot supported");

    let dir = std::env::temp_dir().join("fedcross-resume-plane-corruption");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt");
    checkpoint.save(&path).expect("initial save succeeds");

    // A "crash" during a later save (simulated by blocking the temp path)
    // must leave the previous checkpoint fully intact and loadable.
    let tmp = dir.join("ckpt.tmp");
    std::fs::create_dir_all(&tmp).unwrap();
    assert!(checkpoint.save(&path).is_err(), "blocked temp write must error");
    let survivor = Checkpoint::load(&path).expect("previous checkpoint survives");
    assert_eq!(survivor, checkpoint);
    std::fs::remove_dir_all(&tmp).unwrap();

    // A truncated file — what a non-atomic in-place write would leave after
    // a crash — is detected on load instead of half-restoring.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = Checkpoint::load(&path).expect_err("truncated checkpoint must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resumed_run_can_extend_the_total_round_count() {
    // The fingerprint deliberately excludes `rounds`: a checkpoint from a
    // 4-round config resumes under a 6-round config (same everything else),
    // and the overlapping prefix stays bitwise identical.
    let (data, template) = setup(10);
    let short = sim_config(4, 2);
    let long = sim_config(6, 2);
    let build =
        || build_algorithm(AlgorithmSpec::FedAvg, template.params_flat(), data.num_clients(), 3);

    let short_sim = Simulation::new(short, &data, template.clone_model());
    let mut algo = build();
    let partial = short_sim.run_segment(algo.as_mut(), 0, 2);
    let checkpoint = short_sim
        .checkpoint(algo.as_ref(), &partial)
        .expect("snapshot supported");

    let long_sim = Simulation::new(long, &data, template.clone_model());
    let mut extended = build();
    let resumed = long_sim
        .resume(&checkpoint, extended.as_mut())
        .expect("longer run accepts the checkpoint");
    assert_eq!(resumed.rounds_completed, 6);

    let mut reference = build();
    let uninterrupted = long_sim.run(reference.as_mut());
    assert!(bitwise_eq(&reference.global_params(), &extended.global_params()));
    assert_eq!(resumed.history, uninterrupted.history);
}
