//! The traced replay is trusted only because it reproduces the real code
//! bit for bit. On small configurations of each server and data path this
//! checks that it does — the replayed global-model trajectory equals the
//! real `run_round` trajectory, a replayed client round equals
//! `ClientWorker::train` — and that a traced run whose replay does not match
//! is refused rather than reported.

use std::path::Path;

use fedcross_flsim::ClientWorkerPool;
use fedcross_flsim::LocalTrainConfig;
use fedcross_nn::models::CnnConfig;
use fedcross_tensor::SeededRng;
use flbench::gate;
use flbench::modes::traced_report;
use flbench::replay::{
    check_client_update, replay_client, representative_client, run_traced, verify_trajectory,
};
use flbench::run::run_untraced;
use flbench::workload::{Arch, DataSpec, Server, Workload, CNN_NONIID_TRAIN};

const SEED: u64 = 3;
const ROUNDS: usize = 9;

fn scratch() -> &'static Path {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
}

fn small(
    name: &'static str,
    server: Server,
    data: DataSpec,
    arch: Arch,
    checkpoint: bool,
) -> Workload {
    Workload {
        name,
        server,
        data,
        test_samples: 40,
        arch,
        k: 4,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 5,
            lr: 0.1,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        eval_every: 2,
        min_rounds: ROUNDS,
        rounds_per_second: 1.0,
        checkpoint,
    }
}

const TINY_CNN: Arch = Arch::Cnn(CnnConfig {
    conv_channels: (2, 4),
    fc_hidden: 8,
    kernel: 3,
});

fn configurations() -> Vec<Workload> {
    let eager = DataSpec::Eager {
        clients: 9,
        samples: 12,
        beta: 0.5,
    };
    vec![
        // FedCross with a mid-run checkpoint, save, load and resume.
        small("small_cross_ckpt", Server::FedCross, eager, TINY_CNN, true),
        // FedCross above the parallel-fusion threshold (K·d ≥ 2^16).
        small(
            "small_cross_mlp",
            Server::FedCross,
            eager,
            Arch::Mlp(&[24]),
            false,
        ),
        // FedAvg over a lazy plane past the sparse-selection threshold.
        small(
            "small_avg_lazy",
            Server::FedAvg,
            DataSpec::Lazy {
                clients: 5_000,
                samples: 10,
                beta: 0.3,
                cache: 6,
                prefetch: 3,
            },
            TINY_CNN,
            false,
        ),
    ]
}

#[test]
fn replayed_trajectories_equal_the_real_run_bit_for_bit() {
    for workload in configurations() {
        let real = run_untraced(&workload.build(SEED), SEED, ROUNDS, scratch()).expect("real run");
        let setup = workload.build(SEED);
        let replayed = run_traced(&setup, SEED, ROUNDS, scratch()).expect("replay");
        verify_trajectory(&real, &replayed)
            .unwrap_or_else(|e| panic!("{:?} / {:?}: {e}", workload.server, workload.data));
        assert_eq!(replayed.round_ms.len(), ROUNDS);
        assert_eq!(
            replayed.warm.iter().filter(|w| !**w).count(),
            1 + usize::from(workload.checkpoint)
        );

        // These small runs are too short to learn, so the gate may fail
        // them; the replay itself must not be refused.
        let gate_failures = gate::check(&real, workload.k).failures;
        let report = traced_report(&setup, SEED, &real, Ok(replayed));
        assert_eq!(report.failures, gate_failures);
    }
}

#[test]
fn replayed_client_round_equals_the_worker_bit_for_bit() {
    for workload in configurations() {
        let setup = workload.build(SEED);
        let client = representative_client(&setup);
        let params = setup.template.params_flat();
        let rng = SeededRng::new(SEED).fork(client as u64 + 1);
        let spans = replay_client(&setup, &params, client, &rng, 3).expect("bitwise replay");
        assert_eq!(
            spans.samples,
            workload.local.epochs * setup.shard(client).len()
        );

        // The check itself refuses a single flipped bit.
        let shard = setup.shard(client);
        let mut pool = ClientWorkerPool::new();
        let update = pool.ensure(1, setup.template.as_ref())[0].train(
            client,
            &params,
            &shard,
            &workload.local,
            &mut rng.clone(),
            None,
        );
        let mut tampered = update.params.to_vec();
        check_client_update(&update, &tampered, update.train_loss).expect("identical");
        tampered[0] = f32::from_bits(tampered[0].to_bits() ^ 1);
        assert!(check_client_update(&update, &tampered, update.train_loss).is_err());
    }
}

#[test]
fn a_replay_that_does_not_match_is_refused() {
    // Another seed than the other tests: checkpoint files are named by
    // workload and seed, and tests run concurrently.
    let seed = SEED + 1;
    let workload = configurations().remove(0);
    let setup = workload.build(seed);
    let real = run_untraced(&setup, seed, ROUNDS, scratch()).expect("real run");
    let mut replayed = run_traced(&setup, seed, ROUNDS, scratch()).expect("replay");
    let last = replayed.final_global.len() - 1;
    replayed.final_global[last] = f32::from_bits(replayed.final_global[last].to_bits() ^ 1);
    assert!(verify_trajectory(&real, &replayed).is_err());

    let report = traced_report(&setup, seed, &real, Ok(replayed));
    assert!(!report.correct());
    assert!(report.metrics.is_empty());
    assert!(report.json_line().contains("\"metrics\": {}"));
}

#[test]
fn a_verified_replay_reports_every_per_layer_metric_of_benchmark_json() {
    let rounds = 21;
    let workload = CNN_NONIID_TRAIN;
    let setup = workload.build(SEED);
    let real = run_untraced(&setup, SEED, rounds, scratch()).expect("real run");
    let replayed = run_traced(&setup, SEED, rounds, scratch());
    let report = traced_report(&setup, SEED, &real, replayed);
    assert!(report.correct(), "{:?}", report.failures);

    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let per_layer = &manifest[manifest.find("\"per_layer\"").expect("per_layer list")..];
    for metric in &report.metrics {
        let entry = format!(
            "\"name\": \"{}\",\n      \"unit\": \"{}\"",
            metric.name, metric.unit
        );
        assert!(
            per_layer.contains(&entry),
            "{} ({}) is not listed",
            metric.name,
            metric.unit
        );
    }
    assert_eq!(per_layer.matches("\"name\"").count(), report.metrics.len());
}
