//! The correctness gate must reject a run that diverged, and must never let
//! a diverged run's numbers through as results.
//!
//! Known defect kept visible here: the headline workload
//! (`cnn_noniid_train`) at the harness's learning rate 0.05 instead of the
//! paper's 0.01 diverges on the experiment harness's own Dirichlet split
//! (`build_task`, which cuts each class across clients, so client sizes
//! vary). At seed 42 the round-0 train loss is 12.47 (chance is ln 10 ≈
//! 2.3), every later round's train loss is NaN, and the NaN model still
//! "evaluates" to 8.00% accuracy. FedAvg on the same data learns at that
//! rate. The benchmark's own workloads give every client the same number of
//! samples; these tests keep the split the defect was found on.

use std::path::Path;

use fedcross_bench::{build_task, ExperimentConfig, TaskSpec};
use fedcross_data::Heterogeneity;
use fedcross_tensor::SeededRng;
use flbench::gate;
use flbench::report::{Metric, Report};
use flbench::run::run_untraced;
use flbench::workload::{DataSpec, Federation, Server, Setup, Workload, CNN_NONIID_TRAIN};

const SEED: u64 = 42;
const ROUNDS: usize = 10;

fn scratch() -> &'static Path {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
}

/// `workload` over the experiment harness's CIFAR-10 stand-in and split.
fn harness_setup(workload: Workload) -> Setup {
    let DataSpec::Eager {
        clients,
        samples,
        beta,
    } = workload.data
    else {
        panic!("the headline workload holds its data eagerly");
    };
    let scale = ExperimentConfig {
        num_clients: clients,
        clients_per_round: workload.k,
        samples_per_client: samples,
        test_samples: workload.test_samples,
        ..ExperimentConfig::default()
    };
    let data = build_task(
        TaskSpec::Cifar10(Heterogeneity::Dirichlet(beta)),
        &scale,
        SEED,
    );
    Setup {
        workload,
        federation: Federation::Eager(data),
        template: workload
            .arch
            .build(&mut SeededRng::new(SEED.wrapping_add(1))),
    }
}

#[test]
fn diverging_learning_rate_is_reported_as_a_failure_not_an_accuracy() {
    let mut workload = CNN_NONIID_TRAIN;
    workload.local.lr = 0.05;
    let setup = harness_setup(workload);
    let outcome = run_untraced(&setup, SEED, ROUNDS, scratch()).expect("the run completes");
    let verdict = gate::check(&outcome, workload.k);
    assert!(
        !verdict.failures.is_empty(),
        "lr 0.05 FedCross must fail the gate; history: {:?}",
        outcome.history.records()
    );

    // The diverged rounds feed the failure count.
    assert!(verdict.failed > 0, "{:?}", verdict.failures);

    // Whatever the run measured, a refused run reports no metric at all.
    let last = outcome.history.records().last().expect("an evaluation");
    let accuracy = Metric {
        name: "final_acc_pct",
        value: f64::from(last.accuracy) * 100.0,
        unit: "%",
    };
    let report = Report::new(
        verdict.attempted,
        verdict.failed,
        verdict.failures,
        vec![accuracy],
    );
    assert!(!report.correct());
    let line = report.json_line();
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 10,"),
        "{line}"
    );
    assert!(!line.contains("final_acc_pct"), "{line}");
}

#[test]
fn fedavg_on_the_same_configuration_passes() {
    // The control: the gate is not rejecting the configuration as such.
    let mut workload = CNN_NONIID_TRAIN;
    workload.local.lr = 0.05;
    workload.server = Server::FedAvg;
    let setup = harness_setup(workload);
    let outcome = run_untraced(&setup, SEED, 3 * ROUNDS, scratch()).expect("the run completes");
    let verdict = gate::check(&outcome, workload.k);
    assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
    assert_eq!((verdict.attempted, verdict.failed), (30, 0));
}
