//! Criterion benchmarks of the binary checkpoint codec: `Checkpoint::save`
//! (stream the sections, fsync, rename) and `Checkpoint::load` (length
//! checks, checksums, decode into `ParamBlock`s) of a one-model state at
//! d = 10^5, 10^6 and 10^7 parameters, plus the file size at each d.
//!
//! FedCross checkpoints its K middleware models, so its state is K times
//! FedAvg's; the file should stay within a few hundred bytes of 4·d per
//! model. Saves include the fsync, so they measure what a training server
//! actually stalls for.
//!
//! `FEDCROSS_BENCH_SMOKE=1` shrinks every benchmark to a 2-sample smoke run.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedcross_flsim::{AlgorithmState, Checkpoint, CommTracker, RoundRecord, TrainingHistory};
use fedcross_nn::params::ParamBlock;

const DIMS: [usize; 3] = [100_000, 1_000_000, 10_000_000];

fn sample_size() -> usize {
    if std::env::var_os("FEDCROSS_BENCH_SMOKE").is_some() {
        2
    } else {
        10
    }
}

fn checkpoint(dim: usize) -> Checkpoint {
    let params: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.001).sin()).collect();
    let mut history = TrainingHistory::new();
    for round in 0..50 {
        history.push(RoundRecord {
            round,
            accuracy: 0.5,
            test_loss: 1.0,
            train_loss: 1.2,
        });
    }
    let mut comm = CommTracker::new();
    comm.record_model_roundtrip(dim);
    comm.end_round();
    Checkpoint::new(
        "fedcross",
        50,
        7,
        "fnv1a:0000000000000000",
        AlgorithmState::multi_model(vec![ParamBlock::from(params)]),
        history,
        comm,
    )
}

fn bench_checkpoint_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_codec");
    group.sample_size(sample_size());
    let dir = std::env::temp_dir().join(format!(
        "fedcross-bench-checkpoint-codec-{}",
        std::process::id()
    ));
    for dim in DIMS {
        let checkpoint = checkpoint(dim);
        let path = dir.join(format!("d{dim}"));
        group.bench_with_input(
            BenchmarkId::new("save", dim),
            &checkpoint,
            |b, checkpoint| b.iter(|| checkpoint.save(black_box(&path)).expect("checkpoint saves")),
        );
        let bytes = std::fs::metadata(&path).expect("checkpoint written").len();
        println!(
            "checkpoint_codec/bytes/{dim:<52} {bytes} B ({:.4} x 4·d)",
            bytes as f64 / (4.0 * dim as f64)
        );
        group.bench_function(BenchmarkId::new("load", dim), |b| {
            b.iter(|| Checkpoint::load(black_box(&path)).expect("checkpoint loads"))
        });
        assert_eq!(
            Checkpoint::load(&path).expect("checkpoint loads"),
            checkpoint
        );
    }
    group.finish();
    let _ = std::fs::remove_dir_all(dir);
}

criterion_group!(benches, bench_checkpoint_codec);
criterion_main!(benches);
