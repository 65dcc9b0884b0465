//! The untraced run: the real `Simulation` over a workload, with only a
//! forwarding wrapper that timestamps `run_round`.

use std::path::Path;
use std::time::Instant;

use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::engine::{RoundContext, RoundReport};
use fedcross_flsim::{Checkpoint, CommTracker, FederatedAlgorithm, TrainingHistory};

use crate::workload::{Setup, Workload};

/// One timed `run_round` call.
#[derive(Debug, Clone, Copy)]
pub struct RoundLog {
    /// Absolute round index.
    pub round: usize,
    /// Wall time of `run_round`, in milliseconds.
    pub ms: f64,
    /// Mean train loss the round reported.
    pub train_loss: f32,
    /// Local-training samples the round processed.
    pub samples: usize,
    /// False for the first round after a cold worker pool (run start and
    /// resume), which warms the pool.
    pub warm: bool,
}

/// Forwards every call to the wrapped algorithm and times `run_round`.
pub struct Timed {
    inner: Box<dyn FederatedAlgorithm>,
    warm: bool,
    /// Every round run so far, in order.
    pub log: Vec<RoundLog>,
}

impl Timed {
    /// Wraps `inner`; its first round counts as a warm-up round.
    pub fn new(inner: Box<dyn FederatedAlgorithm>) -> Self {
        Self {
            inner,
            warm: false,
            log: Vec::new(),
        }
    }

    /// Swaps in a freshly constructed algorithm (a restarted server) whose
    /// next round runs on a cold worker pool again.
    pub fn restart(&mut self, inner: Box<dyn FederatedAlgorithm>) {
        self.inner = inner;
        self.warm = false;
    }
}

impl FederatedAlgorithm for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let start = Instant::now();
        let report = self.inner.run_round(round, ctx);
        self.log.push(RoundLog {
            round,
            ms: start.elapsed().as_secs_f64() * 1e3,
            train_loss: report.mean_train_loss,
            samples: report.total_samples,
            warm: self.warm,
        });
        self.warm = true;
        report
    }

    fn global_params(&self) -> Vec<f32> {
        self.inner.global_params()
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.inner.global_params_into(out)
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        self.inner.restore_state(state)
    }
}

/// What the mid-run checkpoint cycle showed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointCheck {
    /// Rounds completed when the checkpoint was taken.
    pub round: usize,
    /// The loaded state equals the saved state bit for bit.
    pub state_bitwise_equal: bool,
    /// The resumed history keeps the checkpoint's records and continues
    /// from the checkpoint round to the end of the run.
    pub history_continues: bool,
}

/// Everything an untraced run produced.
pub struct RunOutcome {
    /// Wall time from round 0 to the end of the last evaluation (and any
    /// checkpoint stall in between), in seconds.
    pub wall_s: f64,
    /// Rounds the run was configured for.
    pub rounds: usize,
    /// Every timed round.
    pub log: Vec<RoundLog>,
    /// Evaluated rounds.
    pub history: TrainingHistory,
    /// Communication totals.
    pub comm: CommTracker,
    /// Parameters per model.
    pub dim: usize,
    /// The deployed global model after the last round.
    pub final_global: Vec<f32>,
    /// The mid-run checkpoint cycle, on workloads that take one.
    pub checkpoint: Option<CheckpointCheck>,
}

/// Whether two slices hold the same bits.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two algorithm states hold the same bits.
pub fn states_bitwise_equal(a: &AlgorithmState, b: &AlgorithmState) -> bool {
    let vectors_equal = |x: &[(String, Vec<f32>)], y: &[(String, Vec<f32>)]| {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|((n1, v1), (n2, v2))| n1 == n2 && bits_equal(v1, v2))
    };
    a.models.len() == b.models.len()
        && a.models
            .iter()
            .zip(&b.models)
            .all(|(x, y)| bits_equal(x, y))
        && vectors_equal(&a.aux, &b.aux)
        && a.client_tables.len() == b.client_tables.len()
        && a.client_tables
            .iter()
            .zip(&b.client_tables)
            .all(|((n1, t1), (n2, t2))| {
                n1 == n2
                    && t1.len() == t2.len()
                    && t1
                        .iter()
                        .zip(t2)
                        .all(|((c1, v1), (c2, v2))| c1 == c2 && bits_equal(v1, v2))
            })
        && a.records == b.records
}

/// Builds the workload's set-up `reps` times, timing each build (data or
/// source, template, algorithm and simulation construction), and returns
/// the last one with the timings.
pub fn timed_setups(
    workload: &Workload,
    seed: u64,
    rounds: usize,
    reps: usize,
) -> (Setup, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let setup = workload.build(seed);
        let algorithm = setup.algorithm();
        let simulation = setup.simulation(workload.sim_config(seed, rounds));
        times.push(start.elapsed().as_secs_f64());
        drop((algorithm, simulation));
        last = Some(setup);
    }
    (last.expect("at least one set-up"), times)
}

/// Runs `rounds` rounds of `setup`'s workload through the real simulation.
/// Checkpoint files go to `scratch_dir` and are removed afterwards.
pub fn run_untraced(
    setup: &Setup,
    seed: u64,
    rounds: usize,
    scratch_dir: &Path,
) -> Result<RunOutcome, String> {
    let workload = setup.workload;
    let sim = setup.simulation(workload.sim_config(seed, rounds));
    let mut timed = Timed::new(setup.algorithm());
    let start = Instant::now();
    let (result, checkpoint) = if workload.checkpoint {
        let mid = rounds / 2;
        let first = sim.run_segment(&mut timed, 0, mid);
        let saved = sim
            .checkpoint(&timed, &first)
            .map_err(|e| format!("checkpoint snapshot failed: {e}"))?;
        let path = scratch_dir.join(format!("{}-{seed}.ckpt.json", workload.name));
        saved
            .save(&path)
            .map_err(|e| format!("checkpoint save failed: {e}"))?;
        let loaded = Checkpoint::load(&path);
        let _ = std::fs::remove_file(&path);
        let loaded = loaded.map_err(|e| format!("checkpoint load failed: {e}"))?;
        let state_bitwise_equal = states_bitwise_equal(&saved.state, &loaded.state)
            && saved.history == loaded.history
            && saved.comm == loaded.comm
            && saved.rounds_completed == loaded.rounds_completed;
        // A restarted server: a fresh algorithm instance restored from disk.
        timed.restart(setup.algorithm());
        let resumed = sim
            .resume(&loaded, &mut timed)
            .map_err(|e| format!("resume failed: {e}"))?;
        let kept = saved.history.records();
        let records = resumed.history.records();
        let history_continues = records.len() > kept.len()
            && records[..kept.len()] == *kept
            && records[kept.len()..].iter().all(|r| r.round >= mid)
            && records.last().map(|r| r.round) == Some(rounds - 1)
            && resumed.rounds_completed == rounds;
        let check = CheckpointCheck {
            round: mid,
            state_bitwise_equal,
            history_continues,
        };
        (resumed, Some(check))
    } else {
        (sim.run(&mut timed), None)
    };
    let wall_s = start.elapsed().as_secs_f64();
    Ok(RunOutcome {
        wall_s,
        rounds,
        final_global: timed.global_params(),
        log: std::mem::take(&mut timed.log),
        history: result.history,
        comm: result.comm,
        dim: result.model_params,
        checkpoint,
    })
}
