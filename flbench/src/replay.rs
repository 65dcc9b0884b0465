//! The traced run: the workload's rounds replayed from the layers' public
//! functions, with in-memory spans around each call.
//!
//! [`Replay`] re-implements the FedCross and FedAvg servers' `run_round`
//! from `RoundContext`, `SelectionStrategy` and the aggregation `*_into`
//! kernels; [`run_traced`] re-implements the simulation's round loop around
//! it (per-round `RoundContext`, shard prefetch, `EvalWorker`, and a
//! `Checkpoint` cycle at mid-run); [`replay_client`] re-implements one
//! client's local training step by step. Each is only trusted when it
//! reproduces the real code bit for bit ([`verify_trajectory`] and the
//! client check inside [`replay_client`]).

use std::path::Path;
use std::time::Instant;

use fedcross::aggregation::{cross_aggregate_into, global_model_into};
use fedcross::{AlgorithmSpec, SelectionStrategy, SimilarityMeasure};
use fedcross_data::{Batch, ShardStats};
use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::engine::{
    canonicalize_updates, RoundContext, RoundReport, SimulationResult, SPARSE_SELECTION_THRESHOLD,
};
use fedcross_flsim::{
    AvailabilityModel, Checkpoint, ClientWorkerPool, CommTracker, EvalWorker, FaultTally,
    FederatedAlgorithm, LocalUpdate, RoundPolicy, RoundRecord, TrainingHistory,
};
use fedcross_nn::loss::softmax_cross_entropy_into;
use fedcross_nn::optim::Sgd;
use fedcross_nn::params::{weighted_average_into, ParamBlock};
use fedcross_tensor::{SeededRng, TensorPool};
use rayon::prelude::*;

use crate::report::median;
use crate::run::{bits_equal, states_bitwise_equal, RunOutcome};
use crate::workload::{Federation, Setup, EVAL_BATCH};
use crate::{alloc_counts, AllocCounts};

/// FedCross forks its fusion onto rayon from this many scalars (`K·d`)
/// upwards; the replay mirrors it so its fusion span times the same
/// schedule.
const FUSE_PAR_THRESHOLD: usize = 1 << 16;
/// Stream the client worker forks its stochastic-layer reseed from.
const RESEED_STREAM: u64 = 0x5EED;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Spans recorded inside `run_round`, one entry per round.
#[derive(Debug, Clone, Default)]
pub struct RoundSpans {
    /// `RoundContext::select_clients` (+ the FedCross shuffle).
    pub select_ms: Vec<f64>,
    /// `RoundContext::local_train_batch`.
    pub train_batch_ms: Vec<f64>,
    /// `SelectionStrategy::select_all_with` (FedCross only).
    pub select_all_ms: Vec<f64>,
    /// `cross_aggregate_into` × K, or `weighted_average_into`.
    pub fuse_ms: Vec<f64>,
}

enum ServerState {
    Cross {
        middleware: Vec<ParamBlock>,
        alpha: f32,
        strategy: SelectionStrategy,
        measure: SimilarityMeasure,
    },
    Avg {
        global: ParamBlock,
    },
}

/// A FedCross or FedAvg server replayed from public functions, recording
/// spans. Supports what the workloads use: full participation, no
/// acceleration, cosine similarity.
pub struct Replay {
    name: String,
    state: ServerState,
    /// Spans of every round run so far.
    pub spans: RoundSpans,
}

impl Replay {
    /// A replay of `setup`'s server starting from the template's parameters,
    /// under the real algorithm's name (checkpoints carry it).
    pub fn new(setup: &Setup) -> Self {
        let name = setup.algorithm().name();
        let init = ParamBlock::from(setup.template.params_flat());
        let state = match setup.workload.spec() {
            AlgorithmSpec::FedCross {
                alpha, strategy, ..
            } => ServerState::Cross {
                middleware: vec![init; setup.workload.k],
                alpha,
                strategy,
                measure: SimilarityMeasure::Cosine,
            },
            _ => ServerState::Avg { global: init },
        };
        Self {
            name,
            state,
            spans: RoundSpans::default(),
        }
    }
}

impl FederatedAlgorithm for Replay {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let spans = &mut self.spans;
        match &mut self.state {
            ServerState::Cross {
                middleware,
                alpha,
                strategy,
                measure,
            } => {
                let t = Instant::now();
                let mut selected = ctx.select_clients();
                ctx.rng_mut().shuffle(&mut selected);
                spans.select_ms.push(ms_since(t));

                let jobs: Vec<(usize, ParamBlock)> = selected
                    .iter()
                    .zip(middleware.iter())
                    .map(|(&client, model)| (client, model.clone()))
                    .collect();
                let t = Instant::now();
                let mut updates = ctx.local_train_batch(&jobs);
                spans.train_batch_ms.push(ms_since(t));
                drop(jobs);
                canonicalize_updates(&mut updates, &selected);
                let report = RoundReport::from_updates(&updates);
                assert!(
                    updates
                        .iter()
                        .map(|u| u.client)
                        .eq(selected.iter().copied()),
                    "the replay supports full participation only"
                );
                let uploaded: Vec<ParamBlock> = updates.into_iter().map(|u| u.params).collect();

                let t = Instant::now();
                let partners = strategy.select_all_with(round, &uploaded, *measure);
                spans.select_all_ms.push(ms_since(t));

                let t = Instant::now();
                let alpha = *alpha;
                let parallel = uploaded.len() * uploaded[0].len() >= FUSE_PAR_THRESHOLD;
                let targets: Vec<(usize, &mut ParamBlock)> =
                    middleware.iter_mut().enumerate().collect();
                let fuse = |(slot, block): (usize, &mut ParamBlock)| {
                    cross_aggregate_into(
                        block.make_mut(),
                        uploaded[slot].as_slice(),
                        uploaded[partners[slot]].as_slice(),
                        alpha,
                    );
                };
                if parallel {
                    targets.into_par_iter().for_each(fuse);
                } else {
                    targets.into_iter().for_each(fuse);
                }
                spans.fuse_ms.push(ms_since(t));
                report
            }
            ServerState::Avg { global } => {
                let t = Instant::now();
                let selected = ctx.select_clients();
                spans.select_ms.push(ms_since(t));

                let jobs: Vec<(usize, ParamBlock)> = selected
                    .iter()
                    .map(|&client| (client, global.clone()))
                    .collect();
                let t = Instant::now();
                let mut updates = ctx.local_train_batch(&jobs);
                spans.train_batch_ms.push(ms_since(t));
                drop(jobs);
                canonicalize_updates(&mut updates, &selected);

                let t = Instant::now();
                let params: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
                let weights: Vec<f32> = updates
                    .iter()
                    .map(|u| u.num_samples.max(1) as f32)
                    .collect();
                weighted_average_into(global.make_mut(), &params, &weights);
                spans.fuse_ms.push(ms_since(t));
                RoundReport::from_updates(&updates)
            }
        }
    }

    fn global_params(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.global_params_into(&mut out);
        out
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        match &self.state {
            ServerState::Cross { middleware, .. } => {
                out.resize(middleware[0].len(), 0.0);
                global_model_into(out, middleware);
            }
            ServerState::Avg { global } => {
                out.clear();
                out.extend_from_slice(global);
            }
        }
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        Ok(match &self.state {
            ServerState::Cross { middleware, .. } => {
                AlgorithmState::multi_model(middleware.clone())
            }
            ServerState::Avg { global } => AlgorithmState::single_model(global.clone()),
        })
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        match &mut self.state {
            ServerState::Cross { middleware, .. } => {
                *middleware = state
                    .expect_models(middleware.len(), middleware[0].len())?
                    .to_vec();
            }
            ServerState::Avg { global } => {
                *global = state.expect_single_model(global.len())?.clone();
            }
        }
        Ok(())
    }
}

/// Spans of the mid-run checkpoint cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointSpans {
    /// `Simulation::checkpoint`.
    pub snapshot_ms: f64,
    /// `Checkpoint::save`.
    pub save_ms: f64,
    /// `Checkpoint::load`.
    pub load_ms: f64,
    /// `FederatedAlgorithm::restore_state` into a fresh server.
    pub restore_ms: f64,
    /// Size of the saved file.
    pub bytes: u64,
}

/// Everything the traced replay recorded.
pub struct TracedOutcome {
    /// Per-round spans inside `run_round`.
    pub spans: RoundSpans,
    /// `run_round` wall time of every round.
    pub round_ms: Vec<f64>,
    /// Whether each round ran on a warm worker pool (false for the first
    /// round after a cold one).
    pub warm: Vec<bool>,
    /// Allocation totals of every round, on all threads.
    pub round_allocs: Vec<AllocCounts>,
    /// `global_params_into` per evaluation.
    pub global_ms: Vec<f64>,
    /// `EvalWorker::evaluate_params` per evaluation.
    pub evaluate_ms: Vec<f64>,
    /// The checkpoint cycle.
    pub checkpoint: CheckpointSpans,
    /// Evaluated rounds.
    pub history: TrainingHistory,
    /// Communication totals.
    pub comm: CommTracker,
    /// The deployed global model after the last round.
    pub final_global: Vec<f32>,
    /// Models the worker pools constructed.
    pub models_built: usize,
    /// Fresh buffers the worker pools' scratch arenas allocated.
    pub arena_fresh_allocs: usize,
    /// Shard-plane counters over the replay (lazy data only).
    pub shard_stats: Option<ShardStats>,
}

/// Warms round `round`'s predicted cohort on a lazy plane, exactly as the
/// simulation does before each round.
fn prefetch(setup: &Setup, master: &SeededRng, round: usize, rounds: usize) {
    let Federation::Lazy(plane) = &setup.federation else {
        return;
    };
    if round >= rounds {
        return;
    }
    let mut rng = master.fork(round as u64); // fork: construction-seed
    let (n, k) = (plane.num_clients(), setup.workload.k);
    let cohort = if n > SPARSE_SELECTION_THRESHOLD {
        rng.sample_without_replacement_sparse(n, k)
    } else {
        rng.sample_without_replacement(n, k)
    };
    plane.prefetch(&cohort);
}

/// Replays `rounds` rounds of `setup`'s workload with spans, taking one
/// checkpoint cycle (snapshot, save, load, restore into a fresh server) at
/// mid-run. On workloads whose untraced run resumes from that checkpoint,
/// the replay also restarts its worker pool and evaluation worker, as
/// `Simulation::resume` does.
pub fn run_traced(
    setup: &Setup,
    seed: u64,
    rounds: usize,
    scratch_dir: &Path,
) -> Result<TracedOutcome, String> {
    let workload = setup.workload;
    let sim = setup.simulation(workload.sim_config(seed, rounds));
    let template = setup.template.as_ref();
    let stats_before = match &setup.federation {
        Federation::Lazy(plane) => Some(plane.stats()),
        Federation::Eager(_) => None,
    };
    let master = SeededRng::new(seed);
    let mut replay = Replay::new(setup);
    let mut comm = CommTracker::new();
    let mut history = TrainingHistory::new();
    let mut pool = ClientWorkerPool::new();
    let mut eval = EvalWorker::new(template);
    let mut global = Vec::new();
    let (mut models_built, mut arena_fresh_allocs) = (0, 0);
    let mut out = TracedOutcome {
        spans: RoundSpans::default(),
        round_ms: Vec::new(),
        warm: Vec::new(),
        round_allocs: Vec::new(),
        global_ms: Vec::new(),
        evaluate_ms: Vec::new(),
        checkpoint: CheckpointSpans::default(),
        history: TrainingHistory::new(),
        comm: CommTracker::new(),
        final_global: Vec::new(),
        models_built: 0,
        arena_fresh_allocs: 0,
        shard_stats: None,
    };
    let mid = rounds / 2;
    let mut warm = false;
    prefetch(setup, &master, 0, rounds);
    for round in 0..rounds {
        if round == mid {
            let partial = SimulationResult {
                algorithm: replay.name(),
                history: history.clone(),
                comm: comm.clone(),
                model_params: template.param_count(),
                rounds_completed: mid,
                faults: FaultTally::default(),
            };
            let t = Instant::now();
            let saved = sim
                .checkpoint(&replay, &partial)
                .map_err(|e| format!("traced checkpoint snapshot failed: {e}"))?;
            out.checkpoint.snapshot_ms = ms_since(t);
            let path = scratch_dir.join(format!("{}-{seed}.traced.ckpt.json", workload.name));
            let t = Instant::now();
            saved
                .save(&path)
                .map_err(|e| format!("traced checkpoint save failed: {e}"))?;
            out.checkpoint.save_ms = ms_since(t);
            out.checkpoint.bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let t = Instant::now();
            let loaded = Checkpoint::load(&path);
            out.checkpoint.load_ms = ms_since(t);
            let _ = std::fs::remove_file(&path);
            let loaded = loaded.map_err(|e| format!("traced checkpoint load failed: {e}"))?;
            if !states_bitwise_equal(&saved.state, &loaded.state) {
                return Err("traced checkpoint: loaded state differs from the saved state".into());
            }
            let mut restored = Replay::new(setup);
            let t = Instant::now();
            restored
                .restore_state(&loaded.state)
                .map_err(|e| format!("traced restore failed: {e}"))?;
            out.checkpoint.restore_ms = ms_since(t);
            restored.spans = std::mem::take(&mut replay.spans);
            replay = restored;
            history = loaded.history;
            comm = loaded.comm;
            if workload.checkpoint {
                models_built += pool.models_built();
                arena_fresh_allocs += pool.arena_fresh_allocations();
                pool = ClientWorkerPool::new();
                eval = EvalWorker::new(template);
                warm = false;
                prefetch(setup, &master, round, rounds);
            }
        }
        prefetch(setup, &master, round + 1, rounds);

        let before = alloc_counts();
        let t = Instant::now();
        let report = {
            let rng = master.fork(round as u64); // fork: construction-seed
            let ctx = match &setup.federation {
                Federation::Eager(data) => {
                    RoundContext::new(data, template, workload.local, workload.k, rng, &mut comm)
                }
                Federation::Lazy(plane) => RoundContext::new_sharded(
                    plane,
                    template,
                    workload.local,
                    workload.k,
                    rng,
                    &mut comm,
                ),
            };
            let mut ctx = ctx
                .with_availability(AvailabilityModel::AlwaysOn, round)
                .with_service_plane(RoundPolicy::Synchronous, None, None, round)
                .with_worker_pool(&mut pool);
            replay.run_round(round, &mut ctx)
        };
        let round_ms = ms_since(t);
        let after = alloc_counts();
        out.round_ms.push(round_ms);
        out.warm.push(warm);
        out.round_allocs.push(AllocCounts {
            large: after.large - before.large,
            bytes: after.bytes - before.bytes,
        });
        warm = true;
        comm.end_round();

        if round % workload.eval_every == 0 || round + 1 == rounds {
            let t = Instant::now();
            replay.global_params_into(&mut global);
            out.global_ms.push(ms_since(t));
            let t = Instant::now();
            let evaluation = eval.evaluate_params(&global, setup.test_set(), EVAL_BATCH);
            out.evaluate_ms.push(ms_since(t));
            history.push(RoundRecord {
                round,
                accuracy: evaluation.accuracy,
                test_loss: evaluation.loss,
                train_loss: report.mean_train_loss,
            });
        }
    }
    out.shard_stats = match (&setup.federation, stats_before) {
        (Federation::Lazy(plane), Some(before)) => {
            let now = plane.stats();
            Some(ShardStats {
                hits: now.hits - before.hits,
                misses: now.misses - before.misses,
                prefetched: now.prefetched - before.prefetched,
                evictions: now.evictions - before.evictions,
                peak_resident: now.peak_resident,
            })
        }
        _ => None,
    };
    out.models_built = models_built + pool.models_built();
    out.arena_fresh_allocs = arena_fresh_allocs + pool.arena_fresh_allocations();
    out.final_global = global;
    replay.global_params_into(&mut out.final_global);
    out.spans = replay.spans;
    out.history = history;
    out.comm = comm;
    Ok(out)
}

/// Refuses the traced numbers unless the replay reproduced the real run's
/// trajectory bit for bit: the same deployed global model, the same
/// evaluations (bitwise) and the same traffic.
pub fn verify_trajectory(real: &RunOutcome, traced: &TracedOutcome) -> Result<(), String> {
    if !bits_equal(&real.final_global, &traced.final_global) {
        return Err("the replayed global model differs from the real run's".into());
    }
    let key = |r: &RoundRecord| {
        (
            r.round,
            r.accuracy.to_bits(),
            r.test_loss.to_bits(),
            r.train_loss.to_bits(),
        )
    };
    if !real
        .history
        .records()
        .iter()
        .map(key)
        .eq(traced.history.records().iter().map(key))
    {
        return Err("the replayed evaluations differ from the real run's".into());
    }
    if real.comm != traced.comm {
        return Err("the replayed traffic differs from the real run's".into());
    }
    Ok(())
}

/// Medians of one client's local round, replayed step by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientSpans {
    /// `Model::set_params_flat` + `reset_stochastic_state`.
    pub load_params_ms: f64,
    /// `Dataset::epoch_order` + `gather_batch`.
    pub gather_ms: f64,
    /// `Model::forward_into`.
    pub forward_ms: f64,
    /// `softmax_cross_entropy_into`.
    pub loss_ms: f64,
    /// `Model::zero_grads` + `backward_into`.
    pub backward_ms: f64,
    /// `Sgd::step`.
    pub optim_ms: f64,
    /// `Model::read_params_into`.
    pub read_params_ms: f64,
    /// The whole client round.
    pub client_train_ms: f64,
    /// Samples the client round trained on (epochs × shard size).
    pub samples: usize,
}

/// The client a client-step replay trains: the one holding the median shard
/// size, so the replay's cost is typical of the workload's clients.
pub fn representative_client(setup: &Setup) -> usize {
    match &setup.federation {
        Federation::Eager(data) => {
            let mut by_size: Vec<(usize, usize)> =
                data.client_sizes().into_iter().zip(0..).collect();
            by_size.sort_unstable();
            by_size[by_size.len() / 2].1
        }
        // Every lazy shard holds the same number of samples.
        Federation::Lazy(_) => 0,
    }
}

/// Replays one client's local round on `params` step by step from public
/// functions, `reps` times (the first warms the buffers and is not timed
/// into the medians), and checks the result against
/// `ClientWorker::train` on the same inputs: the uploaded parameters and
/// train loss must match bit for bit, or the spans are refused.
pub fn replay_client(
    setup: &Setup,
    params: &[f32],
    client: usize,
    rng: &SeededRng,
    reps: usize,
) -> Result<ClientSpans, String> {
    let local = setup.workload.local;
    let shard = setup.shard(client);
    let mut model = setup.template.clone_model();
    let mut pool = TensorPool::new();
    let mut order = Vec::new();
    let mut batch = Batch::reusable();
    let mut sgd = Sgd::new(local.lr, local.momentum, local.weight_decay);
    let mut upload = Vec::new();
    let mut last_loss = 0f32;
    let mut samples: Vec<[f64; 8]> = Vec::new();
    for _ in 0..reps.max(2) {
        let mut rng = rng.clone();
        let mut s = [0f64; 8];
        let start = Instant::now();
        let t = Instant::now();
        model.set_params_flat(params);
        model.reset_stochastic_state(&mut rng.fork(RESEED_STREAM)); // fork: construction-seed
        s[0] = ms_since(t);
        sgd.reconfigure(local.lr, local.momentum, local.weight_decay);
        for epoch in 0..local.epochs {
            let (mut epoch_loss, mut batches) = (0f32, 0usize);
            let t = Instant::now();
            shard.epoch_order(Some(&mut rng), &mut order);
            s[1] += ms_since(t);
            for chunk in order.chunks(local.batch_size) {
                let t = Instant::now();
                shard.gather_batch(chunk, &mut batch);
                s[1] += ms_since(t);
                let t = Instant::now();
                model.zero_grads();
                s[4] += ms_since(t);
                let t = Instant::now();
                let logits = model.forward_into(&batch.features, true, &mut pool);
                s[2] += ms_since(t);
                let t = Instant::now();
                let (loss, grad) = softmax_cross_entropy_into(&logits, &batch.labels, &mut pool);
                pool.recycle(logits);
                s[3] += ms_since(t);
                let t = Instant::now();
                model.backward_into(&grad, &mut pool);
                pool.recycle(grad);
                s[4] += ms_since(t);
                let t = Instant::now();
                sgd.step(model.as_mut());
                s[5] += ms_since(t);
                epoch_loss += loss;
                batches += 1;
            }
            if epoch + 1 == local.epochs && batches > 0 {
                last_loss = epoch_loss / batches as f32;
            }
        }
        let t = Instant::now();
        model.read_params_into(&mut upload);
        s[6] = ms_since(t);
        s[7] = ms_since(start);
        samples.push(s);
    }

    let mut workers = ClientWorkerPool::new();
    let reference = workers.ensure(1, setup.template.as_ref())[0].train(
        client,
        params,
        &shard,
        &local,
        &mut rng.clone(),
        None,
    );
    check_client_update(&reference, &upload, last_loss)?;

    let phase = |i: usize| median(&samples[1..].iter().map(|s| s[i]).collect::<Vec<_>>());
    Ok(ClientSpans {
        load_params_ms: phase(0),
        gather_ms: phase(1),
        forward_ms: phase(2),
        loss_ms: phase(3),
        backward_ms: phase(4),
        optim_ms: phase(5),
        read_params_ms: phase(6),
        client_train_ms: phase(7),
        samples: local.epochs * shard.len(),
    })
}

/// Refuses a replayed client round unless its uploaded parameters and
/// train loss equal the real worker's `reference` update bit for bit.
pub fn check_client_update(
    reference: &LocalUpdate,
    upload: &[f32],
    train_loss: f32,
) -> Result<(), String> {
    if bits_equal(&reference.params, upload)
        && reference.train_loss.to_bits() == train_loss.to_bits()
    {
        Ok(())
    } else {
        Err(format!(
            "the replayed update of client {} differs from ClientWorker::train",
            reference.client
        ))
    }
}

/// Median wall time, in microseconds, of an empty parallel for-each over
/// one item per rayon thread: the fixed cost of one parallel call.
pub fn par_call_us(reps: usize) -> f64 {
    let threads = rayon::current_num_threads();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            (0..threads).into_par_iter().for_each(|i| {
                std::hint::black_box(i);
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Median wall time, in milliseconds, of synthesising one client shard
/// with `ClientDataSource::materialize` (lazy data only; off the round's
/// critical path when prefetched). Materialisation is a pure function of
/// the client id, so timing it disturbs nothing.
pub fn materialize_ms(setup: &Setup, reps: usize) -> Option<f64> {
    let Federation::Lazy(plane) = &setup.federation else {
        return None;
    };
    let n = plane.num_clients();
    let times: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(plane.source().materialize(n - 1 - i));
            ms_since(t)
        })
        .collect();
    Some(median(&times))
}
