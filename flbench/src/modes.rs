//! The two modes of a run, each ending in a gated [`Report`]: untraced
//! (end-to-end metrics of the real simulation) and traced (per-layer
//! metrics of a replay verified against the real run).

use std::path::Path;

use fedcross_tensor::SeededRng;

use crate::gate;
use crate::replay::{
    materialize_ms, par_call_us, replay_client, representative_client, run_traced,
    verify_trajectory, ClientSpans, TracedOutcome,
};
use crate::report::{median, peak_rss_mib, percentile, Metric, Report};
use crate::run::{run_untraced, timed_setups, RunOutcome};
use crate::workload::{Setup, Workload};
use crate::{count_allocations, AllocCounts};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Client-step replays per traced run (the first warms the buffers).
const CLIENT_REPS: usize = 21;
/// Empty parallel calls timed per traced run.
const PAR_CALL_REPS: usize = 501;
/// Shard materialisations timed per traced run (lazy data only).
const MATERIALIZE_REPS: usize = 9;

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn warm_only(values: &[f64], warm: &[bool]) -> Vec<f64> {
    values
        .iter()
        .zip(warm)
        .filter(|(_, &w)| w)
        .map(|(&v, _)| v)
        .collect()
}

fn warm_round_ms(outcome: &RunOutcome) -> Vec<f64> {
    outcome
        .log
        .iter()
        .filter(|r| r.warm)
        .map(|r| r.ms)
        .collect()
}

/// The end-to-end metrics of a gated untraced run.
fn end_to_end(outcome: &RunOutcome, setup_s: &[f64], verdict: &gate::Verdict) -> Vec<Metric> {
    let warm = warm_round_ms(outcome);
    let samples: usize = outcome.log.iter().map(|r| r.samples).sum();
    let last = outcome.history.records().last();
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric(
            "samples_per_s",
            samples as f64 / outcome.wall_s,
            "samples/s",
        ),
        metric("round_ms_p50", median(&warm), "ms"),
        metric("round_ms_p90", percentile(&warm, 0.9), "ms"),
        metric(
            "final_acc_pct",
            last.map_or(f64::NAN, |r| f64::from(r.accuracy) * 100.0),
            "%",
        ),
        metric(
            "comm_mib_per_round",
            outcome.comm.total_mib() / outcome.rounds as f64,
            "MiB",
        ),
        metric("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB"),
        metric(
            "round_ok_share",
            1.0 - verdict.failed as f64 / verdict.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Untraced mode: `rounds` rounds of the real simulation, gated, reported
/// with the end-to-end metrics.
pub fn untraced(workload: &Workload, seed: u64, rounds: usize, scratch: &Path) -> Report {
    let (setup, setup_s) = timed_setups(workload, seed, rounds, SETUP_REPS);
    match run_untraced(&setup, seed, rounds, scratch) {
        Ok(outcome) => {
            let verdict = gate::check(&outcome, workload.k);
            let metrics = end_to_end(&outcome, &setup_s, &verdict);
            let mut report =
                Report::new(verdict.attempted, verdict.failed, verdict.failures, metrics);
            // The final test loss moves with the seed by more than any bound
            // a regression check could use (it scales with the error rate):
            // shown, gated for finiteness, not reported as a metric.
            if let (true, Some(last)) = (report.correct(), outcome.history.records().last()) {
                report
                    .info
                    .push(metric("final_test_loss", f64::from(last.test_loss), "nats"));
            }
            report
        }
        Err(err) => Report::new(rounds as u64, 0, vec![err], Vec::new()),
    }
}

/// The per-layer metrics of a verified traced replay.
fn per_layer(
    setup: &Setup,
    real: &RunOutcome,
    traced: &TracedOutcome,
    client: &ClientSpans,
) -> Vec<Metric> {
    let workload = setup.workload;
    let threads = rayon::current_num_threads() as f64;
    let warm = &traced.warm;
    let spans = &traced.spans;
    let round_ms = warm_only(&traced.round_ms, warm);
    let train_ms = warm_only(&spans.train_batch_ms, warm);
    let steady = traced
        .round_allocs
        .iter()
        .zip(warm)
        .filter(|(_, &w)| w)
        .map(|(a, _)| *a)
        .collect::<Vec<_>>();
    let per_steady = |f: fn(&AllocCounts) -> u64| {
        steady.iter().map(f).sum::<u64>() as f64 / steady.len().max(1) as f64
    };
    let rounds = real.rounds as f64;
    let (hit_ratio, misses_per_round, peak_resident) = match &traced.shard_stats {
        Some(s) => (
            s.hits as f64 / (s.hits + s.misses).max(1) as f64,
            s.misses as f64 / rounds,
            s.peak_resident as f64,
        ),
        // Eager data: every shard is resident and every checkout is a hit.
        None => (1.0, 0.0, setup.num_clients() as f64),
    };
    let compute_ms = client.forward_ms + client.backward_ms;
    let flops = workload.arch.train_flops_per_sample() as f64 * client.samples as f64;
    let untraced_p50 = median(&warm_round_ms(real));
    let ckpt = &traced.checkpoint;
    vec![
        metric(
            "flsim.engine.select_ms",
            median(&warm_only(&spans.select_ms, warm)),
            "ms",
        ),
        metric("flsim.engine.train_batch_ms", median(&train_ms), "ms"),
        metric(
            "flsim.engine.train_share",
            train_ms.iter().sum::<f64>() / round_ms.iter().sum::<f64>(),
            "ratio",
        ),
        metric(
            "flsim.engine.large_allocs_per_round",
            per_steady(|a| a.large),
            "count",
        ),
        metric(
            "flsim.engine.alloc_bytes_per_round",
            per_steady(|a| a.bytes),
            "B",
        ),
        metric(
            "flsim.worker.idle_share",
            1.0 - workload.k as f64 * client.client_train_ms / (threads * median(&train_ms)),
            "ratio",
        ),
        metric(
            "flsim.worker.models_built",
            traced.models_built as f64,
            "count",
        ),
        metric(
            "flsim.worker.arena_fresh_allocs",
            traced.arena_fresh_allocs as f64,
            "count",
        ),
        metric("rayon.par_call_us", par_call_us(PAR_CALL_REPS), "us"),
        metric("nn.load_params_ms", client.load_params_ms, "ms"),
        metric("nn.forward_ms", client.forward_ms, "ms"),
        metric("nn.loss_ms", client.loss_ms, "ms"),
        metric("nn.backward_ms", client.backward_ms, "ms"),
        metric("nn.optim_ms", client.optim_ms, "ms"),
        metric("nn.read_params_ms", client.read_params_ms, "ms"),
        metric("nn.client_train_ms", client.client_train_ms, "ms"),
        metric("data.gather_ms", client.gather_ms, "ms"),
        metric("data.hit_ratio", hit_ratio, "ratio"),
        metric("data.misses_per_round", misses_per_round, "count"),
        metric("data.peak_resident", peak_resident, "count"),
        metric(
            "data.materialize_ms",
            materialize_ms(setup, MATERIALIZE_REPS).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "core.selection.select_all_ms",
            median(&warm_only(&spans.select_all_ms, warm)),
            "ms",
        ),
        metric(
            "core.aggregation.fuse_ms",
            median(&warm_only(&spans.fuse_ms, warm)),
            "ms",
        ),
        metric(
            "core.aggregation.global_ms",
            median(&traced.global_ms),
            "ms",
        ),
        metric("flsim.eval.evaluate_ms", median(&traced.evaluate_ms), "ms"),
        metric("flsim.checkpoint.snapshot_ms", ckpt.snapshot_ms, "ms"),
        metric("flsim.checkpoint.save_ms", ckpt.save_ms, "ms"),
        metric("flsim.checkpoint.load_ms", ckpt.load_ms, "ms"),
        metric("flsim.checkpoint.restore_ms", ckpt.restore_ms, "ms"),
        metric("flsim.checkpoint.bytes", ckpt.bytes as f64, "B"),
        metric(
            "flsim.comm.scalars_per_round",
            traced.comm.total_scalars() as f64 / rounds,
            "scalars",
        ),
        metric(
            "tensor.train_gflop_per_s",
            flops / (compute_ms / 1e3) / 1e9,
            "GFLOP/s",
        ),
        metric(
            "trace.overhead_pct",
            (median(&round_ms) / untraced_p50 - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Traced mode: the real run as the gated reference, then the traced replay
/// of the same rounds, reported with the per-layer metrics.
pub fn traced(workload: &Workload, seed: u64, rounds: usize, scratch: &Path) -> Report {
    // The reference runs straight through: a resumed run is bitwise the
    // uninterrupted one, and the replay takes (and checks) its own
    // checkpoint cycle, so a second multi-second checkpoint stall here would
    // only lengthen the run.
    let straight = Workload {
        checkpoint: false,
        ..*workload
    };
    let real = match run_untraced(&straight.build(seed), seed, rounds, scratch) {
        Ok(real) => real,
        Err(err) => return Report::new(rounds as u64, 0, vec![err], Vec::new()),
    };
    // A fresh set-up, so shard-cache counters cover the replay alone.
    let setup = workload.build(seed);
    count_allocations(true);
    let replayed = run_traced(&setup, seed, rounds, scratch);
    count_allocations(false);
    traced_report(&setup, seed, &real, replayed)
}

/// Gates the real run and reports the replay's per-layer metrics, or
/// refuses them (no metrics, `correct: false`) unless the replayed
/// trajectory and a replayed client round both match the real code bit for
/// bit.
pub fn traced_report(
    setup: &Setup,
    seed: u64,
    real: &RunOutcome,
    replayed: Result<TracedOutcome, String>,
) -> Report {
    let verdict = gate::check(real, setup.workload.k);
    let mut failures = verdict.failures;
    let metrics = replayed.and_then(|traced| {
        verify_trajectory(real, &traced)?;
        let client = representative_client(setup);
        let rng = SeededRng::new(seed)
            .fork(real.rounds as u64) // fork: construction-seed
            .fork(client as u64 + 1); // fork: construction-seed
        let spans = replay_client(setup, &traced.final_global, client, &rng, CLIENT_REPS)?;
        Ok(per_layer(setup, real, &traced, &spans))
    });
    let metrics = metrics.unwrap_or_else(|err| {
        failures.push(format!("traced replay refused: {err}"));
        Vec::new()
    });
    Report::new(verdict.attempted, verdict.failed, failures, metrics)
}
