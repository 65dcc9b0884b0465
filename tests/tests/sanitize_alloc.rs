//! End-to-end proof that the engine's `sanitize-alloc` guards are live and
//! green: a counting global allocator forwards every allocation to
//! `fedcross_tensor::alloc_guard::note_alloc`, and a full `Simulation` run
//! — whose steady-state round and eval sections the engine brackets with
//! `AllocGuard`s — must complete without any guard tripping. A non-vacuity
//! check on `regions_entered()` proves the guards actually ran (a build
//! where the feature were silently off would pass trivially otherwise).
//!
//! Compiled only under `--features sanitize-alloc`; without the feature
//! this binary is empty.
//!
//! Guards are thread-local: a scope only sees its own thread's
//! allocations. The engine opens one per training job on the pool thread
//! that runs it, so a large allocation on any worker is caught too. The
//! simulation tests share the process-wide rayon pool and thread count, so
//! they run one at a time.

#![cfg(feature = "sanitize-alloc")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use fedcross_tensor::alloc_guard::{note_alloc, regions_entered, AllocGuard};

/// Forwards every allocation (and growing realloc) to the sanitizer hook.
struct ForwardingAllocator;

unsafe impl GlobalAlloc for ForwardingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static FORWARDER: ForwardingAllocator = ForwardingAllocator;

use fedcross::{FedCross, FedCrossConfig, SelectionStrategy, SimilarityMeasure};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::Heterogeneity;
use fedcross_flsim::engine::STEADY_LARGE_BYTES;
use fedcross_flsim::{LocalTrainConfig, Simulation, SimulationConfig};
use fedcross_nn::layers::{Dropout, Flatten, Linear, Relu};
use fedcross_nn::{Layer, Model, Param, Sequential};
use fedcross_tensor::{SeededRng, Tensor};

/// Serialises the simulation tests: they share the rayon pool and its
/// process-wide thread count.
static SIMULATIONS: Mutex<()> = Mutex::new(());

fn probe_config(rounds: usize, clients_per_round: usize) -> SimulationConfig {
    SimulationConfig {
        rounds,
        clients_per_round,
        eval_every: 1,
        eval_batch_size: 16,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 99,
    }
}

fn probe_fedcross(template: &dyn Model, k: usize) -> FedCross {
    FedCross::new(
        FedCrossConfig {
            alpha: 0.9,
            strategy: SelectionStrategy::LowestSimilarity,
            measure: SimilarityMeasure::Cosine,
            ..Default::default()
        },
        template.params_flat(),
        k,
    )
}

fn probe_data(rng: &mut SeededRng) -> FederatedDataset {
    FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 6,
            samples_per_client: 20,
            test_samples: 40,
            ..Default::default()
        },
        Heterogeneity::Iid,
        rng,
    )
}

/// Runs the same ~400 KB probe model round_alloc.rs pins through 6 rounds
/// of FedCross with `k` middleware models at `threads` rayon threads (0 =
/// the default count). The model is an order of magnitude above the guard
/// threshold, so any reintroduced full-model allocation in a guarded
/// region trips immediately.
fn run_guarded_probe(k: usize, threads: usize) {
    let _serial = SIMULATIONS.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = SeededRng::new(7);
    let data = probe_data(&mut rng);
    let template = Sequential::new("sanitize-probe")
        .push(Flatten::new())
        .push(Linear::new(3 * 16 * 16, 128, &mut rng))
        .push(Relu::new())
        .push(Dropout::new(0.2, &mut rng))
        .push(Linear::new(128, 10, &mut rng))
        .boxed();
    assert!(
        template.param_count() * 4 >= 4 * STEADY_LARGE_BYTES,
        "the probe model must dwarf the guard threshold"
    );

    let mut algorithm = probe_fedcross(template.as_ref(), k);

    let before = regions_entered();
    let sim = Simulation::new(probe_config(6, k), &data, template.clone_model());
    // Any ≥64 KiB allocation inside a steady round or eval panics the
    // guard, failing this test — completing the run IS the assertion.
    rayon::set_num_threads(threads);
    let outcome = catch_unwind(AssertUnwindSafe(|| sim.run(&mut algorithm)));
    rayon::set_num_threads(0);
    let result = outcome.unwrap_or_else(|payload| resume_unwind(payload));
    assert_eq!(result.rounds_completed, 6);
    assert!(result.history.records().iter().all(|r| r.test_loss.is_finite()));

    // Non-vacuity: 5 steady rounds + 5 steady evals were guarded.
    let entered = regions_entered() - before;
    assert!(
        entered >= 10,
        "expected at least 10 guarded regions (5 steady rounds + 5 steady evals), saw {entered}"
    );
}

#[test]
fn simulation_runs_green_with_guards_active() {
    run_guarded_probe(4, 0);
}

/// More rayon threads than middleware models: the per-round parameter
/// average asks the pool for every thread, training only for `k`. A steady
/// round's training must still land on helpers that trained in the warm-up
/// round, whose matmul packing scratch has already grown.
#[test]
fn simulation_runs_green_with_more_threads_than_clients() {
    run_guarded_probe(2, 4);
}

/// The guard must actually see real allocations from the global allocator —
/// not just the direct `note_alloc` calls the unit tests drive.
#[test]
fn guard_records_real_allocations() {
    let g = AllocGuard::enter("probe-small", 1 << 20);
    let small = vec![0u8; 512];
    drop(small);
    let s = g.finish();
    assert!(s.allocations > 0, "the forwarding allocator must report into the guard");
    assert_eq!(s.violations, 0, "512 B is below a 1 MiB threshold");

    let g = AllocGuard::enter("probe-large", 64 * 1024);
    let large = vec![0u8; 256 * 1024];
    drop(large);
    let s = g.finish();
    assert_eq!(s.violations, 1, "one 256 KiB allocation must be recorded");
    assert!(s.worst >= 256 * 1024);
}

/// An identity layer that allocates a fresh above-threshold scratch buffer
/// on every forward pass run by a rayon pool helper: exactly the regression
/// the guards exist to catch, placed where the calling thread's guard
/// cannot see it.
#[derive(Clone)]
struct LeakyScratch;

impl Layer for LeakyScratch {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        if std::thread::current().name() == Some("rayon-worker") {
            std::hint::black_box(vec![0u8; 2 * STEADY_LARGE_BYTES]);
        }
        input.clone()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        grad_output.clone()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "leaky-scratch"
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A large allocation inside the parallel training body of a steady round
/// must be reported even when it happens on a pool helper, not on the
/// thread that entered the round guard: at 2 threads, the engine's
/// worker-side guards raise it through the pool to the caller. Each round
/// trains 4 clients on 2 threads, so a helper trains some of them.
#[test]
fn worker_allocation_in_a_steady_round_is_reported() {
    let _serial = SIMULATIONS.lock().unwrap_or_else(PoisonError::into_inner);
    let k = 4usize;
    let mut rng = SeededRng::new(11);
    let data = probe_data(&mut rng);
    let template = Sequential::new("leaky-probe")
        .push(Flatten::new())
        .push(LeakyScratch)
        .push(Linear::new(3 * 16 * 16, 10, &mut rng));
    let mut algorithm = probe_fedcross(&template, k);
    let sim = Simulation::new(probe_config(4, k), &data, template.boxed());

    rayon::set_num_threads(2);
    let outcome = catch_unwind(AssertUnwindSafe(|| sim.run(&mut algorithm)));
    rayon::set_num_threads(0);

    let payload = outcome.expect_err("the leaky layer allocates in every steady round");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        message.contains("alloc_guard") && message.contains("steady-round"),
        "expected a steady-round guard violation, got: {message}"
    );
}
