//! The K-slot middleware server behind every FedCross variant (Algorithm 1
//! of the paper).
//!
//! [`MiddlewareServer`] owns everything the FedCross servers share: the
//! construction checks, dispatch of middleware slot `i` to client `Lc[i]`,
//! mapping the uploads that arrived back to their slots in canonical slot
//! order, collaborator selection, α-fusion into the retired middleware
//! buffers, the lone-survivor copy, global-model generation and middleware
//! snapshot/restore. A variant supplies one [`UploadStage`]: how the uploads
//! that arrived become the candidate models to fuse, plus that stage's own
//! checkpoint fragment.
//!
//! | variant | stage | candidate for slot `i` |
//! |---|---|---|
//! | [`FedCross`](crate::FedCross) | [`FedCrossConfig`] | the uploaded block itself (zero copies) |
//! | [`RobustFedCross`](crate::RobustFedCross) | [`RobustFedCrossConfig`](crate::RobustFedCrossConfig) | `middlewareᵢ +` robust consensus delta, or `+` its own clipped delta |
//! | [`BufferedFedCross`](crate::BufferedFedCross) | [`BufferedStage`](crate::buffered::BufferedStage) | `middlewareᵢ + wᵢ·δᵢ` from the buffered, staleness-weighted delta |
//! | `DpFedCross` (privacy crate) | its DP stage | `dispatchedᵢ +` privatised delta |
//!
//! docs/DESIGN.md §7 ("FedCross servers") states the stage contract.

use crate::aggregation::{
    cross_aggregate_all_into, cross_aggregate_propellers_into, global_model, global_model_into,
};
use crate::algorithm::FedCrossConfig;
use crate::selection::mean_pairwise_similarity;
use fedcross_flsim::checkpoint::{AlgorithmState, StateError};
use fedcross_flsim::client::LocalUpdate;
use fedcross_flsim::engine::{FederatedAlgorithm, RoundContext, RoundReport};
use fedcross_nn::params::ParamBlock;

/// The uploads that arrived in one round, each paired with the middleware
/// slot it trained, in ascending slot order (see [`slot_order`]).
pub type Arrived = Vec<(usize, LocalUpdate)>;

/// Pairs every upload with the slot its client was dispatched
/// (`selected[slot]` is that client) and sorts by slot: the canonical order
/// that makes a round a function of the upload *set*, never of arrival
/// order. Under dropout some slots have no upload; their middleware models
/// carry over to the next round.
///
/// # Panics
/// Panics if an update comes from a client that was not selected.
pub fn slot_order(selected: &[usize], updates: Vec<LocalUpdate>) -> Arrived {
    let slot_of = |client| {
        selected
            .iter()
            .position(|&c| c == client)
            .expect("every update comes from a selected client")
    };
    let mut arrived: Arrived = updates
        .into_iter()
        .map(|u| (slot_of(u.client), u))
        // alloc: bounded — cohort-sized slot mapping, once per round
        .collect();
    arrived.sort_by_key(|&(slot, _)| slot);
    arrived
}

/// What an upload stage sees of the round it stages.
pub struct Round<'a, 'c> {
    /// Absolute round index.
    pub index: usize,
    /// The round's context (federation size, service plane).
    pub ctx: &'a RoundContext<'c>,
    /// The middleware list that was dispatched this round.
    pub middleware: &'a [ParamBlock],
}

/// One round's candidate models, each with the middleware slot it fuses
/// into, in strictly ascending slot order.
pub struct Staged<C> {
    /// The round report over the uploads the candidates came from.
    pub report: RoundReport,
    /// Middleware slot of every candidate.
    pub slots: Vec<usize>,
    /// The models to fuse.
    pub candidates: Vec<C>,
}

impl<C> Staged<C> {
    /// One candidate per upload of `arrived`, reported over those uploads in
    /// slot order.
    pub fn from_arrived(arrived: &[(usize, LocalUpdate)], candidates: Vec<C>) -> Self {
        // alloc: bounded — cohort-sized report view, once per round
        let ordered: Vec<&LocalUpdate> = arrived.iter().map(|(_, update)| update).collect();
        Self {
            report: RoundReport::from_ordered(&ordered),
            // alloc: bounded — cohort-sized slot list, once per round
            slots: arrived.iter().map(|&(slot, _)| slot).collect(),
            candidates,
        }
    }
}

/// What a FedCross variant adds to the middleware server.
pub trait UploadStage {
    /// The candidate model type handed to fusion.
    type Candidate: AsRef<[f32]> + Sync;

    /// The algorithm name. Checkpoints carry it and resume refuses a
    /// mismatch, so it must stay stable for a given configuration.
    fn name(&self) -> String;

    /// The fusion parameters: α, collaborator selection and acceleration.
    fn fusion(&self) -> FedCrossConfig;

    /// Turns one round's `arrived` uploads into the candidates to fuse.
    fn candidates(&mut self, round: Round<'_, '_>, arrived: Arrived) -> Staged<Self::Candidate>;

    /// Adds this stage's cross-round state to a checkpoint.
    fn save_state(&self, state: AlgorithmState) -> AlgorithmState {
        state
    }

    /// Restores what [`UploadStage::save_state`] added, for `k` middleware
    /// models of dimension `dim`, leaving the stage untouched on error.
    fn load_state(
        &mut self,
        state: &AlgorithmState,
        k: usize,
        dim: usize,
    ) -> Result<(), StateError> {
        let _ = (state, k, dim);
        Ok(())
    }
}

/// `K` middleware models trained in FedCross's multi-to-multi scheme and
/// fused by cross-aggregation every round; the variant-specific part is the
/// [`UploadStage`] `S`.
///
/// The middleware list lives on the shared copy-on-write parameter plane
/// ([`ParamBlock`]): dispatching the `K` models to clients is `K` reference
/// bumps, and fusion writes each round's candidates **into** the retired
/// middleware buffers, so a steady-state round performs no full-model
/// clones on the server.
pub struct MiddlewareServer<S> {
    pub(crate) stage: S,
    middleware: Vec<ParamBlock>,
}

impl<S: UploadStage> MiddlewareServer<S> {
    /// Creates the server with `k` middleware models, all initialised from
    /// the same parameter vector (the initialisation every baseline uses, so
    /// comparisons are fair). The `k` models share one buffer
    /// (copy-on-write), so construction is `O(d)`, not `O(K·d)`.
    ///
    /// # Panics
    /// Panics if `k < 2` or the stage's α lies outside `[0.5, 1)`.
    pub fn with_stage(stage: S, init_params: Vec<f32>, k: usize) -> Self {
        assert!(
            k >= 2,
            "{} needs at least two middleware models",
            stage.name()
        );
        assert!(
            (0.5..1.0).contains(&stage.fusion().alpha),
            "alpha must lie in [0.5, 1.0)"
        );
        let middleware = vec![ParamBlock::from(init_params); k];
        Self { stage, middleware }
    }

    /// The upload stage.
    pub fn stage(&self) -> &S {
        &self.stage
    }

    /// The current middleware model list, in slot order.
    pub fn middleware(&self) -> &[ParamBlock] {
        &self.middleware
    }

    /// Number of middleware models `K`.
    pub fn num_middleware(&self) -> usize {
        self.middleware.len()
    }

    /// Mean pairwise cosine similarity of the middleware models — the paper's
    /// argument is that this converges towards 1 as training proceeds.
    pub fn middleware_similarity(&self) -> f32 {
        mean_pairwise_similarity(&self.middleware)
    }

    /// The server half of a round (Algorithm 1 lines 9–14): `stage` turns
    /// the uploads into candidates against the current middleware, then each
    /// candidate's slot is overwritten with its α-fusion with the
    /// collaborator(s) chosen among the candidates. Slots without a candidate
    /// carry over.
    ///
    /// # Panics
    /// Panics unless the candidates come one per slot in ascending order.
    pub fn fuse_with<C: AsRef<[f32]> + Sync>(
        &mut self,
        round: usize,
        stage: impl FnOnce(&mut S, &[ParamBlock]) -> Staged<C>,
    ) -> RoundReport {
        let Staged {
            report,
            slots,
            candidates,
        } = stage(&mut self.stage, &self.middleware);
        assert!(
            slots.len() == candidates.len() && slots.windows(2).all(|w| w[0] < w[1]),
            "one candidate per slot, in ascending slot order"
        );
        if candidates.len() < 2 {
            if let (Some(&slot), Some(lone)) = (slots.first(), candidates.first()) {
                // A lone survivor has no collaborator; keep its training.
                // Copy into the retired middleware buffer rather than
                // adopting the candidate: an upload block shares its buffer
                // with the client worker's reusable slot, and retaining it
                // would force that worker to re-allocate its upload.
                self.middleware[slot]
                    .make_mut()
                    .copy_from_slice(lone.as_ref());
            }
            return report;
        }

        let fusion = self.stage.fusion();
        let alpha = fusion.acceleration.alpha_at(round, fusion.alpha);
        let propellers = fusion.acceleration.propellers_at(round);
        // The retired middleware blocks are unique again now that the
        // dispatch jobs are dropped, so `make_mut` reuses their buffers.
        let mut targets: Vec<&mut [f32]> = self
            .middleware
            .iter_mut()
            .enumerate()
            .filter(|(slot, _)| slots.binary_search(slot).is_ok())
            .map(|(_, block)| block.make_mut().as_mut_slice())
            // alloc: bounded — cohort-sized fusion target list, once per round
            .collect();
        if propellers <= 1 {
            let partners = fusion
                .strategy
                .select_all_with(round, &candidates, fusion.measure);
            cross_aggregate_all_into(&mut targets, &candidates, &partners, alpha);
        } else {
            for (i, out) in targets.into_iter().enumerate() {
                let picks: Vec<&[f32]> = propeller_indices(round, i, propellers, candidates.len())
                    .into_iter()
                    .map(|j| candidates[j].as_ref())
                    // alloc: bounded — propeller view list, acceleration warm-up rounds only
                    .collect();
                cross_aggregate_propellers_into(out, candidates[i].as_ref(), &picks, alpha);
            }
        }
        report
    }
}

/// Selects `count` distinct propeller indices for model `i` among `k`
/// candidates using the in-order schedule (Section III-D).
pub(crate) fn propeller_indices(round: usize, i: usize, count: usize, k: usize) -> Vec<usize> {
    let base_offset = round % (k - 1) + 1;
    // alloc: bounded — cohort-sized pick list, once per round
    let mut picks = Vec::with_capacity(count);
    let mut step = 0usize;
    while picks.len() < count.min(k - 1) {
        let j = (i + base_offset + step) % k;
        step += 1;
        if j != i && !picks.contains(&j) {
            picks.push(j);
        }
    }
    picks
}

impl<S: UploadStage> FederatedAlgorithm for MiddlewareServer<S> {
    fn name(&self) -> String {
        self.stage.name()
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let k = self.middleware.len();
        let selected_k = ctx.clients_per_round();
        assert_eq!(
            selected_k,
            k,
            "{} requires clients_per_round ({selected_k}) to equal the number of middleware models ({k})",
            self.stage.name()
        );

        // Algorithm 1 lines 4–5: random selection, then shuffle so every
        // model gets an equal chance of meeting every client.
        let mut selected = ctx.select_clients();
        ctx.rng_mut().shuffle(&mut selected);

        // Steps 1–3: dispatch middleware model i to client Lc[i], train,
        // upload. Each job borrows its middleware block (reference bump);
        // the only O(d) copy on the dispatch path is the client loading the
        // parameters into its own model instance.
        let jobs: Vec<(usize, ParamBlock)> = selected
            .iter()
            .zip(self.middleware.iter())
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            .map(|(&client, model)| (client, model.clone()))
            // alloc: bounded — cohort-sized per-round dispatch/bookkeeping, inside the round_alloc ceiling
            .collect();
        let updates = ctx.local_train_batch(&jobs);
        drop(jobs); // release the dispatch references before fusing in place

        let arrived = slot_order(&selected, updates);
        let ctx: &RoundContext<'_> = ctx;
        self.fuse_with(round, |stage, middleware| {
            stage.candidates(
                Round {
                    index: round,
                    ctx,
                    middleware,
                },
                arrived,
            )
        })
    }

    fn global_params(&self) -> Vec<f32> {
        global_model(&self.middleware)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        // Allocation-free `GlobalModelGen` for the per-round evaluation path;
        // `global_model_into` zero-fills `out` itself.
        out.resize(self.middleware[0].len(), 0.0);
        global_model_into(out, &self.middleware);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        // The middleware list in slot order is the shared training state (the
        // global model is derived from it): K reference bumps, no O(K·d)
        // clone storm. The stage appends its own fragment.
        let state = AlgorithmState::multi_model(self.middleware.clone());
        Ok(self.stage.save_state(state))
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        let (k, dim) = (self.middleware.len(), self.middleware[0].len());
        let models = state.expect_models(k, dim)?;
        self.stage.load_state(state, k, dim)?;
        // Reference bumps again; the first post-restore round's fusion pays
        // one copy-on-write duplication per block.
        self.middleware = models.to_vec();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::cross_aggregate;
    use crate::selection::SelectionStrategy;

    fn update(client: usize, params: Vec<f32>) -> LocalUpdate {
        LocalUpdate {
            client,
            params: ParamBlock::from(params),
            num_samples: 10 + client,
            train_loss: 0.25 * client as f32,
            steps: 1,
        }
    }

    /// Plain FedCross with in-order collaborators over three slots whose
    /// middleware models already own distinct buffers.
    fn server() -> MiddlewareServer<FedCrossConfig> {
        let config = FedCrossConfig {
            alpha: 0.75,
            strategy: SelectionStrategy::InOrder,
            ..Default::default()
        };
        let mut server = MiddlewareServer::with_stage(config, vec![0.0; 2], 3);
        for (slot, block) in server.middleware.iter_mut().enumerate() {
            block.make_mut().fill(slot as f32);
        }
        server
    }

    fn pass_through(
        staged: Staged<Vec<f32>>,
    ) -> impl FnOnce(&mut FedCrossConfig, &[ParamBlock]) -> Staged<Vec<f32>> {
        move |_, _| staged
    }

    #[test]
    fn slot_order_sorts_uploads_by_their_dispatched_slot() {
        let selected = [7, 2, 5];
        let arrived = slot_order(&selected, vec![update(5, vec![0.0]), update(7, vec![0.0])]);
        let order: Vec<(usize, usize)> = arrived.iter().map(|(s, u)| (*s, u.client)).collect();
        assert_eq!(order, vec![(0, 7), (2, 5)]);
        let staged = Staged::from_arrived(&arrived, vec![(); 2]);
        assert_eq!(staged.slots, vec![0, 2]);
        assert_eq!(staged.report.participants, 2);
        assert_eq!(staged.report.total_samples, 17 + 15);
    }

    #[test]
    #[should_panic(expected = "every update comes from a selected client")]
    fn an_upload_from_an_unselected_client_is_rejected() {
        let _ = slot_order(&[1, 2], vec![update(3, vec![0.0])]);
    }

    #[test]
    fn fusion_writes_the_kernel_result_into_the_retired_buffers() {
        let mut server = server();
        let before: Vec<*const f32> = server.middleware().iter().map(|m| m.as_ptr()).collect();
        let (a, b) = (vec![1.0, 2.0], vec![-3.0, 0.5]);
        let staged = Staged {
            report: RoundReport::default(),
            slots: vec![0, 2],
            candidates: vec![a.clone(), b.clone()],
        };
        server.fuse_with(0, pass_through(staged));
        // In-order partners over two candidates: each fuses with the other.
        assert_eq!(
            server.middleware()[0].as_slice(),
            cross_aggregate(&a, &b, 0.75)
        );
        assert_eq!(
            server.middleware()[2].as_slice(),
            cross_aggregate(&b, &a, 0.75)
        );
        // Slot 1 had no candidate and carries over.
        assert_eq!(server.middleware()[1].as_slice(), &[1.0, 1.0]);
        let after: Vec<*const f32> = server.middleware().iter().map(|m| m.as_ptr()).collect();
        assert_eq!(before, after, "fusion must reuse the middleware buffers");
    }

    #[test]
    fn a_lone_candidate_is_kept_as_trained() {
        let mut server = server();
        let staged = Staged {
            report: RoundReport::default(),
            slots: vec![1],
            candidates: vec![vec![4.0, -4.0]],
        };
        server.fuse_with(0, pass_through(staged));
        assert_eq!(server.middleware()[1].as_slice(), &[4.0, -4.0]);
        assert_eq!(server.middleware()[0].as_slice(), &[0.0, 0.0]);
        assert_eq!(server.middleware()[2].as_slice(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "ascending slot order")]
    fn candidates_out_of_slot_order_are_rejected() {
        let staged = Staged {
            report: RoundReport::default(),
            slots: vec![2, 0],
            candidates: vec![vec![0.0; 2], vec![1.0; 2]],
        };
        server().fuse_with(0, pass_through(staged));
    }
}
