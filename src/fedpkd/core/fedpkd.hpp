#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "fedpkd/core/aggregation.hpp"
#include "fedpkd/core/distill.hpp"
#include "fedpkd/core/filter_ext.hpp"
#include "fedpkd/fl/round_pipeline.hpp"

namespace fedpkd::core {

/// FedPKD — the paper's prototype-based knowledge distillation framework
/// (Algorithm 2) on the staged round pipeline, with every component
/// switchable for the ablation studies:
///
///  round t:
///   1. local_update = ClientPriTrain: supervised local training; from round
///      1 onward the prototype regularizer of Eq. (16) pulls client features
///      toward the global prototypes the client received last round.
///   2. make_upload = dual knowledge transfer: each client uploads its
///      public-set logits and its local prototypes (Eq. 5) as one
///      all-or-nothing bundle.
///   3. server_step: aggregate logits (Eq. 6-7) and prototypes (Eq. 8),
///      filter the public set (Algorithm 1), and train the server model with
///      prototype-based ensemble distillation (Eq. 11-13).
///   4. make_download/apply_download = server knowledge transfer: server
///      logits for the *filtered* subset plus the global prototypes go back
///      to every client, which digests them via Eq. (14)-(15).
class FedPkd : public fl::StagedAlgorithm {
 public:
  struct Options {
    std::size_t local_epochs = 15;   // e_{c,tr}
    std::size_t public_epochs = 10;  // e_{c,p}
    std::size_t server_epochs = 40;  // e_s
    float select_ratio = 0.7f;       // theta
    float delta = 0.5f;              // server loss balance (Eq. 13)
    float gamma = 0.5f;              // client public loss balance (Eq. 15)
    float epsilon = 0.5f;            // client prototype weight (Eq. 16)
    float temperature = 1.0f;
    std::string server_arch = "resmlp56";
    std::size_t distill_batch = 32;
    LogitAggregation aggregation = LogitAggregation::kVarianceWeighted;
    /// Cap on any single client's per-sample variance weight (0 = uncapped;
    /// see aggregate_logits_variance_weighted for the adversarial rationale).
    float variance_weight_cap = 0.0f;
    /// Ablations (Fig. 8): "w/o Pro" disables both prototype losses;
    /// "w/o D.F." trains on the unfiltered public set.
    bool use_prototypes = true;
    bool use_filter = true;
    /// Fidelity switch for the literal Eq. (8) scaling (see prototype.hpp).
    bool paper_literal_prototype_scaling = false;
    /// Future-work extensions (Section VII): alternative filter scores and
    /// confidence-weighted ensemble distillation. Defaults reproduce the
    /// paper exactly; bench/abl_filter_strategies sweeps the alternatives.
    FilterStrategy filter_strategy = FilterStrategy::kPrototypeDistance;
    bool confidence_weighted_distill = false;
  };

  FedPkd(fl::Federation& fed, Options options);

  std::string name() const override;
  nn::Classifier* server_model() override { return &server_; }

  void on_round_start(fl::RoundContext& ctx) override;
  void local_update(fl::RoundContext& ctx, std::size_t i,
                    fl::Client& client) override;
  fl::PayloadBundle make_upload(fl::RoundContext& ctx, std::size_t i,
                                fl::Client& client) override;
  void server_step(fl::RoundContext& ctx,
                   std::vector<fl::Contribution>& contributions) override;
  std::optional<fl::PayloadBundle> make_download(fl::RoundContext& ctx) override;
  void apply_download(fl::RoundContext& ctx, std::size_t i, fl::Client& client,
                      const fl::WireBundle& bundle) override;

  /// Crash-resume: cross-round state is the server model, the server RNG
  /// stream, the global prototypes, and what each client last received over
  /// the wire (the Eq. 16 regularizer target). Everything else is rebuilt
  /// per round.
  bool supports_resume() const override { return true; }
  void save_state(std::vector<std::byte>& out) override;
  void load_state(std::span<const std::byte> bytes,
                  std::size_t& offset) override;

  /// Global prototypes after the most recent round (empty before round 0).
  const std::optional<PrototypeSet>& global_prototypes() const {
    return global_prototypes_;
  }
  /// Fraction of the public set kept by the filter in the last round.
  float last_filter_keep_fraction() const { return last_keep_fraction_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  nn::Classifier server_;
  tensor::Rng server_rng_;
  std::optional<PrototypeSet> global_prototypes_;
  float last_keep_fraction_ = 1.0f;
  std::vector<std::uint32_t> all_ids_;  // 0..public_n-1, filled on first use
  /// What each client actually received over the wire (Eq. 16 regularizer
  /// target), keyed by client id; stale or absent after a dropped downlink.
  /// A map, not a population-sized vector: with a virtual-client pool only
  /// clients that ever participated occupy memory (O(touched clients), not
  /// O(population)) — and the checkpoint stays proportional to the touched
  /// set. Cohort keys are inserted serially in on_round_start; the
  /// concurrent apply_download hook only assigns to its own existing slot.
  std::map<std::uint32_t, std::optional<PrototypeSet>> received_;
  /// The filtered subset server_step selected, kept for make_download.
  tensor::Tensor selected_inputs_;
  std::vector<std::uint32_t> selected_ids_;
};

}  // namespace fedpkd::core
