#include "fedpkd/core/fedpkd.hpp"

#include <numeric>
#include <stdexcept>

#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/ops.hpp"
#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::core {

namespace {

nn::Classifier make_server_model(const std::string& arch,
                                 const fl::Federation& fed,
                                 std::uint64_t salt) {
  tensor::Rng rng = fed.rng.split(salt);
  return nn::make_classifier(arch, fed.input_dim, fed.num_classes, rng);
}

}  // namespace

FedPkd::FedPkd(fl::Federation& fed, Options options)
    : options_(options),
      server_(make_server_model(options.server_arch, fed, 0x504b44)),
      server_rng_(fed.rng.split(0x504b45)) {
  if (options_.select_ratio <= 0.0f || options_.select_ratio > 1.0f) {
    throw std::invalid_argument("FedPkd: select_ratio must be in (0, 1]");
  }
  if (options_.gamma < 0.0f || options_.gamma > 1.0f ||
      options_.delta < 0.0f || options_.delta > 1.0f) {
    throw std::invalid_argument("FedPkd: gamma/delta must be in [0, 1]");
  }
  // Probe one throwaway model per distinct architecture instead of scanning
  // the population — a virtual federation may have a million clients but
  // only a handful of archs. The probes' weights are never drawn.
  for (const std::string& arch : fed.distinct_archs()) {
    const nn::Classifier probe = nn::make_classifier_deferred(
        arch, fed.input_dim, fed.num_classes, tensor::Rng());
    if (probe.feature_dim() != server_.feature_dim()) {
      throw std::invalid_argument(
          "FedPkd: all models must share the prototype feature dimension");
    }
  }
}

std::string FedPkd::name() const {
  std::string n = "FedPKD";
  if (!options_.use_prototypes) n += "(w/o Pro)";
  if (!options_.use_filter) n += "(w/o D.F.)";
  if (options_.aggregation == LogitAggregation::kMean) n += "(mean-agg)";
  return n;
}

void FedPkd::on_round_start(fl::RoundContext& ctx) {
  if (all_ids_.size() != ctx.fed.public_data.size()) {
    all_ids_.resize(ctx.fed.public_data.size());
    std::iota(all_ids_.begin(), all_ids_.end(), 0u);
  }
  // Insert this cohort's slots serially so the concurrent hooks below only
  // read the map structure / assign their own mapped value.
  for (const fl::Client* client : ctx.active) {
    received_.try_emplace(static_cast<std::uint32_t>(client->id));
  }
}

// ---- 1. ClientPriTrain (Eq. 4 in round 0, Eq. 16 afterwards) ---------------
void FedPkd::local_update(fl::RoundContext&, std::size_t, fl::Client& client) {
  const auto it = received_.find(static_cast<std::uint32_t>(client.id));
  fl::TrainOptions opts;
  opts.epochs = options_.local_epochs;
  if (options_.use_prototypes && it != received_.end() && it->second) {
    opts.prototype_matrix = &it->second->matrix;
    opts.prototype_class_present = &it->second->present;
    opts.prototype_epsilon = options_.epsilon;
  }
  client.train_local(opts);
}

// ---- 2. Dual knowledge transfer: logits + prototypes to the server ---------
// Clients ship their *softened* outputs (softmax at the configured
// temperature). Aggregating in probability space is essential: raw logit
// magnitudes let a specialist that is confidently wrong off-distribution
// dominate Eq. (6)'s weighting, whereas probability vectors bound every
// client's vote and make Var(.) a proper confidence signal (this matches how
// FedDF/DS-FL exchange "logits" and is ablated in abl_aggregation). The
// two-part bundle is all-or-nothing on the pipeline: a client whose upload
// partially failed is skipped this round, exactly like a straggler drop-out.
fl::PayloadBundle FedPkd::make_upload(fl::RoundContext& ctx, std::size_t,
                                      fl::Client& client) {
  fl::PayloadBundle bundle;
  bundle.parts.push_back(comm::LogitsPayload{
      all_ids_,
      tensor::softmax_rows(client.logits_on(ctx.fed.public_data.features),
                           options_.temperature)});
  bundle.parts.push_back(
      to_payload(compute_local_prototypes(client.model, client.train_data)));
  return bundle;
}

void FedPkd::server_step(fl::RoundContext& ctx,
                         std::vector<fl::Contribution>& contributions) {
  const std::size_t public_n = ctx.fed.public_data.size();
  const bool robust_rule =
      ctx.fed.robust.rule != robust::RobustAggregation::kNone;
  std::vector<tensor::Tensor> client_logits;
  client_logits.reserve(contributions.size());
  for (const fl::Contribution& c : contributions) {
    client_logits.push_back(c.bundle.logits(0).logits);
  }

  // ---- 3a. Aggregate knowledge (Eq. 6-7) and prototypes (Eq. 8) -----------
  // A convex combination of probability rows is itself a distribution, so
  // the aggregate S^t doubles as the distillation teacher without another
  // softmax. Under a robust rule both spaces switch estimators: the
  // probability rows are robust-combined (then re-projected onto the
  // simplex — coordinate estimators do not preserve it), and prototypes are
  // aggregated per class by the same rule instead of the support-weighted
  // mean of Eq. (8).
  tensor::Tensor aggregated;
  PrototypeSet global;
  if (robust_rule) {
    robust::CombineResult combined =
        robust::robust_combine(ctx.fed.robust, client_logits);
    aggregated = std::move(combined.value);
    robust::renormalize_rows(aggregated);
    std::vector<comm::PrototypesPayload> proto_uploads;
    proto_uploads.reserve(contributions.size());
    for (const fl::Contribution& c : contributions) {
      proto_uploads.push_back(c.bundle.prototypes(1));
    }
    robust::PrototypeAggregateResult proto =
        robust::robust_aggregate_prototypes(ctx.fed.robust, proto_uploads);
    if (ctx.faults != nullptr) {
      ctx.faults->clipped_contributions += combined.clipped + proto.clipped;
    }
    global = from_payload(proto.payload, ctx.fed.num_classes,
                          server_.feature_dim());
  } else {
    std::vector<PrototypeSet> client_prototypes;
    client_prototypes.reserve(contributions.size());
    for (const fl::Contribution& c : contributions) {
      client_prototypes.push_back(from_payload(
          c.bundle.prototypes(1), ctx.fed.num_classes, server_.feature_dim()));
    }
    aggregated = aggregate_logits(options_.aggregation, client_logits,
                                  options_.variance_weight_cap);
    global = aggregate_prototypes(client_prototypes,
                                  options_.paper_literal_prototype_scaling);
  }

  // ---- 3b. Prototype-based data filtering (Algorithm 1) -------------------
  FilterResult filter;
  const bool prototype_free_strategy =
      options_.filter_strategy == FilterStrategy::kEntropy ||
      options_.filter_strategy == FilterStrategy::kMargin;
  if (options_.use_filter &&
      (options_.use_prototypes || prototype_free_strategy)) {
    filter = filter_public_data_ext(server_, ctx.fed.public_data.features,
                                    aggregated, global, options_.select_ratio,
                                    options_.filter_strategy);
  } else {
    // Ablation: keep everything, but still pseudo-label via Eq. (9).
    filter.pseudo_labels = tensor::argmax_rows(aggregated);
    filter.selected.resize(public_n);
    std::iota(filter.selected.begin(), filter.selected.end(), 0);
    filter.distances.assign(public_n, 0.0f);
  }
  last_keep_fraction_ = public_n == 0
                            ? 1.0f
                            : static_cast<float>(filter.selected.size()) /
                                  static_cast<float>(public_n);

  // ---- 3c. Prototype-based ensemble distillation (Eq. 11-13) --------------
  selected_inputs_ = ctx.fed.public_data.features.gather_rows(filter.selected);
  tensor::Tensor selected_teacher = aggregated.gather_rows(filter.selected);
  std::vector<int> selected_pseudo;
  selected_pseudo.reserve(filter.selected.size());
  for (std::size_t i : filter.selected) {
    selected_pseudo.push_back(filter.pseudo_labels[i]);
  }
  ServerDistillOptions distill_opts;
  distill_opts.epochs = options_.server_epochs;
  distill_opts.batch_size = options_.distill_batch;
  distill_opts.lr = ctx.fed.client_defaults.lr;
  distill_opts.delta = options_.use_prototypes ? options_.delta : 1.0f;
  distill_opts.temperature = options_.temperature;
  distill_opts.use_prototype_loss = options_.use_prototypes;
  distill_opts.confidence_weighted = options_.confidence_weighted_distill;
  server_ensemble_distill(server_, selected_inputs_, selected_teacher,
                          selected_pseudo, global, distill_opts, server_rng_);

  selected_ids_.clear();
  selected_ids_.reserve(filter.selected.size());
  for (std::size_t i : filter.selected) {
    selected_ids_.push_back(static_cast<std::uint32_t>(i));
  }
  global_prototypes_ = std::move(global);
}

// ---- 4. Server knowledge transfer (Eq. 14-15) ------------------------------
// Only the filtered subset's logits travel downlink (Section IV-C), which is
// where FedPKD's communication savings come from; the global prototypes ride
// in the same all-or-nothing bundle.
std::optional<fl::PayloadBundle> FedPkd::make_download(fl::RoundContext& ctx) {
  // The event-driven engine pulls the download at a client's next wake —
  // possibly rounds after the server step that chose the subset, or right
  // after a resume — so regather the filtered inputs from the checkpointed
  // ids when the cached tensor does not match the selection.
  if (selected_inputs_.shape().empty() ||
      selected_inputs_.shape()[0] != selected_ids_.size()) {
    std::vector<std::size_t> rows(selected_ids_.begin(), selected_ids_.end());
    selected_inputs_ = ctx.fed.public_data.features.gather_rows(rows);
  }
  tensor::Tensor server_probs = tensor::softmax_rows(
      fl::compute_logits(server_, selected_inputs_), options_.temperature);
  fl::PayloadBundle bundle;
  bundle.parts.push_back(
      comm::LogitsPayload{selected_ids_, std::move(server_probs)});
  bundle.parts.push_back(to_payload(*global_prototypes_));
  (void)ctx;
  return bundle;
}

void FedPkd::apply_download(fl::RoundContext& ctx, std::size_t,
                            fl::Client& client, const fl::WireBundle& bundle) {
  const comm::LogitsPayload payload = bundle.logits(0);

  // Eq. (14): pseudo-labels from the *server* logits; Eq. (15): digest.
  fl::DistillSet set;
  std::vector<std::size_t> rows(payload.sample_ids.size());
  for (std::size_t i = 0; i < payload.sample_ids.size(); ++i) {
    rows[i] = payload.sample_ids[i];
  }
  set.inputs = ctx.fed.public_data.features.gather_rows(rows);
  set.teacher_probs = payload.logits;  // already probability rows
  set.pseudo_labels = tensor::argmax_rows(payload.logits);
  fl::TrainOptions digest_opts;
  digest_opts.epochs = options_.public_epochs;
  client.digest(set, options_.gamma, digest_opts, options_.temperature);

  // Eq. (16)'s regularizer target for the next round comes off the wire too.
  received_.find(static_cast<std::uint32_t>(client.id))->second = from_payload(
      bundle.prototypes(1), ctx.fed.num_classes, client.model.feature_dim());
}

// ---- Crash-resume ----------------------------------------------------------
// Prototype sets ride in their wire encoding (comm::encode of to_payload),
// length-prefixed and preceded by the (num_classes, feature_dim) pair that
// from_payload needs to rebuild the dense matrix.

namespace {

void put_prototype_set(const std::optional<PrototypeSet>& set,
                       std::vector<std::byte>& out) {
  out.push_back(static_cast<std::byte>(set ? 1 : 0));
  if (!set) return;
  tensor::put_u64(set->num_classes(), out);
  tensor::put_u64(set->feature_dim(), out);
  const std::vector<std::byte> wire = comm::encode(to_payload(*set));
  tensor::put_u64(wire.size(), out);
  out.insert(out.end(), wire.begin(), wire.end());
}

std::optional<PrototypeSet> get_prototype_set(
    std::span<const std::byte> bytes, std::size_t& offset) {
  if (offset >= bytes.size()) {
    throw tensor::DecodeError("FedPkd state: truncated prototype set");
  }
  const bool has = bytes[offset++] != std::byte{0};
  if (!has) return std::nullopt;
  const auto num_classes =
      static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  const auto feature_dim =
      static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  const auto size = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  if (size > bytes.size() - offset) {
    throw tensor::DecodeError("FedPkd state: truncated prototype set");
  }
  const comm::PrototypesPayload payload =
      comm::decode_prototypes(bytes.subspan(offset, size));
  offset += size;
  return from_payload(payload, num_classes, feature_dim);
}

}  // namespace

void FedPkd::save_state(std::vector<std::byte>& out) {
  tensor::encode_tensor(server_.flat_weights(), out);
  tensor::put_rng(server_rng_, out);
  tensor::put_f32(last_keep_fraction_, out);
  put_prototype_set(global_prototypes_, out);
  tensor::put_u64(received_.size(), out);
  for (const auto& [id, set] : received_) {
    tensor::put_u32(id, out);
    put_prototype_set(set, out);
  }
  // The filtered-subset selection: the async engine serves make_download
  // from it across rounds, so a resumed run must rebuild the same download.
  tensor::put_u64(selected_ids_.size(), out);
  for (const std::uint32_t id : selected_ids_) tensor::put_u32(id, out);
}

void FedPkd::load_state(std::span<const std::byte> bytes,
                        std::size_t& offset) {
  server_.set_flat_weights(tensor::decode_tensor(bytes, offset));
  server_rng_ = tensor::get_rng(bytes, offset);
  last_keep_fraction_ = tensor::get_f32(bytes, offset);
  global_prototypes_ = get_prototype_set(bytes, offset);
  const auto clients = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  received_.clear();
  for (std::size_t c = 0; c < clients; ++c) {
    const std::uint32_t id = tensor::get_u32(bytes, offset);
    received_[id] = get_prototype_set(bytes, offset);
  }
  const auto selected = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  selected_ids_.assign(selected, 0);
  for (std::size_t s = 0; s < selected; ++s) {
    selected_ids_[s] = tensor::get_u32(bytes, offset);
  }
  selected_inputs_ = tensor::Tensor();  // regathered on the next download
}

}  // namespace fedpkd::core
