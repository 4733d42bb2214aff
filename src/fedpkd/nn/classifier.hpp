#pragma once

#include <memory>
#include <optional>
#include <string>

#include "fedpkd/nn/linear.hpp"
#include "fedpkd/nn/module.hpp"

namespace fedpkd::nn {

/// A classification model split into a feature extractor ("body", the paper's
/// representation layers R_w) and a linear classifier head, so callers can:
///
///   * read penultimate-layer features for prototype computation (Eq. 5),
///   * inject an extra gradient at the feature layer for the prototype
///     regularizers (Eq. 12, Eq. 16), and
///   * read logits from the last fully connected layer for knowledge
///     distillation (Eq. 6, 11, 15).
///
/// Classifier is move-only; clone() makes an independent deep copy (used when
/// the server seeds its model or FedAvg broadcasts the global weights).
///
/// A model from make_classifier_deferred holds its initial weights as a
/// pending init stream until something reads them. The first read
/// (parameters, grad_jobs, flat_weights, forward, prepare) draws
/// exactly what make_classifier would have drawn from that stream; a
/// set_flat_weights that comes first drops the stream undrawn. The
/// shared-lane passes logits_into/features_into never draw: they throw
/// std::logic_error on a pending model (fl::compute_logits draws before it
/// forks).
class Classifier {
 public:
  Classifier(std::string arch_name, std::unique_ptr<Module> body,
             std::unique_ptr<Linear> head, std::size_t input_dim);

  Classifier(Classifier&&) noexcept = default;
  Classifier& operator=(Classifier&&) noexcept = default;

  /// -- Whole-batch passes ----------------------------------------------------

  /// Full forward to logits: [batch, num_classes]. With train == true this is
  /// prepare() plus forward_rows() over every row.
  Tensor forward(const Tensor& x, bool train = true);

  /// Inference-only logits written into `out` (allocation-free after
  /// warm-up). Runs the training pass's row kernels, so it is bitwise equal
  /// to forward(x) with either `train`. Writes no module state, so it can be
  /// interleaved with training passes and run on several lanes over one
  /// model at once. `out` must not alias `x`.
  /// Throws std::logic_error while the initial weights are pending.
  void logits_into(const Tensor& x, Tensor& out);
  /// The features twin of logits_into: the penultimate-layer features
  /// R_w(x), [batch, feature_dim], written into `out`.
  void features_into(const Tensor& x, Tensor& out);

  /// Features of the most recent training pass (the body's output buffer).
  const Tensor& last_features() const { return body_->output(); }

  /// Backpropagates a logits gradient through head and body over every row,
  /// then accumulates (+=) every parameter gradient. If `grad_features_extra`
  /// is non-null it is added to the gradient arriving at the feature layer —
  /// this is how the MSE prototype losses couple in without a second pass.
  /// Requires a prior forward(x, train=true) with `x` still alive.
  void backward(const Tensor& grad_logits,
                const Tensor* grad_features_extra = nullptr);

  /// -- Row-phased training step (nn::TrainStep drives these) -----------------

  /// Validates the [m, input_dim] batch and shapes every step buffer. Serial.
  void prepare(const Tensor& x);
  /// Body then head over rows [r0, r1) of the batch `x` given to prepare().
  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1);
  /// The step's full-batch logits.
  const Tensor& logits() const { return head_->output(); }
  /// Head then body over rows [r0, r1); `grad_features_extra` (or null) is
  /// added at the feature layer. Parameter gradients are left to the jobs.
  void backward_rows(const Tensor& grad_logits,
                     const Tensor* grad_features_extra, std::size_t r0,
                     std::size_t r1);
  /// One gradient job per parameter, in parameters() order.
  std::vector<GradJob> grad_jobs();
  /// Frees every step buffer of body and head.
  void release_step_buffers();

  /// -- Parameters ------------------------------------------------------------

  std::vector<Parameter*> parameters();
  void zero_grad();
  /// Trainable scalars, counted once at construction (the round engines read
  /// it per client, per stage, as a claim-order cost key).
  std::size_t parameter_count() const { return parameter_count_; }
  /// Parameter footprint in bytes when shipped as float32 (comm accounting).
  std::size_t parameter_bytes() const { return 4 * parameter_count_; }

  Tensor flat_weights();
  /// Replaces every weight (throws std::invalid_argument unless `flat` has
  /// parameter_count() entries); a pending init stream is dropped undrawn.
  void set_flat_weights(const Tensor& flat);

  /// -- Deferred initialization -----------------------------------------------

  /// True while the initial weights are still to be drawn.
  bool init_pending() const { return pending_init_.has_value(); }
  /// Draws the pending initial weights now; a no-op once they are drawn.
  /// Serial: call it before lanes share the model.
  void draw_init();

  /// -- Introspection ---------------------------------------------------------

  const std::string& arch() const { return arch_; }
  std::size_t input_dim() const { return input_dim_; }
  std::size_t feature_dim() const { return head_->in_features(); }
  std::size_t num_classes() const { return head_->out_features(); }

  /// Deep copy; a pending init stream is copied undrawn.
  Classifier clone() const;

 private:
  friend Classifier make_classifier_deferred(const std::string& arch,
                                             std::size_t input_dim,
                                             std::size_t num_classes,
                                             tensor::Rng stream);

  /// grad_jobs() without drawing a pending init.
  std::vector<GradJob> module_grad_jobs();

  /// Throws std::invalid_argument, naming `who`, unless x is
  /// [batch, input_dim].
  void check_input(const Tensor& x, const char* who) const;
  /// Throws std::logic_error, naming `who`, while the init is pending.
  void check_drawn(const char* who) const;
  /// Throws unless `g` matches the step buffer `like` (logic_error before a
  /// training pass).
  static void check_grad(const Tensor& g, const Tensor& like, const char* what);

  std::string arch_;
  std::unique_ptr<Module> body_;
  std::unique_ptr<Linear> head_;
  std::size_t input_dim_;
  std::size_t parameter_count_ = 0;
  Tensor grad_features_;  // [m, feature_dim] head gradient + extra
  bool forward_through_head_ = false;
  std::optional<Rng> pending_init_;  // set while every Linear W is undrawn
};

}  // namespace fedpkd::nn
