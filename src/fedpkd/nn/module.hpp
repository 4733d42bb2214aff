#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fedpkd/tensor/tensor.hpp"

namespace fedpkd::nn {

using tensor::Rng;
using tensor::Tensor;

/// A trainable tensor with its gradient accumulator.
///
/// Parameters are owned by the Module that declares them; optimizers and
/// federated aggregators hold non-owning Parameter* obtained via
/// Module::parameters() and must not outlive the model.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  std::size_t numel() const { return value.numel(); }
};

class Module;

/// The gradient job of one parameter: `owner->accumulate_grad(*param)`.
struct GradJob {
  Module* owner;
  Parameter* param;
};

/// Base class for differentiable layers.
///
/// The library uses layer-wise backpropagation rather than a tape. Each layer
/// has one forward, the row kernel forward_rows. A training step on an
/// [m, in] batch runs in three phases (see DESIGN.md §2):
///
///   1. prepare(m, in) — serial: shapes the step's output and input-gradient
///      buffers;
///   2. forward_rows / backward_rows over row ranges that partition [0, m) —
///      ranges of one phase may run concurrently, each writes only its own
///      rows of the module's buffers and never touches a parameter gradient;
///   3. one gradient job per parameter (collect_grad_jobs), reading the
///      full-batch input and output gradient after every row range finished.
///
/// Inference (infer) runs the same forward_rows into a tensor it is handed
/// and writes no module state: several lanes may run it over one model at
/// once, and it leaves the step buffers of a training step as they were.
///
/// Every row of a phase is computed by row-independent kernels and every
/// parameter gradient by one full-batch job in ascending row order, so the
/// result is bitwise independent of how the rows were split, and inference
/// equals the training forward bit for bit. A module keeps only pointers to
/// its input and output gradient, so both must stay alive until the gradient
/// jobs ran; one step is in flight per module, and the buffers stay until
/// release_step_buffers().
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// -- Whole-batch passes ----------------------------------------------------

  /// train == true: the whole step's first two phases on one range — prepare,
  /// then forward_rows over all rows; returns a copy of output(). train ==
  /// false: infer() into a fresh tensor.
  Tensor forward(const Tensor& x, bool train = true);

  /// Backward over all rows, then every gradient job: accumulates (+=) the
  /// parameter gradients and returns dLoss/dInput. Must follow a
  /// forward(x, /*train=*/true) whose `x` is still alive.
  Tensor backward(const Tensor& grad_out);

  /// Inference into a caller-provided tensor: shapes `out` to
  /// [x.rows(), out_cols(x.cols())] and runs forward_rows over every row
  /// into it, so steady-state evaluation (public-set logits every round)
  /// reuses the same buffers and allocates nothing after warm-up. `out` must
  /// not alias `x`. Writes no module state.
  void infer(const Tensor& x, Tensor& out);

  /// -- The row kernel and the training step ---------------------------------

  /// The output width for an input of `in_cols` columns. Throws
  /// std::invalid_argument on a width the layer cannot take. The default
  /// suits layers whose output has their input's shape.
  virtual std::size_t out_cols(std::size_t in_cols) const;

  /// Shapes the step buffers for an [m, in_cols] input: output() to
  /// [m, out_cols(in_cols)], input_grad() to [m, in_cols]. Serial.
  virtual void prepare(std::size_t m, std::size_t in_cols);

  /// Writes rows [r0, r1) of the output from the full-batch input `x` (the
  /// same tensor for every range of a pass). With `out` null (training) the
  /// rows go to output() and the range starting at row 0 records `x` for the
  /// gradient jobs; otherwise they go to `*out`, already shaped to
  /// [x.rows(), out_cols(x.cols())], and no module state is written.
  virtual void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1,
                            Tensor* out = nullptr) = 0;

  /// Writes rows [r0, r1) of input_grad() from the full-batch output
  /// gradient `gy`. The range starting at row 0 records `gy` for the
  /// gradient jobs.
  virtual void backward_rows(const Tensor& gy, std::size_t r0,
                             std::size_t r1) = 0;

  /// The step's full-batch output and input-gradient buffers.
  virtual const Tensor& output() const { return y_; }
  virtual const Tensor& input_grad() const { return gx_; }

  /// Appends one gradient job per parameter, in declaration order.
  virtual void collect_grad_jobs(std::vector<GradJob>& out);

  /// Accumulates (+=) the full-batch gradient of `p`, one of this module's
  /// own parameters. Runs after every backward range of the step; jobs of
  /// different parameters may run concurrently.
  virtual void accumulate_grad(Parameter& p);

  /// Frees the step buffers (the next prepare() reallocates them).
  virtual void release_step_buffers();

  /// -- Parameters ------------------------------------------------------------

  /// Deep copy (fresh parameters with equal values, zero gradients).
  virtual std::unique_ptr<Module> clone() const = 0;

  /// All parameters of this module (and submodules), in declaration order.
  std::vector<Parameter*> parameters();

  /// Zeroes every parameter gradient.
  void zero_grad();

  /// Total number of trainable scalars.
  std::size_t parameter_count();

 protected:
  /// Where forward_rows writes: `*out`, or the step output when `out` is
  /// null.
  Tensor& rows_out(Tensor* out) { return out != nullptr ? *out : y_; }

  Tensor y_;   // [m, out] step output
  Tensor gx_;  // [m, in] step input gradient
};

/// Hop buffers for inference chains (Sequential, Residual,
/// Classifier::logits_into, the lanes of fl::compute_logits). Each live
/// EvalScratch on a thread holds its own nesting level of a per-thread pool,
/// so nested chains never alias, while sibling blocks at one depth reuse the
/// same cache-warm tensors and steady state allocates nothing.
class EvalScratch {
 public:
  EvalScratch();
  ~EvalScratch();
  EvalScratch(const EvalScratch&) = delete;
  EvalScratch& operator=(const EvalScratch&) = delete;

  Tensor& a() { return *a_; }
  Tensor& b() { return *b_; }

 private:
  Tensor* a_;
  Tensor* b_;
};

/// -- Flat weight-vector helpers (federated averaging works on these) --------

/// Concatenates all parameter values into one rank-1 tensor.
Tensor flatten_parameters(std::vector<Parameter*> params);

/// Writes a flat weight vector back into the parameters. Throws if the total
/// element count does not match.
void unflatten_parameters(const Tensor& flat, std::vector<Parameter*> params);

}  // namespace fedpkd::nn
