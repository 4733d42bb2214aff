#include "fedpkd/nn/module.hpp"

#include <deque>
#include <stdexcept>

namespace fedpkd::nn {

namespace {

struct EvalLevel {
  Tensor a;
  Tensor b;
};

// A deque, so growing it never moves the levels that live scratches use.
thread_local std::deque<EvalLevel> t_eval_levels;
thread_local std::size_t t_eval_depth = 0;

}  // namespace

EvalScratch::EvalScratch() {
  if (t_eval_levels.size() == t_eval_depth) t_eval_levels.emplace_back();
  EvalLevel& level = t_eval_levels[t_eval_depth++];
  a_ = &level.a;
  b_ = &level.b;
}

EvalScratch::~EvalScratch() { --t_eval_depth; }

namespace {

void check_batch(const Tensor& x) {
  if (x.rank() != 2) {
    throw std::invalid_argument(
        "Module::forward: expected [batch, features], got " +
        x.shape_string());
  }
}

}  // namespace

Tensor Module::forward(const Tensor& x, bool train) {
  if (!train) {
    Tensor out;
    infer(x, out);
    return out;
  }
  check_batch(x);
  prepare(x.rows(), x.cols());
  forward_rows(x, 0, x.rows());
  return output();
}

void Module::infer(const Tensor& x, Tensor& out) {
  check_batch(x);
  out.ensure_shape({x.rows(), out_cols(x.cols())});
  forward_rows(x, 0, x.rows(), &out);
}

Tensor Module::backward(const Tensor& grad_out) {
  const Tensor& y = output();
  if (y.empty()) {
    throw std::logic_error("Module::backward called before forward(train)");
  }
  if (!grad_out.same_shape(y)) {
    throw std::invalid_argument("Module::backward: grad shape " +
                                grad_out.shape_string() + " vs output " +
                                y.shape_string());
  }
  backward_rows(grad_out, 0, grad_out.rows());
  std::vector<GradJob> jobs;
  collect_grad_jobs(jobs);
  for (const GradJob& job : jobs) job.owner->accumulate_grad(*job.param);
  return input_grad();
}

std::size_t Module::out_cols(std::size_t in_cols) const { return in_cols; }

void Module::prepare(std::size_t m, std::size_t in_cols) {
  y_.ensure_shape({m, out_cols(in_cols)});
  gx_.ensure_shape({m, in_cols});
}

void Module::collect_grad_jobs(std::vector<GradJob>&) {}

void Module::accumulate_grad(Parameter& p) {
  throw std::logic_error("Module::accumulate_grad: '" + p.name +
                         "' is not a parameter of this module");
}

void Module::release_step_buffers() {
  y_ = Tensor();
  gx_ = Tensor();
}

std::vector<Parameter*> Module::parameters() {
  std::vector<GradJob> jobs;
  collect_grad_jobs(jobs);
  std::vector<Parameter*> out;
  out.reserve(jobs.size());
  for (const GradJob& job : jobs) out.push_back(job.param);
  return out;
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

std::size_t Module::parameter_count() {
  std::size_t n = 0;
  for (Parameter* p : parameters()) n += p->numel();
  return n;
}

Tensor flatten_parameters(std::vector<Parameter*> params) {
  std::size_t total = 0;
  for (const Parameter* p : params) total += p->numel();
  Tensor flat({total});
  std::size_t offset = 0;
  for (const Parameter* p : params) {
    std::copy(p->value.flat().begin(), p->value.flat().end(),
              flat.flat().begin() + static_cast<std::ptrdiff_t>(offset));
    offset += p->numel();
  }
  return flat;
}

void unflatten_parameters(const Tensor& flat, std::vector<Parameter*> params) {
  std::size_t total = 0;
  for (const Parameter* p : params) total += p->numel();
  if (flat.rank() != 1 || flat.numel() != total) {
    throw std::invalid_argument(
        "unflatten_parameters: flat vector has " +
        std::to_string(flat.numel()) + " elements, model has " +
        std::to_string(total));
  }
  std::size_t offset = 0;
  for (Parameter* p : params) {
    std::copy(flat.flat().begin() + static_cast<std::ptrdiff_t>(offset),
              flat.flat().begin() + static_cast<std::ptrdiff_t>(offset + p->numel()),
              p->value.flat().begin());
    offset += p->numel();
  }
}

}  // namespace fedpkd::nn
