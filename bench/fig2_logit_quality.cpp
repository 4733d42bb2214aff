// Reproduces Fig. 2: two clients trained on disjoint class halves of
// Synth-10 (client 1: classes 0-4, client 2: classes 5-9). Reports
//  (a) each client's per-class logit accuracy on the public set — expected
//      to be high on the client's own classes and near zero elsewhere, and
//  (b) the per-class accuracy of the equally averaged logits — expected to
//      be mediocre everywhere, which is the paper's motivation for
//      variance-weighted aggregation and prototypes.

#include "common.hpp"

#include "fedpkd/core/aggregation.hpp"
#include "fedpkd/fl/trainer.hpp"
#include "fedpkd/tensor/ops.hpp"

int main() {
  using namespace fedpkd;
  const bench::Scale scale = bench::current_scale();
  bench::print_banner("Fig. 2 — per-class logit quality under class split",
                      scale);

  const auto bundle = bench::make_bundle("synth10", scale);
  fl::FederationConfig config;
  config.num_clients = 2;
  config.client_archs = {"resmlp20"};
  config.local_test_per_client = 100;
  config.seed = 7;
  config.num_threads = 0;
  auto fed = fl::build_federation(bundle, fl::PartitionSpec::class_split(),
                                  config);

  // Local training only (the motivation experiment has no aggregation loop).
  for (std::size_t vc = 0; vc < fed->num_clients(); ++vc) {
    fl::Client& client = fed->client(vc);
    fl::TrainOptions opts;
    opts.epochs = scale.epochs(15);
    fl::train_supervised(client.model, client.train_data, opts, client.rng);
  }

  std::vector<tensor::Tensor> logits;
  for (std::size_t vc = 0; vc < fed->num_clients(); ++vc) {
    fl::Client& client = fed->client(vc);
    logits.push_back(
        fl::compute_logits(client.model, fed->public_data.features));
  }
  const tensor::Tensor mean_agg = core::aggregate_logits_mean(logits);
  const tensor::Tensor var_agg =
      core::aggregate_logits_variance_weighted(logits);

  const auto c1 =
      nn::per_class_accuracy(logits[0], fed->public_data.labels, 10);
  const auto c2 =
      nn::per_class_accuracy(logits[1], fed->public_data.labels, 10);
  const auto am =
      nn::per_class_accuracy(mean_agg, fed->public_data.labels, 10);
  const auto av = nn::per_class_accuracy(var_agg, fed->public_data.labels, 10);

  bench::Table table({"class", "client1 (0-4)", "client2 (5-9)",
                      "mean-agg", "var-agg (Eq.6-7)"});
  for (std::size_t j = 0; j < 10; ++j) {
    table.add_row({std::to_string(j), bench::pct(c1.accuracy[j]),
                   bench::pct(c2.accuracy[j]), bench::pct(am.accuracy[j]),
                   bench::pct(av.accuracy[j])});
  }
  table.print();

  const float overall_mean = nn::accuracy(mean_agg, fed->public_data.labels);
  const float overall_var = nn::accuracy(var_agg, fed->public_data.labels);
  std::cout << "\noverall aggregated accuracy: mean=" << bench::pct(overall_mean)
            << " variance-weighted=" << bench::pct(overall_var) << "\n";
  std::cout << "Paper expectation (measured deltas in EXPERIMENTS.md): each client is strong on its own classes "
               "and weak on the other's; equal averaging is mediocre across "
               "the board.\n";
  return 0;
}
