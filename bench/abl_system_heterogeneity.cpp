// Quantifies the paper's Section-I motivation: on a heterogeneous device
// fleet, forcing everyone to train an identical model (FedAvg) makes the
// synchronous round block on the weakest device, while capacity-matched
// models under FedPKD balance the round. Uses the analytic timing model of
// fl/timing.hpp over the *measured* per-round traffic.

#include "common.hpp"

#include "fedpkd/fl/timing.hpp"

int main() {
  using namespace fedpkd;
  const bench::Scale scale = bench::current_scale();
  bench::print_banner("Motivation — round time under system heterogeneity",
                      scale);

  const auto bundle = bench::make_bundle("synth10", scale);
  const auto spec = fl::PartitionSpec::dirichlet(0.5);

  // Device fleet: 2 sensors, 2 gateways, 2 edge boxes.
  std::vector<fl::DeviceProfile> profiles;
  for (std::size_t c = 0; c < scale.clients; ++c) {
    if (c < scale.clients / 3) profiles.push_back(fl::DeviceProfile::sensor());
    else if (c < 2 * scale.clients / 3) {
      profiles.push_back(fl::DeviceProfile::gateway());
    } else {
      profiles.push_back(fl::DeviceProfile::edge_box());
    }
  }

  bench::Table table({"setting", "makespan/round", "straggler factor",
                      "S_acc after run"});

  // --- FedAvg: identical resmlp29 everywhere (sized for the edge boxes) ----
  {
    fl::FederationConfig config;
    config.num_clients = scale.clients;
    config.client_archs = {"resmlp29"};
    config.seed = 7;
    config.num_threads = 0;
    auto fed = fl::build_federation(bundle, spec, config);
    fl::FedAvg algo(*fed, {.local_epochs = scale.epochs(10),
                           .proximal_mu = {}});
    fl::RunOptions opts;
    opts.rounds = scale.rounds;
    const auto history = fl::run_federation(algo, *fed, opts);

    std::vector<std::size_t> flops;
    for (std::size_t vc = 0; vc < fed->num_clients(); ++vc) {
      fl::Client& client = fed->client(vc);
      flops.push_back(fl::training_flops(client.model,
                                         client.train_data.size(),
                                         scale.epochs(10)));
    }
    const auto report =
        fl::estimate_round_time(fed->meter, scale.rounds - 1, profiles, flops);
    std::ostringstream mk, sf;
    mk << std::fixed << std::setprecision(1) << report.makespan_seconds << "s";
    sf << std::fixed << std::setprecision(1) << report.straggler_factor << "x";
    table.add_row({"FedAvg, identical resmlp29", mk.str(), sf.str(),
                   bench::pct(history.best_server_accuracy())});
  }

  // --- FedPKD: capacity-matched models per device class --------------------
  {
    fl::FederationConfig config;
    config.num_clients = scale.clients;
    config.client_archs = {};
    for (std::size_t c = 0; c < scale.clients; ++c) {
      if (c < scale.clients / 3) config.client_archs.push_back("resmlp11");
      else if (c < 2 * scale.clients / 3) {
        config.client_archs.push_back("resmlp20");
      } else {
        config.client_archs.push_back("resmlp29");
      }
    }
    config.seed = 7;
    config.num_threads = 0;
    auto fed = fl::build_federation(bundle, spec, config);
    auto options = bench::fedpkd_options(scale, "resmlp56");
    core::FedPkd algo(*fed, options);
    fl::RunOptions opts;
    opts.rounds = scale.rounds;
    const auto history = fl::run_federation(algo, *fed, opts);

    std::vector<std::size_t> flops;
    for (std::size_t vc = 0; vc < fed->num_clients(); ++vc) {
      fl::Client& client = fed->client(vc);
      // FedPKD clients also run inference over the public set and digest the
      // filtered subset; count all three contributions.
      const std::size_t local = fl::training_flops(
          client.model, client.train_data.size(), options.local_epochs);
      const std::size_t publish =
          fl::inference_flops(client.model, fed->public_data.size());
      const std::size_t digest = fl::training_flops(
          client.model,
          static_cast<std::size_t>(algo.last_filter_keep_fraction() *
                                   static_cast<float>(fed->public_data.size())),
          options.public_epochs);
      flops.push_back(local + publish + digest);
    }
    const auto report =
        fl::estimate_round_time(fed->meter, scale.rounds - 1, profiles, flops);
    std::ostringstream mk, sf;
    mk << std::fixed << std::setprecision(1) << report.makespan_seconds << "s";
    sf << std::fixed << std::setprecision(1) << report.straggler_factor << "x";
    table.add_row({"FedPKD, capacity-matched", mk.str(), sf.str(),
                   bench::pct(history.best_server_accuracy())});
  }

  table.print();
  std::cout << "\nPaper expectation: the identical-model setting has a much "
               "larger makespan and straggler factor (weak devices gate the "
               "round); capacity-matched FedPKD balances the fleet.\n";
  return 0;
}
