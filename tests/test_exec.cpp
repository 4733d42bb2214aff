// The execution engine's two promises: (1) the pool is a correct, reusable
// parallel_for primitive, and (2) threading a federated round through it
// changes nothing — num_threads in {1, 2, 4} produce bitwise-identical
// metrics and weights because every client owns its RNG stream and every
// aggregation reduces in client-index order.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "fedpkd/core/distill.hpp"
#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/fedet.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace {

using namespace fedpkd;
using tensor::Rng;
using tensor::Tensor;

// ------------------------------------------------------------- ThreadPool ---

TEST(ThreadPool, EveryIndexExecutesExactlyOnce) {
  exec::ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);  // chunks are disjoint, so plain ints suffice
  pool.run(kN, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  exec::ThreadPool pool(4);
  EXPECT_THROW(
      pool.run(100,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   if (i == 57) throw std::runtime_error("chunk failed");
                 }
               }),
      std::runtime_error);

  // The failure must not poison the pool: the next run still works.
  std::atomic<int> total{0};
  pool.run(64, [&](std::size_t begin, std::size_t end) {
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, CallerChunkExceptionPropagates) {
  exec::ThreadPool pool(2);
  // Index 0 always lands in the caller's own chunk.
  EXPECT_THROW(pool.run(10,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            if (i == 0) throw std::invalid_argument("caller");
                          }
                        }),
               std::invalid_argument);
}

TEST(ThreadPool, ReusableAcrossRounds) {
  exec::ThreadPool pool(3);
  long long sum = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<long long> partial(64, 0);
    pool.run(64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        partial[i] = static_cast<long long>(i);
      }
    });
    sum += std::accumulate(partial.begin(), partial.end(), 0LL);
  }
  EXPECT_EQ(sum, 200LL * (63 * 64 / 2));
}

TEST(ThreadPool, ZeroAndOneElementRangesDoNotDeadlock) {
  exec::ThreadPool pool(4);
  int calls = 0;
  pool.run(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.run(1, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A full-width outer split leaves each lane a nesting budget of 1, so the
  // inner parallel_for must run inline — visible as in_parallel_region() —
  // and still cover every index exactly once. Driven through a ThreadPool
  // directly so the behavior is pinned regardless of the machine's core
  // count (the global pool clamps to hardware_threads()).
  exec::ThreadPool pool(4);
  std::vector<int> hits(32, 0);
  pool.run(4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t outer = begin; outer < end; ++outer) {
      EXPECT_TRUE(exec::ThreadPool::in_parallel_region());
      EXPECT_EQ(exec::ThreadPool::lane_budget(), 1u);
      exec::parallel_for(8, [&](std::size_t b, std::size_t e) {
        EXPECT_TRUE(exec::ThreadPool::in_parallel_region());
        for (std::size_t inner = b; inner < e; ++inner) {
          ++hits[outer * 8 + inner];
        }
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedRunWithLeftoverBudgetFansOutWithoutOversubscribing) {
  // An outer split narrower than the pool leaves budget for nested fan-out:
  // with 4 lanes and an outer width of 2, each outer chunk may use 2 lanes.
  // The nested run must see that budget, split accordingly, and never exceed
  // the pool size in concurrently live lanes.
  exec::ThreadPool pool(4);
  std::vector<int> hits(2 * 64, 0);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  pool.run(
      2,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t outer = begin; outer < end; ++outer) {
          EXPECT_EQ(exec::ThreadPool::lane_budget(), 2u);
          pool.run(64, [&](std::size_t b, std::size_t e) {
            const int now = ++live;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            for (std::size_t inner = b; inner < e; ++inner) {
              ++hits[outer * 64 + inner];
            }
            --live;
          });
        }
      },
      /*max_lanes=*/2);
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_LE(peak.load(), 4);
}

TEST(ThreadPool, ScopedThreadLimitForcesInline) {
  exec::set_num_threads(4);
  {
    exec::ScopedThreadLimit limit(1);
    int calls = 0;
    exec::parallel_for(100, [&](std::size_t begin, std::size_t end) {
      ++calls;  // single inline chunk → no data race on the counter
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, 100u);
    });
    EXPECT_EQ(calls, 1);
  }
  exec::set_num_threads(1);
}

// ------------------------------------------------------ parallel_for_each ---

/// A fixed, non-monotone permutation of [0, n): the reverse of the index
/// order with every third index moved to the front.
std::vector<std::size_t> scrambled_order(std::size_t n) {
  std::vector<std::size_t> order;
  for (std::size_t i = n; i-- > 0;) {
    if (i % 3 == 0) order.push_back(i);
  }
  for (std::size_t i = n; i-- > 0;) {
    if (i % 3 != 0) order.push_back(i);
  }
  return order;
}

/// Runs parallel_for_each over scrambled_order(n) on the global pool and
/// returns the order the body saw the indices in (as observed under a lock).
std::vector<std::size_t> visited_order(std::size_t n) {
  std::vector<std::size_t> seen;
  std::mutex mutex;
  exec::parallel_for_each(scrambled_order(n),
                          [&](std::size_t begin, std::size_t end) {
                            EXPECT_EQ(end, begin + 1);
                            std::lock_guard<std::mutex> lock(mutex);
                            seen.push_back(begin);
                          });
  return seen;
}

/// The global pool at `lanes` lanes, hardware clamp lifted, for one scope.
class GlobalLanes {
 public:
  explicit GlobalLanes(std::size_t lanes) {
    setenv("FEDPKD_THREADS_OVERSUBSCRIBE", "1", 1);
    exec::set_num_threads(lanes);
  }
  ~GlobalLanes() {
    exec::set_num_threads(1);
    unsetenv("FEDPKD_THREADS_OVERSUBSCRIBE");
  }
  GlobalLanes(const GlobalLanes&) = delete;
  GlobalLanes& operator=(const GlobalLanes&) = delete;
};

TEST(ThreadPool, ForEachRunsEveryIndexOnceAtEveryLaneCount) {
  for (const std::size_t lanes : {1, 2, 3, 4, 8}) {
    GlobalLanes pool(lanes);
    ASSERT_EQ(exec::num_threads(), lanes);
    for (const std::size_t n : {1, 2, 7, 64, 257}) {
      std::vector<int> hits(n, 0);  // one writer per index: plain ints
      exec::parallel_for_each(scrambled_order(n),
                              [&](std::size_t i, std::size_t) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i], 1) << lanes << " lanes, n " << n << ", index " << i;
      }
    }
  }
}

TEST(ThreadPool, ForEachAtOneLaneRunsInlineInOrder) {
  EXPECT_EQ(visited_order(50), scrambled_order(50));
  GlobalLanes pool(4);
  exec::ScopedThreadLimit limit(1);
  EXPECT_EQ(visited_order(50), scrambled_order(50));
}

TEST(ThreadPool, ForEachClaimsIndicesInOrder) {
  // Lanes claim from one cursor in `order`. When the index at position p
  // draws its ticket, every earlier position was claimed, and at most one
  // claim per other lane is still waiting to draw, so the ticket is at least
  // p - 3. (A preempted lane can fall arbitrarily far behind, so there is
  // no upper bound.) A contiguous split would start the last quarter of
  // `order` with one of the first tickets and break the bound.
  GlobalLanes pool(4);
  constexpr std::size_t kN = 200;
  const std::vector<std::size_t> order = scrambled_order(kN);
  std::vector<std::size_t> position(kN);
  for (std::size_t c = 0; c < kN; ++c) position[order[c]] = c;
  for (int repeat = 0; repeat < 20; ++repeat) {
    std::atomic<std::size_t> next_ticket{0};
    std::vector<std::size_t> ticket(kN, 0);
    exec::parallel_for_each(order, [&](std::size_t i, std::size_t) {
      ticket[i] = next_ticket.fetch_add(1);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_GE(ticket[i] + 3, position[i]) << "index " << i;
    }
  }
}

TEST(ThreadPool, ForEachRethrowsAfterEveryOtherIndexRan) {
  for (const std::size_t lanes : {1, 4}) {
    GlobalLanes pool(lanes);
    std::vector<int> hits(40, 0);
    EXPECT_THROW(exec::parallel_for_each(
                     scrambled_order(40),
                     [&](std::size_t i, std::size_t) {
                       ++hits[i];
                       if (i == 9 || i == 30) {
                         throw std::runtime_error("index failed");
                       }
                     }),
                 std::runtime_error);
    EXPECT_EQ(hits, std::vector<int>(40, 1)) << lanes << " lanes";
  }
}

TEST(ThreadPool, ForEachGrantsTheNestedBudget) {
  // floor(avail / lanes), as for parallel_for: 4 lanes over 2 indices leave
  // 2 for each body, over 3 indices 1.
  GlobalLanes pool(4);
  for (const std::size_t n : {2, 3, 8}) {
    const std::size_t lanes = std::min<std::size_t>(4, n);
    std::vector<std::size_t> budget(n, 0);
    exec::parallel_for_each(scrambled_order(n), [&](std::size_t i,
                                                    std::size_t) {
      EXPECT_TRUE(exec::ThreadPool::in_parallel_region());
      budget[i] = exec::ThreadPool::lane_budget();
      std::vector<int> inner(64, 0);
      exec::parallel_for(64, [&](std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; ++k) ++inner[k];
      });
      EXPECT_EQ(inner, std::vector<int>(64, 1));
    });
    EXPECT_EQ(budget, std::vector<std::size_t>(n, 4 / lanes)) << "n " << n;
  }
}

TEST(ThreadPool, ForEachOverAnEmptyOrderIsANoOp) {
  GlobalLanes pool(4);
  int calls = 0;
  exec::parallel_for_each({}, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, CostliestFirstBreaksTiesByIndex) {
  using Order = std::vector<std::size_t>;
  EXPECT_EQ(exec::costliest_first({}), Order{});
  EXPECT_EQ(exec::costliest_first({5}), Order{0});
  EXPECT_EQ(exec::costliest_first({1, 9, 4, 9, 1, 4}),
            (Order{1, 3, 2, 5, 0, 4}));
  EXPECT_EQ(exec::costliest_first({7, 7, 7}), (Order{0, 1, 2}));
}

// --------------------------------------------------- Serial ≡ parallel ------

struct RunResult {
  fl::RunHistory history;
  std::vector<Tensor> client_weights;
  Tensor server_weights;  // empty if no server model
};

bool identical(const RunResult& a, const RunResult& b) {
  if (a.history.rounds.size() != b.history.rounds.size()) return false;
  for (std::size_t t = 0; t < a.history.rounds.size(); ++t) {
    const auto& ra = a.history.rounds[t];
    const auto& rb = b.history.rounds[t];
    if (ra.server_accuracy != rb.server_accuracy) return false;
    if (ra.client_accuracy != rb.client_accuracy) return false;
    if (ra.cumulative_bytes != rb.cumulative_bytes) return false;
  }
  for (std::size_t c = 0; c < a.client_weights.size(); ++c) {
    if (tensor::max_abs_difference(a.client_weights[c], b.client_weights[c]) !=
        0.0f) {
      return false;
    }
  }
  if (a.server_weights.numel() != b.server_weights.numel()) return false;
  if (a.server_weights.numel() > 0 &&
      tensor::max_abs_difference(a.server_weights, b.server_weights) != 0.0f) {
    return false;
  }
  return true;
}

/// Builds a fresh federation with `threads` lanes and runs `rounds` rounds of
/// the algorithm `make` constructs. Everything else is pinned to one seed.
template <typename MakeAlgo>
RunResult run_with_threads(std::size_t threads, const fl::PartitionSpec& spec,
                           MakeAlgo&& make, std::size_t rounds = 2) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(901));
  const auto bundle = task.make_bundle(320, 240, 160);

  fl::FederationConfig config;
  config.num_clients = 4;
  config.client_archs = {"resmlp11"};
  config.local_test_per_client = 40;
  config.seed = 902;
  config.num_threads = threads;
  auto fed = fl::build_federation(bundle, spec, config);

  auto algo = make(*fed);
  fl::RunOptions options;
  options.rounds = rounds;

  RunResult result;
  result.history = fl::run_federation(*algo, *fed, options);
  for (std::size_t vc = 0; vc < fed->num_clients(); ++vc) {
    fl::Client& client = fed->client(vc);
    result.client_weights.push_back(client.model.flat_weights());
  }
  if (nn::Classifier* server = algo->server_model()) {
    result.server_weights = server->flat_weights();
  }
  exec::set_num_threads(1);
  return result;
}

core::FedPkd::Options small_fedpkd_options() {
  core::FedPkd::Options options;
  options.local_epochs = 1;
  options.public_epochs = 1;
  options.server_epochs = 1;
  options.server_arch = "resmlp11";
  return options;
}

TEST(SerialParallelEquivalence, FedPkdRunIsBitwiseIdenticalAcrossThreads) {
  auto make = [](fl::Federation& fed) {
    return std::make_unique<core::FedPkd>(fed, small_fedpkd_options());
  };
  const auto spec = fl::PartitionSpec::dirichlet(0.3);
  const RunResult serial = run_with_threads(1, spec, make);
  const RunResult two = run_with_threads(2, spec, make);
  const RunResult four = run_with_threads(4, spec, make);
  EXPECT_TRUE(identical(serial, two));
  EXPECT_TRUE(identical(serial, four));
}

TEST(SerialParallelEquivalence,
     FedPkdSingleClassClientsAreBitwiseIdenticalAcrossThreads) {
  // class_split gives every class exactly one contributing client, driving
  // aggregate_prototypes through its single-contributor (copy) path each
  // round.
  auto make = [](fl::Federation& fed) {
    return std::make_unique<core::FedPkd>(fed, small_fedpkd_options());
  };
  const auto spec = fl::PartitionSpec::class_split();
  const RunResult serial = run_with_threads(1, spec, make);
  const RunResult two = run_with_threads(2, spec, make);
  const RunResult four = run_with_threads(4, spec, make);
  EXPECT_TRUE(identical(serial, two));
  EXPECT_TRUE(identical(serial, four));
}

TEST(SerialParallelEquivalence, FedAvgRunIsBitwiseIdenticalAcrossThreads) {
  auto make = [](fl::Federation& fed) {
    return std::make_unique<fl::FedAvg>(
        fed, fl::FedAvg::Options{.local_epochs = 1, .proximal_mu = {}});
  };
  const auto spec = fl::PartitionSpec::dirichlet(0.3);
  const RunResult serial = run_with_threads(1, spec, make);
  const RunResult two = run_with_threads(2, spec, make);
  const RunResult four = run_with_threads(4, spec, make);
  EXPECT_TRUE(identical(serial, two));
  EXPECT_TRUE(identical(serial, four));
}

TEST(SerialParallelEquivalence, ServerEnsembleDistillIsBitwiseIdentical) {
  Rng data_rng(903);
  const std::size_t n = 96, dim = 16, classes = 10;
  const Tensor inputs = Tensor::randn({n, dim}, data_rng);
  const Tensor teacher =
      tensor::softmax_rows(Tensor::randn({n, classes}, data_rng));
  const std::vector<int> pseudo = tensor::argmax_rows(teacher);

  Rng model_rng(904);
  nn::Classifier reference =
      nn::make_classifier("resmlp11", dim, classes, model_rng);

  core::PrototypeSet prototypes(classes, reference.feature_dim());
  Rng proto_rng(905);
  prototypes.matrix =
      Tensor::randn({classes, reference.feature_dim()}, proto_rng);
  // Leave one class absent so the masked row path runs under threads too.
  for (std::size_t j = 0; j + 1 < classes; ++j) {
    prototypes.present[j] = true;
    prototypes.support[j] = 1;
  }

  core::ServerDistillOptions options;
  options.epochs = 2;
  options.delta = 0.5f;
  options.confidence_weighted = true;

  auto run = [&](std::size_t threads) {
    exec::set_num_threads(threads);
    nn::Classifier model = reference.clone();
    Rng rng(906);
    core::server_ensemble_distill(model, inputs, teacher, pseudo, prototypes,
                                  options, rng);
    exec::set_num_threads(1);
    return model.flat_weights();
  };

  const Tensor serial = run(1);
  const Tensor two = run(2);
  const Tensor four = run(4);
  EXPECT_EQ(tensor::max_abs_difference(serial, two), 0.0f);
  EXPECT_EQ(tensor::max_abs_difference(serial, four), 0.0f);
}

TEST(SerialParallelEquivalence, MatmulIsBitwiseIdenticalAcrossThreads) {
  Rng rng(907);
  const Tensor a = Tensor::randn({64, 48}, rng);
  const Tensor b = Tensor::randn({48, 56}, rng);
  const Tensor at = tensor::transpose(a);  // [48, 64]: matmul_transpose_a input
  const Tensor bt = tensor::transpose(b);  // [56, 48]: matmul_transpose_b input

  exec::set_num_threads(1);
  const Tensor serial = tensor::matmul(a, b);
  const Tensor serial_ta = tensor::matmul_transpose_a(at, b);
  const Tensor serial_tb = tensor::matmul_transpose_b(a, bt);

  for (std::size_t threads : {2u, 4u}) {
    exec::set_num_threads(threads);
    EXPECT_EQ(tensor::max_abs_difference(serial, tensor::matmul(a, b)), 0.0f);
    EXPECT_EQ(tensor::max_abs_difference(serial_ta,
                                         tensor::matmul_transpose_a(at, b)),
              0.0f);
    EXPECT_EQ(tensor::max_abs_difference(serial_tb,
                                         tensor::matmul_transpose_b(a, bt)),
              0.0f);
  }
  exec::set_num_threads(1);
}

TEST(SerialParallelEquivalence,
     OddShapeAndFusedMatmulsAreBitwiseIdenticalAcrossThreads) {
  // Shapes that are not multiples of the 4x16 (or 4x4) register tiles, plus
  // the fused accumulate form, across thread counts. Large enough that
  // the flop-threshold gate actually fans the work out.
  struct Case {
    std::size_t m, k, n;
  };
  for (const Case& s : {Case{33, 65, 17}, Case{61, 37, 130}, Case{5, 513, 9}}) {
    Rng rng(911 + s.m);
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor at = tensor::transpose(a);
    const Tensor bt = tensor::transpose(b);
    const Tensor acc_init = Tensor::randn({s.m, s.n}, rng);

    exec::set_num_threads(1);
    const Tensor serial = tensor::matmul(a, b);
    const Tensor serial_tb = tensor::matmul_transpose_b(a, bt);
    Tensor serial_acc = acc_init;
    tensor::matmul_transpose_a_accumulate(at, b, serial_acc);

    for (std::size_t threads : {2u, 4u}) {
      exec::set_num_threads(threads);
      EXPECT_EQ(tensor::max_abs_difference(serial, tensor::matmul(a, b)), 0.0f)
          << "threads=" << threads << " m=" << s.m;
      EXPECT_EQ(tensor::max_abs_difference(serial_tb,
                                           tensor::matmul_transpose_b(a, bt)),
                0.0f)
          << "threads=" << threads << " m=" << s.m;
      Tensor acc = acc_init;
      tensor::matmul_transpose_a_accumulate(at, b, acc);
      EXPECT_EQ(tensor::max_abs_difference(serial_acc, acc), 0.0f)
          << "threads=" << threads << " m=" << s.m;
    }
    exec::set_num_threads(1);
  }
}

TEST(SerialParallelEquivalence, FedEtRunIsBitwiseIdenticalAcrossThreads) {
  // FedET's round mixes in-place softmax on moved logits buffers and a shared
  // digest set across concurrently-digesting clients; none of it may depend
  // on thread count.
  auto make = [](fl::Federation& fed) {
    fl::FedEt::Options options;
    options.local_epochs = 1;
    options.server_epochs = 1;
    options.client_digest_epochs = 1;
    options.server_arch = "resmlp11";
    return std::make_unique<fl::FedEt>(fed, options);
  };
  const auto spec = fl::PartitionSpec::dirichlet(0.3);
  const RunResult serial = run_with_threads(1, spec, make);
  const RunResult two = run_with_threads(2, spec, make);
  const RunResult four = run_with_threads(4, spec, make);
  EXPECT_TRUE(identical(serial, two));
  EXPECT_TRUE(identical(serial, four));
}

}  // namespace
