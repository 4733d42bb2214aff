// Tests for the data substrate: Dataset, SyntheticVision, partitioners,
// DataLoader, and non-IID statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>

#include "fedpkd/data/dataset.hpp"
#include "fedpkd/data/loader.hpp"
#include "fedpkd/data/partition.hpp"
#include "fedpkd/data/stats.hpp"
#include "fedpkd/data/synthetic_vision.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd::data {
namespace {

using tensor::Rng;
using tensor::Tensor;

Dataset tiny_dataset() {
  // 6 samples, 2 features, 3 classes: labels 0,0,1,1,2,2.
  Tensor x({6, 2}, {0, 0, 0, 1, 1, 0, 1, 1, 2, 0, 2, 1});
  return Dataset(x, {0, 0, 1, 1, 2, 2}, 3);
}

// ----------------------------------------------------------------- Dataset ---

TEST(Dataset, ValidateCatchesInconsistencies) {
  Tensor x = Tensor::zeros({2, 3});
  EXPECT_THROW(Dataset(x, {0}, 2), std::invalid_argument);      // count
  EXPECT_THROW(Dataset(x, {0, 5}, 2), std::invalid_argument);   // range
  EXPECT_THROW(Dataset(x, {0, -1}, 2), std::invalid_argument);  // negative
  EXPECT_THROW(Dataset(x, {0, 1}, 0), std::invalid_argument);   // classes
  EXPECT_NO_THROW(Dataset(x, {0, 1}, 2));
}

TEST(Dataset, SubsetCopiesRowsAndLabels) {
  const Dataset d = tiny_dataset();
  const std::vector<std::size_t> idx{4, 1};
  const Dataset s = d.subset(idx);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.labels[0], 2);
  EXPECT_EQ(s.labels[1], 0);
  EXPECT_FLOAT_EQ(s.features.at(0, 0), 2.0f);
  const std::vector<std::size_t> bad{9};
  EXPECT_THROW(d.subset(bad), std::out_of_range);
}

TEST(Dataset, ClassHelpers) {
  const Dataset d = tiny_dataset();
  EXPECT_EQ(d.indices_of_class(1), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(d.class_histogram(), (std::vector<std::size_t>{2, 2, 2}));
  EXPECT_EQ(d.present_classes(), (std::vector<int>{0, 1, 2}));
}

TEST(Dataset, ConcatAppendsAndValidates) {
  const Dataset d = tiny_dataset();
  const Dataset joined = concat(d, d);
  EXPECT_EQ(joined.size(), 12u);
  EXPECT_EQ(joined.labels[6], 0);
  Tensor other = Tensor::zeros({1, 5});
  EXPECT_THROW(concat(d, Dataset(other, {0}, 3)), std::invalid_argument);
}

// -------------------------------------------------------- SyntheticVision ---

TEST(SyntheticVision, SampleShapesAndLabels) {
  SyntheticVision task(SyntheticVisionConfig::synth10());
  Rng rng(1);
  const Dataset d = task.sample(100, rng);
  EXPECT_EQ(d.size(), 100u);
  EXPECT_EQ(d.dim(), task.config().input_dim);
  EXPECT_EQ(d.num_classes, 10u);
  // Balanced up to rounding.
  for (std::size_t count : d.class_histogram()) EXPECT_EQ(count, 10u);
}

TEST(SyntheticVision, SampleClassesRestricts) {
  SyntheticVision task(SyntheticVisionConfig::synth10());
  Rng rng(2);
  const std::vector<int> classes{3, 7};
  const Dataset d = task.sample_classes(50, classes, rng);
  for (int y : d.labels) EXPECT_TRUE(y == 3 || y == 7);
  EXPECT_THROW(task.sample_classes(10, std::vector<int>{}, rng),
               std::invalid_argument);
  EXPECT_THROW(task.sample_classes(10, std::vector<int>{11}, rng),
               std::invalid_argument);
}

TEST(SyntheticVision, BundleIsDeterministic) {
  SyntheticVision a(SyntheticVisionConfig::synth10(5));
  SyntheticVision b(SyntheticVisionConfig::synth10(5));
  const auto ba = a.make_bundle(100, 50, 30);
  const auto bb = b.make_bundle(100, 50, 30);
  EXPECT_EQ(tensor::max_abs_difference(ba.train_pool.features,
                                       bb.train_pool.features),
            0.0f);
  EXPECT_EQ(ba.public_data.labels, bb.public_data.labels);
}

/// FNV-1a over a split's feature bits, then its labels.
std::uint64_t split_digest(const Dataset& d) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  };
  mix(d.features.data(), d.features.numel() * sizeof(float));
  mix(d.labels.data(), d.labels.size() * sizeof(int));
  return h;
}

TEST(SyntheticVision, BundleBitsMatchRecordedDigests) {
  // The generator's output, bit for bit: every golden trace and benchmark
  // digest downstream depends on it.
  struct Case {
    SyntheticVisionConfig config;
    std::uint64_t train, test, pub;
  };
  const Case cases[] = {
      {SyntheticVisionConfig::synth10(42), 0x523c63f0339ff9ebull,
       0xf6c0845a53e6a6c4ull, 0x71b2ea581439c21eull},
      {SyntheticVisionConfig::synth100(42), 0xfc789fa7f8e95d97ull,
       0x3170b44d7947ad83ull, 0x2b76ed30a71cc46full},
  };
  for (const Case& c : cases) {
    const auto b = SyntheticVision(c.config).make_bundle(300, 200, 250);
    EXPECT_EQ(b.train_pool.size(), 300u);
    EXPECT_EQ(split_digest(b.train_pool), c.train) << c.config.num_classes;
    EXPECT_EQ(split_digest(b.test_global), c.test) << c.config.num_classes;
    EXPECT_EQ(split_digest(b.public_data), c.pub) << c.config.num_classes;
  }
}

TEST(SyntheticVision, DifferentSeedsDifferentData) {
  SyntheticVision a(SyntheticVisionConfig::synth10(5));
  SyntheticVision b(SyntheticVisionConfig::synth10(6));
  const auto ba = a.make_bundle(50, 10, 10);
  const auto bb = b.make_bundle(50, 10, 10);
  EXPECT_GT(tensor::max_abs_difference(ba.train_pool.features,
                                       bb.train_pool.features),
            1e-3f);
}

TEST(SyntheticVision, ClassesAreStatisticallySeparated) {
  // Same-class samples should be closer on average than cross-class ones:
  // the basic property that makes prototypes meaningful.
  SyntheticVision task(SyntheticVisionConfig::synth10());
  Rng rng(3);
  const Dataset d = task.sample(400, rng);
  double same = 0.0, cross = 0.0;
  std::size_t same_n = 0, cross_n = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = i + 1; j < 100; ++j) {
      const float dist = tensor::l2_distance(d.features.row_copy(i),
                                             d.features.row_copy(j));
      if (d.labels[i] == d.labels[j]) {
        same += dist;
        ++same_n;
      } else {
        cross += dist;
        ++cross_n;
      }
    }
  }
  EXPECT_LT(same / same_n, cross / cross_n);
}

TEST(SyntheticVision, Synth100HasHundredClasses) {
  SyntheticVision task(SyntheticVisionConfig::synth100());
  Rng rng(4);
  const Dataset d = task.sample(500, rng);
  EXPECT_EQ(d.num_classes, 100u);
  EXPECT_GT(d.present_classes().size(), 90u);
}

TEST(SyntheticVision, RejectsZeroConfig) {
  SyntheticVisionConfig bad = SyntheticVisionConfig::synth10();
  bad.latent_dim = 0;
  EXPECT_THROW(SyntheticVision{bad}, std::invalid_argument);
}

// ------------------------------------------------------------- Partition ---

Dataset partition_pool(std::size_t n = 600, std::uint64_t seed = 11) {
  SyntheticVision task(SyntheticVisionConfig::synth10(seed));
  Rng rng(seed);
  return task.sample(n, rng);
}

TEST(Partition, IidCoversAllExactlyOnce) {
  Rng rng(5);
  const Partition p = iid_partition(100, 7, rng);
  validate_partition(p, 100);
  std::size_t total = 0;
  for (const auto& c : p) total += c.size();
  EXPECT_EQ(total, 100u);
  // Balanced within one sample.
  for (const auto& c : p) EXPECT_NEAR(c.size(), 100.0 / 7, 1.0);
}

TEST(Partition, IidValidation) {
  Rng rng(6);
  EXPECT_THROW(iid_partition(10, 0, rng), std::invalid_argument);
  EXPECT_THROW(iid_partition(3, 5, rng), std::invalid_argument);
}

TEST(Partition, DirichletAssignsEverySample) {
  const Dataset pool = partition_pool();
  Rng rng(7);
  const Partition p = dirichlet_partition(pool, 8, 0.5, rng);
  validate_partition(p, pool.size());
  std::size_t total = 0;
  for (const auto& c : p) total += c.size();
  EXPECT_EQ(total, pool.size());
}

TEST(Partition, DirichletSkewIncreasesAsAlphaDrops) {
  const Dataset pool = partition_pool(1000);
  double skew_small = 0.0, skew_large = 0.0;
  // Average over several seeds: single draws are noisy.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng r1(100 + seed), r2(200 + seed);
    skew_small += non_iid_degree(pool, dirichlet_partition(pool, 8, 0.1, r1));
    skew_large += non_iid_degree(pool, dirichlet_partition(pool, 8, 5.0, r2));
  }
  EXPECT_GT(skew_small, skew_large);
}

TEST(Partition, DirichletValidation) {
  const Dataset pool = partition_pool(100);
  Rng rng(8);
  EXPECT_THROW(dirichlet_partition(pool, 0, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(dirichlet_partition(pool, 4, 0.0, rng), std::invalid_argument);
}

TEST(Partition, ShardsRespectsClassesPerClient) {
  const Dataset pool = partition_pool(1000);
  Rng rng(9);
  const std::size_t k = 3;
  const Partition p = shards_partition(pool, 5, k, 6, 20, rng);
  validate_partition(p, pool.size());
  const auto per_client = classes_per_client(pool, p);
  for (std::size_t c = 0; c < p.size(); ++c) {
    // A client may receive one fallback shard from an extra class when its
    // preferred class pool runs dry, so allow k..k+1.
    EXPECT_LE(per_client[c], k + 1) << "client " << c;
    EXPECT_GE(per_client[c], 1u);
  }
}

TEST(Partition, ShardsSmallerKIsMoreSkewed) {
  const Dataset pool = partition_pool(1200);
  double skew_k3 = 0.0, skew_k8 = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng r1(300 + seed), r2(400 + seed);
    skew_k3 += non_iid_degree(pool, shards_partition(pool, 6, 3, 8, 20, r1));
    skew_k8 += non_iid_degree(pool, shards_partition(pool, 6, 8, 8, 20, r2));
  }
  EXPECT_GT(skew_k3, skew_k8);
}

TEST(Partition, ShardsValidation) {
  const Dataset pool = partition_pool(100);
  Rng rng(10);
  EXPECT_THROW(shards_partition(pool, 0, 2, 2, 10, rng),
               std::invalid_argument);
  EXPECT_THROW(shards_partition(pool, 2, 0, 2, 10, rng),
               std::invalid_argument);
  EXPECT_THROW(shards_partition(pool, 2, 99, 2, 10, rng),
               std::invalid_argument);
}

TEST(Partition, ClassSplitIsDisjointByLabel) {
  const Dataset pool = partition_pool(500);
  const Partition p = class_split_partition(pool, 2);
  validate_partition(p, pool.size());
  // Client 0 holds classes 0-4, client 1 holds 5-9.
  for (std::size_t i : p[0]) EXPECT_LT(pool.labels[i], 5);
  for (std::size_t i : p[1]) EXPECT_GE(pool.labels[i], 5);
}

TEST(Partition, ClassSplitValidation) {
  const Dataset pool = partition_pool(100);
  EXPECT_THROW(class_split_partition(pool, 0), std::invalid_argument);
  EXPECT_THROW(class_split_partition(pool, 11), std::invalid_argument);
}

TEST(Partition, HistogramMatchesManualCount) {
  const Dataset pool = partition_pool(200);
  Rng rng(11);
  const Partition p = dirichlet_partition(pool, 4, 0.5, rng);
  const auto hist = partition_histogram(pool, p);
  for (std::size_t c = 0; c < p.size(); ++c) {
    std::size_t total = std::accumulate(hist[c].begin(), hist[c].end(),
                                        std::size_t{0});
    EXPECT_EQ(total, p[c].size());
  }
}

TEST(Partition, ValidateDetectsDuplicates) {
  Partition p{{0, 1}, {1, 2}};
  EXPECT_THROW(validate_partition(p, 10), std::logic_error);
  Partition q{{0}, {}};
  EXPECT_THROW(validate_partition(q, 10), std::logic_error);
  EXPECT_NO_THROW(validate_partition(q, 10, /*allow_empty_clients=*/true));
  Partition r{{0}, {99}};
  EXPECT_THROW(validate_partition(r, 10), std::logic_error);
}

// Parameterized sweep: every partitioner yields a valid full cover on a range
// of client counts.
class PartitionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionSweep, AllMethodsProduceValidPartitions) {
  const std::size_t clients = GetParam();
  const Dataset pool = partition_pool(800);
  Rng rng(42 + clients);
  validate_partition(iid_partition(pool.size(), clients, rng), pool.size());
  validate_partition(dirichlet_partition(pool, clients, 0.3, rng),
                     pool.size());
  validate_partition(shards_partition(pool, clients, 3, 5, 15, rng),
                     pool.size());
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, PartitionSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

// -------------------------------------------------------------- DataLoader ---

TEST(DataLoader, CoversEpochExactlyOnce) {
  const Dataset d = partition_pool(101);
  DataLoader loader(d, 32, Rng(12));
  std::set<std::size_t> seen;
  std::size_t batches = 0;
  while (auto batch = loader.next()) {
    ++batches;
    for (std::size_t i : batch->indices) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index";
    }
    EXPECT_EQ(batch->x.rows(), batch->y.size());
  }
  EXPECT_EQ(seen.size(), 101u);
  EXPECT_EQ(batches, loader.batches_per_epoch());
  EXPECT_EQ(batches, 4u);  // 32+32+32+5
}

TEST(DataLoader, DropLastSkipsPartialBatch) {
  const Dataset d = partition_pool(100);
  DataLoader loader(d, 32, Rng(13), true, /*drop_last=*/true);
  std::size_t count = 0;
  while (auto batch = loader.next()) {
    EXPECT_EQ(batch->size(), 32u);
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(DataLoader, ShuffleChangesOrderAcrossEpochs) {
  const Dataset d = partition_pool(64);
  DataLoader loader(d, 64, Rng(14));
  auto e1 = loader.next()->indices;
  loader.reset();
  auto e2 = loader.next()->indices;
  EXPECT_NE(e1, e2);
}

TEST(DataLoader, NoShufflePreservesOrder) {
  const Dataset d = partition_pool(10);
  DataLoader loader(d, 4, Rng(15), /*shuffle=*/false);
  auto batch = loader.next();
  EXPECT_EQ(batch->indices, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(DataLoader, BatchContentsMatchDataset) {
  const Dataset d = partition_pool(20);
  DataLoader loader(d, 8, Rng(16));
  while (auto batch = loader.next()) {
    for (std::size_t r = 0; r < batch->size(); ++r) {
      const std::size_t i = batch->indices[r];
      EXPECT_EQ(batch->y[r], d.labels[i]);
      EXPECT_EQ(batch->x.at(r, 0), d.features.at(i, 0));
    }
  }
}

TEST(DataLoader, Validation) {
  const Dataset d = partition_pool(10);
  EXPECT_THROW(DataLoader(d, 0, Rng(17)), std::invalid_argument);
  Dataset empty;
  empty.num_classes = 3;
  empty.features = Tensor::zeros({0, 4});
  EXPECT_THROW(DataLoader(empty, 4, Rng(18)), std::invalid_argument);
}

// ------------------------------------------------------------------ Stats ---

TEST(Stats, LabelDistributionSumsToOne) {
  const Dataset d = partition_pool(100);
  std::vector<std::size_t> all(d.size());
  std::iota(all.begin(), all.end(), 0);
  const auto dist = label_distribution(d, all);
  EXPECT_NEAR(std::accumulate(dist.begin(), dist.end(), 0.0), 1.0, 1e-9);
}

TEST(Stats, NonIidDegreeBounds) {
  const Dataset pool = partition_pool(1000);
  Rng rng(19);
  const double iid = non_iid_degree(pool, iid_partition(pool.size(), 5, rng));
  const double split = non_iid_degree(pool, class_split_partition(pool, 5));
  EXPECT_LT(iid, 0.15);
  EXPECT_GT(split, 0.7);
  EXPECT_LE(split, 1.0);
}

TEST(Stats, FormatPartitionTableMentionsEveryClient) {
  const Dataset pool = partition_pool(60);
  Rng rng(20);
  const auto p = iid_partition(pool.size(), 3, rng);
  const std::string table = format_partition_table(pool, p);
  EXPECT_NE(table.find("client"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 4);  // header + 3
}

}  // namespace
}  // namespace fedpkd::data
