// Data module tests: dataset container invariants, SPC sampling, splits
// (including the paper's SPC=2 one-train/one-val protocol), loaders, and
// the synthetic generators' class-conditional structure.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <set>

#include "data/dataset.h"
#include "data/synth.h"
#include "tensor/ops.h"

namespace bd::data {
namespace {

ImageDataset tiny_dataset(std::int64_t per_class, std::int64_t classes = 3) {
  ImageDataset ds({1, 2, 2}, classes);
  for (std::int64_t c = 0; c < classes; ++c) {
    for (std::int64_t i = 0; i < per_class; ++i) {
      ds.add(Tensor::full({1, 2, 2}, static_cast<float>(c)), c);
    }
  }
  return ds;
}

TEST(Dataset, AddValidates) {
  ImageDataset ds({1, 2, 2}, 2);
  EXPECT_THROW(ds.add(Tensor({2, 2}), 0), std::invalid_argument);
  EXPECT_THROW(ds.add(Tensor({1, 2, 2}), 2), std::invalid_argument);
  EXPECT_THROW(ds.add(Tensor({1, 2, 2}), -1), std::invalid_argument);
  EXPECT_THROW(ImageDataset({2, 2}, 2), std::invalid_argument);
  EXPECT_THROW(ImageDataset({1, 2, 2}, 0), std::invalid_argument);
}

TEST(Dataset, IndicesOfClass) {
  const auto ds = tiny_dataset(4);
  const auto idx = ds.indices_of_class(1);
  EXPECT_EQ(idx.size(), 4u);
  for (const auto i : idx) EXPECT_EQ(ds.label(i), 1);
}

TEST(Dataset, SubsetPreservesExamples) {
  const auto ds = tiny_dataset(2);
  const auto sub = ds.subset({0, 3});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.label(0), ds.label(0));
  EXPECT_EQ(sub.label(1), ds.label(3));
}

TEST(Dataset, SamplePerClassExact) {
  Rng rng(1);
  const auto ds = tiny_dataset(10);
  const auto spc = ds.sample_per_class(3, rng);
  EXPECT_EQ(spc.size(), 9u);
  for (std::int64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(spc.indices_of_class(c).size(), 3u);
  }
}

TEST(Dataset, SamplePerClassRejectsTooMany) {
  Rng rng(2);
  const auto ds = tiny_dataset(2);
  EXPECT_THROW(ds.sample_per_class(5, rng), std::runtime_error);
  EXPECT_THROW(ds.sample_per_class(0, rng), std::invalid_argument);
}

TEST(Dataset, SplitBothNonEmpty) {
  Rng rng(3);
  const auto ds = tiny_dataset(4);
  const auto [a, b] = ds.split(0.99, rng);
  EXPECT_GE(a.size(), 1u);
  EXPECT_GE(b.size(), 1u);
  EXPECT_EQ(a.size() + b.size(), ds.size());
}

TEST(Dataset, SplitPerClassSpc2Protocol) {
  // The paper's SPC=2 rule: one sample for training, one for validation,
  // for EVERY class.
  Rng rng(4);
  const auto ds = tiny_dataset(2, 5);
  const auto [train, val] = ds.split_per_class(0.9, rng);
  EXPECT_EQ(train.size(), 5u);
  EXPECT_EQ(val.size(), 5u);
  for (std::int64_t c = 0; c < 5; ++c) {
    EXPECT_EQ(train.indices_of_class(c).size(), 1u);
    EXPECT_EQ(val.indices_of_class(c).size(), 1u);
  }
}

TEST(Dataset, SplitPerClassNeedsTwoPerClass) {
  Rng rng(5);
  const auto ds = tiny_dataset(1);
  EXPECT_THROW(ds.split_per_class(0.9, rng), std::runtime_error);
}

TEST(Batch, StackShapesAndLabels) {
  const auto ds = tiny_dataset(2);
  const Batch batch = stack(ds, {0, 2, 4});
  EXPECT_EQ(batch.images.shape(), (Shape{3, 1, 2, 2}));
  EXPECT_EQ(batch.labels, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(batch.size(), 3);
  EXPECT_FLOAT_EQ(batch.images.at4(2, 0, 0, 0), 2.0f);
  EXPECT_THROW(stack(ds, {}), std::invalid_argument);
}

TEST(Loader, CoversEpochExactlyOnce) {
  Rng rng(6);
  const auto ds = tiny_dataset(5);  // 15 examples
  DataLoader loader(ds, 4, rng);
  Batch batch;
  std::int64_t seen = 0;
  int batches = 0;
  while (loader.next(batch)) {
    seen += batch.size();
    ++batches;
  }
  EXPECT_EQ(seen, 15);
  EXPECT_EQ(batches, 4);  // 4+4+4+3
  EXPECT_EQ(loader.batches_per_epoch(), 4);
  EXPECT_FALSE(loader.next(batch));
  loader.reset();
  EXPECT_TRUE(loader.next(batch));
}

TEST(Loader, NoShuffleIsDeterministic) {
  Rng rng(7);
  const auto ds = tiny_dataset(2);
  DataLoader loader(ds, 2, rng, /*shuffle=*/false);
  Batch b1;
  loader.next(b1);
  EXPECT_EQ(b1.labels[0], 0);
  EXPECT_EQ(b1.labels[1], 0);
  EXPECT_THROW(DataLoader(ds, 0, rng), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Synthetic generators
// ---------------------------------------------------------------------------

TEST(Synth, CifarShapesAndRanges) {
  Rng rng(8);
  SynthConfig cfg;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = 3;
  cfg.test_per_class = 2;
  const TrainTest data = make_synth_cifar(cfg, rng);
  EXPECT_EQ(data.train.size(), 30u);
  EXPECT_EQ(data.test.size(), 20u);
  EXPECT_EQ(data.train.image_shape(), (Shape{3, 8, 8}));
  for (std::size_t i = 0; i < data.train.size(); ++i) {
    const Tensor& img = data.train.image(i);
    for (std::int64_t j = 0; j < img.numel(); ++j) {
      EXPECT_GE(img[j], 0.0f);
      EXPECT_LE(img[j], 1.0f);
    }
  }
}

// The generators call libm (sin and cos, and Rng::normal's log and sqrt).
// These pixels pin both to the bit, so a libm that rounds differently fails
// here, by name, rather than as moved table cells.
TEST(Synth, PixelsArePinnedToTheBit) {
  SynthConfig cfg;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = 1;
  cfg.test_per_class = 1;
  struct Pixel {
    std::size_t image;
    std::int64_t index;
    std::uint32_t bits;
  };
  const auto expect_pixels = [](const TrainTest& data, const char* name,
                                std::initializer_list<Pixel> pixels) {
    for (const Pixel& p : pixels) {
      const float v = data.train.image(p.image)[p.index];
      std::uint32_t got = 0;
      std::memcpy(&got, &v, sizeof(got));
      EXPECT_EQ(got, p.bits) << name << " image " << p.image << " pixel "
                             << p.index << " is " << v;
    }
  };
  Rng cifar_rng(7);
  expect_pixels(make_synth_cifar(cfg, cifar_rng), "cifar",
                {{0, 0, 0x3dd8e34eu},
                 {0, 37, 0x3e91d96du},
                 {0, 150, 0x3f0a3523u},
                 {5, 191, 0x3f0e8d08u}});
  Rng gtsrb_rng(7);
  expect_pixels(make_synth_gtsrb(cfg, gtsrb_rng), "gtsrb",
                {{0, 0, 0x3f0d3788u},
                 {0, 150, 0x3d9ce1c8u},
                 {5, 37, 0x3f42573bu},
                 {5, 191, 0x3f6f53bdu}});
}

TEST(Synth, GtsrbHas43Classes) {
  Rng rng(9);
  SynthConfig cfg;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = 1;
  cfg.test_per_class = 1;
  const TrainTest data = make_synth_gtsrb(cfg, rng);
  EXPECT_EQ(data.train.num_classes(), 43);
  std::set<std::int64_t> labels;
  for (std::size_t i = 0; i < data.train.size(); ++i) {
    labels.insert(data.train.label(i));
  }
  EXPECT_EQ(labels.size(), 43u);
}

TEST(Synth, SameClassMoreSimilarThanCrossClass) {
  // Class structure: intra-class L2 distance should be well below
  // inter-class distance on average.
  Rng rng(10);
  SynthConfig cfg;
  cfg.height = cfg.width = 12;
  double intra = 0.0, inter = 0.0;
  int n = 0;
  for (std::int64_t c = 0; c < 5; ++c) {
    const Tensor a = render_synth_cifar_image(c, cfg, rng);
    const Tensor b = render_synth_cifar_image(c, cfg, rng);
    const Tensor other = render_synth_cifar_image(c + 5, cfg, rng);
    intra += l2_norm(sub(a, b));
    inter += l2_norm(sub(a, other));
    ++n;
  }
  EXPECT_LT(intra / n, inter / n);
}

TEST(Synth, ImagesVaryWithinClass) {
  Rng rng(11);
  SynthConfig cfg;
  cfg.height = cfg.width = 12;
  const Tensor a = render_synth_cifar_image(0, cfg, rng);
  const Tensor b = render_synth_cifar_image(0, cfg, rng);
  EXPECT_GT(l2_norm(sub(a, b)), 0.1f);  // jitter + noise
}

}  // namespace
}  // namespace bd::data
