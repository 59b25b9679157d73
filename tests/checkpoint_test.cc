// Tests for nn/checkpoint.h: parameter save/restore.
#include "nn/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "core/dar.h"
#include "core/predictor.h"
#include "core/rnp.h"
#include "nn/gru.h"
#include "nn/linear.h"

namespace dar {
namespace nn {
namespace {

TEST(CheckpointTest, RoundTripLinear) {
  Pcg32 rng(1);
  Linear a(4, 3, rng), b(4, 3, rng);
  ASSERT_FALSE(a.weight().value().AllClose(b.weight().value()));
  std::string text = SerializeCheckpoint({{"linear", &a}});
  CheckpointResult result = DeserializeCheckpoint({{"linear", &b}}, text);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(a.weight().value().AllClose(b.weight().value(), 1e-6f));
  EXPECT_TRUE(a.bias().value().AllClose(b.bias().value(), 1e-6f));
}

TEST(CheckpointTest, RoundTripNestedModule) {
  Pcg32 rng(2);
  BiGru a(3, 4, rng), b(3, 4, rng);
  CheckpointResult result =
      DeserializeCheckpoint({{"gru", &b}}, SerializeCheckpoint({{"gru", &a}}));
  ASSERT_TRUE(result.ok) << result.error;
  std::vector<NamedParameter> pa = a.Parameters(), pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i].variable.value().AllClose(pb[i].variable.value(), 1e-6f))
        << pa[i].name;
  }
}

TEST(CheckpointTest, RejectsBadMagic) {
  Pcg32 rng(3);
  Linear linear(2, 2, rng);
  CheckpointResult result =
      DeserializeCheckpoint({{"linear", &linear}}, "NOTCKPT 1\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("magic"), std::string::npos);
}

TEST(CheckpointTest, RejectsWrongArchitecture) {
  Pcg32 rng(4);
  Linear small(2, 2, rng);
  Linear big(3, 3, rng);
  CheckpointResult result = DeserializeCheckpoint(
      {{"linear", &big}}, SerializeCheckpoint({{"linear", &small}}));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("shape mismatch"), std::string::npos);
}

TEST(CheckpointTest, RejectsWrongParameterCount) {
  Pcg32 rng(5);
  Linear linear(2, 2, rng);
  BiGru gru(2, 2, rng);
  CheckpointResult result = DeserializeCheckpoint(
      {{"module", &gru}}, SerializeCheckpoint({{"module", &linear}}));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("count mismatch"), std::string::npos);
}

/// Every parameter value of `modules`, in order.
std::vector<Tensor> ParameterValues(const std::vector<NamedModule>& modules) {
  std::vector<Tensor> values;
  for (const NamedModule& m : modules) {
    for (const NamedParameter& p : m.module->Parameters()) {
      values.push_back(p.variable.value());
    }
  }
  return values;
}

bool SameBits(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape() != b[i].shape() ||
        std::memcmp(a[i].data(), b[i].data(),
                    sizeof(float) * static_cast<size_t>(a[i].numel())) != 0) {
      return false;
    }
  }
  return true;
}

TEST(CheckpointTest, RejectsTruncatedValues) {
  Pcg32 rng(6);
  Linear linear(2, 2, rng);
  const std::string text = SerializeCheckpoint({{"linear", &linear}});
  Linear other(2, 2, rng);
  const std::vector<NamedModule> target = {{"linear", &other}};
  const std::vector<Tensor> before = ParameterValues(target);
  // Cut midway, and inside the last parameter's values (the weight record
  // before it is complete and valid).
  for (size_t cut : {text.size() / 2, text.rfind(' ')}) {
    EXPECT_FALSE(DeserializeCheckpoint(target, text.substr(0, cut)).ok);
    EXPECT_TRUE(SameBits(ParameterValues(target), before)) << "cut " << cut;
  }
}

TEST(CheckpointTest, RejectsMisalignedRecordsAndTrailingBytes) {
  // Each record is one line: a shape or values record with a field too
  // many, or bytes after the last record, fail the load with the cause
  // named and leave the module untouched.
  Pcg32 rng(24);
  Linear source(3, 2, rng);
  const std::string text = SerializeCheckpoint({{"linear", &source}});
  ASSERT_NE(text.find("\nname w\nshape 3 2\n"), std::string::npos) << text;
  ASSERT_NE(text.find("\nname b\nshape 2\n0 0\n"), std::string::npos) << text;
  // The bias record gains a dimension: a reader of whitespace-separated
  // tokens would take the 9 as the first bias value.
  std::string bias_dim = text;
  bias_dim.replace(bias_dim.find("shape 2\n"), 8, "shape 2 9\n");
  // The weight record gains a dimension and its values lose their last
  // field: a token reader would load every weight shifted by one.
  std::string weight_dim = text;
  const size_t weight_end = weight_dim.find("\nname b");
  const size_t last_weight = weight_dim.rfind(' ', weight_end);
  weight_dim.erase(last_weight, weight_end - last_weight);
  weight_dim.replace(weight_dim.find("shape 3 2\n"), 10, "shape 3 2 9\n");
  const std::string body = text.substr(0, text.size() - 1);
  struct Case {
    std::string text;
    const char* cause;
  };
  for (const Case& c :
       {Case{bias_dim, "shape record for b has the wrong number of fields"},
        Case{weight_dim, "shape record for w has the wrong number of fields"},
        Case{body + " 0.5 7 garbage\n", "values record for b has the wrong"},
        Case{text + "0.5 7 garbage", "unexpected bytes after the last"}}) {
    Linear linear(3, 2, rng);
    const std::vector<NamedModule> target = {{"linear", &linear}};
    const std::string before = SerializeCheckpoint(target);
    CheckpointResult result = DeserializeCheckpoint(target, c.text);
    EXPECT_FALSE(result.ok) << c.text;
    EXPECT_NE(result.error.find(c.cause), std::string::npos) << result.error;
    EXPECT_EQ(SerializeCheckpoint(target), before) << c.text;
  }

  // A two-module bundle with a token after its last module.
  Linear first(3, 2, rng), second(2, 4, rng);
  const std::string bundle =
      SerializeCheckpoint({{"first", &first}, {"second", &second}});
  Linear target_first(3, 2, rng), target_second(2, 4, rng);
  const std::vector<NamedModule> target = {{"first", &target_first},
                                           {"second", &target_second}};
  const std::string before = SerializeCheckpoint(target);
  CheckpointResult result = DeserializeCheckpoint(target, bundle + "extra\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unexpected bytes after the last record"),
            std::string::npos)
      << result.error;
  EXPECT_EQ(SerializeCheckpoint(target), before);
}

TEST(CheckpointTest, FileRoundTrip) {
  Pcg32 rng(7);
  Linear a(3, 2, rng), b(3, 2, rng);
  std::string path = ::testing::TempDir() + "/dar_checkpoint_test.ckpt";
  ASSERT_TRUE(SaveCheckpoint({{"linear", &a}}, path));
  CheckpointResult result = LoadCheckpoint({{"linear", &b}}, path);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(a.weight().value().AllClose(b.weight().value(), 1e-6f));
  std::remove(path.c_str());
}

// A save replaces the file rather than rewriting it in place: a reader
// that opened the old checkpoint keeps reading it whole, never a torn mix.
TEST(CheckpointTest, SaveNeverTearsAnOpenReadersFile) {
  Pcg32 rng(11);
  Linear first(6, 5, rng), second(6, 5, rng), restored(6, 5, rng);
  const std::string path = ::testing::TempDir() + "/dar_checkpoint_swap.ckpt";
  ASSERT_TRUE(SaveCheckpoint({{"linear", &first}}, path));
  std::ifstream reader(path);
  ASSERT_TRUE(reader);
  ASSERT_TRUE(SaveCheckpoint({{"linear", &second}}, path));

  std::ostringstream seen;
  seen << reader.rdbuf();
  EXPECT_EQ(seen.str(), SerializeCheckpoint({{"linear", &first}}));
  CheckpointResult result =
      DeserializeCheckpoint({{"linear", &restored}}, seen.str());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(restored.weight().value().vec() == first.weight().value().vec());
  // The path itself now holds the second checkpoint.
  result = LoadCheckpoint({{"linear", &restored}}, path);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(restored.weight().value().vec() ==
              second.weight().value().vec());
  std::remove(path.c_str());
}

// A failed save returns false and leaves nothing behind: no temp file, and
// no change to what was at the target.
TEST(CheckpointTest, FailedSaveLeavesNoTempFile) {
  Pcg32 rng(12);
  Linear linear(3, 2, rng);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dar_checkpoint_fail";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directory(dir));

  EXPECT_FALSE(SaveCheckpoint({{"linear", &linear}},
                              (dir / "missing" / "x.ckpt").string()));
  EXPECT_TRUE(std::filesystem::is_empty(dir));

  // The temp file is written, but renaming it over a directory fails: it
  // must be removed again and the directory left as it was.
  const std::filesystem::path target = dir / "occupied";
  ASSERT_TRUE(std::filesystem::create_directory(target));
  EXPECT_FALSE(SaveCheckpoint({{"linear", &linear}}, target.string()));
  EXPECT_TRUE(std::filesystem::is_directory(target));
  int64_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path(), target);
    ++entries;
  }
  EXPECT_EQ(entries, 1);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, MissingFileReportsError) {
  Pcg32 rng(8);
  Linear linear(2, 2, rng);
  CheckpointResult result =
      LoadCheckpoint({{"linear", &linear}}, "/nonexistent/x.ckpt");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

TEST(CheckpointTest, RoundTripIsBitExact) {
  // A served model must match the trained one exactly: every float must
  // survive the text round trip bit-for-bit, including values that are not
  // representable in few decimal digits and extreme magnitudes.
  Pcg32 rng(42);
  Linear a(8, 8, rng), b(8, 8, rng);
  ag::Variable weight = a.weight();  // shared handle to the parameter node
  Tensor& w = weight.mutable_value();
  w.flat(0) = 1.0f / 3.0f;
  w.flat(1) = 0.1f;
  w.flat(2) = std::numeric_limits<float>::min();       // smallest normal
  w.flat(3) = std::numeric_limits<float>::denorm_min();  // subnormal
  w.flat(4) = std::numeric_limits<float>::max();
  w.flat(5) = -1.0f / 3.0f;
  w.flat(6) = 3.14159274f;
  w.flat(7) = 1e-20f;

  CheckpointResult result = DeserializeCheckpoint(
      {{"linear", &b}}, SerializeCheckpoint({{"linear", &a}}));
  ASSERT_TRUE(result.ok) << result.error;
  std::vector<NamedParameter> pa = a.Parameters(), pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    const Tensor& va = pa[i].variable.value();
    const Tensor& vb = pb[i].variable.value();
    ASSERT_EQ(va.numel(), vb.numel());
    EXPECT_EQ(std::memcmp(va.data(), vb.data(),
                          sizeof(float) * static_cast<size_t>(va.numel())),
              0)
        << pa[i].name << " not bit-exact";
  }
}

TEST(CheckpointTest, BundleRoundTripAcrossRationalizer) {
  // Save/LoadRationalizer moves a whole trained model (all player modules)
  // through the multi-module bundle format.
  core::TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  Pcg32 rng(21);
  Tensor embeddings = Tensor::Randn({14, 8}, rng, 0.3f);

  core::DarModel a(embeddings, config);
  config.seed = 777;
  core::DarModel b(embeddings, config);

  std::string path = ::testing::TempDir() + "/dar_bundle_test.ckpt";
  ASSERT_TRUE(core::SaveRationalizer(a, path));
  CheckpointResult result = core::LoadRationalizer(b, path);
  ASSERT_TRUE(result.ok) << result.error;

  // Every module restored bit-exactly, discriminator included.
  std::vector<nn::NamedModule> ma = a.CheckpointModules();
  std::vector<nn::NamedModule> mb = b.CheckpointModules();
  ASSERT_EQ(ma.size(), 3u);
  for (size_t m = 0; m < ma.size(); ++m) {
    std::vector<NamedParameter> pa = ma[m].module->Parameters();
    std::vector<NamedParameter> pb = mb[m].module->Parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      const Tensor& va = pa[i].variable.value();
      const Tensor& vb = pb[i].variable.value();
      EXPECT_EQ(std::memcmp(va.data(), vb.data(),
                            sizeof(float) * static_cast<size_t>(va.numel())),
                0)
          << ma[m].name << "/" << pa[i].name;
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, BundleRejectsModuleMismatch) {
  core::TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  Pcg32 rng(22);
  Tensor embeddings = Tensor::Randn({14, 8}, rng, 0.3f);

  // DAR has three modules, RNP two: the bundle must refuse to cross-load.
  core::DarModel dar_model(embeddings, config);
  core::RnpModel rnp_model(embeddings, config);
  std::string text = SerializeCheckpoint(dar_model.CheckpointModules());
  CheckpointResult result =
      DeserializeCheckpoint(rnp_model.CheckpointModules(), text);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("module count mismatch"), std::string::npos);

  // The retired version-1 single-module layout (the same records under a
  // bare `params` header) is refused by its version.
  Linear linear(2, 2, rng);
  const std::string bundle = SerializeCheckpoint({{"linear", &linear}});
  const std::string version1 =
      "DARCKPT 1\n" + bundle.substr(bundle.find("params "));
  result = DeserializeCheckpoint({{"linear", &linear}}, version1);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unsupported checkpoint version 1 (expected 2)"),
            std::string::npos)
      << result.error;
}

TEST(CheckpointTest, FailedBundleLoadLeavesEveryModuleUnchanged) {
  // A bundle that fails validation in its last module must not have
  // overwritten the modules before it.
  core::TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  Pcg32 rng(23);
  Tensor embeddings = Tensor::Randn({14, 8}, rng, 0.3f);
  core::DarModel source(embeddings, config);
  config.seed = 777;
  core::DarModel target(embeddings, config);
  const std::string text = SerializeCheckpoint(source.CheckpointModules());
  ASSERT_EQ(target.CheckpointModules().size(), 3u);
  const std::vector<Tensor> before = ParameterValues(target.CheckpointModules());
  ASSERT_FALSE(SameBits(ParameterValues(source.CheckpointModules()), before));

  // Truncated inside the last module's last parameter.
  const std::string truncated = text.substr(0, text.rfind(' '));
  // The last parameter's first dimension gains a leading digit.
  const size_t dim_at = text.rfind("\nshape ") + std::strlen("\nshape ");
  const std::string reshaped =
      text.substr(0, dim_at) + "9" + text.substr(dim_at);
  for (const std::string& bad : {truncated, reshaped}) {
    CheckpointResult result =
        DeserializeCheckpoint(target.CheckpointModules(), bad);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("module 'discriminator'"), std::string::npos)
        << result.error;
    EXPECT_TRUE(SameBits(ParameterValues(target.CheckpointModules()), before))
        << result.error;
  }
}

TEST(CheckpointTest, PreservesValuesAcrossWholePredictor) {
  // End-to-end: a core::Predictor's full state survives a round trip and
  // produces identical logits.
  core::TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  Pcg32 rng(9);
  Tensor embeddings = Tensor::Randn({12, 8}, rng, 0.3f);
  Pcg32 r1(10), r2(11);
  core::Predictor a(embeddings, config, r1);
  core::Predictor b(embeddings, config, r2);
  a.SetTraining(false);
  b.SetTraining(false);

  std::vector<data::Example> examples = {{{2, 3, 4, 5}, 1, {}}};
  data::Batch batch = data::Batch::FromExamples(examples, 0, 1, 0);
  Tensor before_a = a.ForwardFullText(batch).value();
  Tensor before_b = b.ForwardFullText(batch).value();
  ASSERT_FALSE(before_a.AllClose(before_b, 1e-6f));

  CheckpointResult result = DeserializeCheckpoint(
      {{"predictor", &b}}, SerializeCheckpoint({{"predictor", &a}}));
  ASSERT_TRUE(result.ok) << result.error;
  Tensor after_b = b.ForwardFullText(batch).value();
  EXPECT_TRUE(before_a.AllClose(after_b, 1e-5f));
}

}  // namespace
}  // namespace nn
}  // namespace dar
