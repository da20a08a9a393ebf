// Tests for the serve subsystem: wire parsing, admission-controlled fair
// queue, backbone LRU cache, the job schema + journal encoding, protocol
// robustness (malformed/oversized/hostile input never crashes the daemon
// core), service lifecycle (cache hits, failure, cancellation) and
// journaled restart semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/runner.h"
#include "eval/table_bench.h"
#include "nn/checkpoint.h"
#include "models/factory.h"
#include "robust/journal.h"
#include "robust/supervisor.h"
#include "serve/backbone_cache.h"
#include "serve/job.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util/json.h"

namespace bd {
namespace {

using serve::Admission;
using serve::BackboneCache;
using serve::CancelOutcome;
using serve::FairQueue;
using serve::JobRecord;
using serve::JobSpec;
using serve::JobState;
using serve::Json;
using serve::Protocol;
using serve::ProtocolResult;
using serve::SanitizeService;
using serve::ServiceConfig;

// ---------------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------------

TEST(WireTest, ParsesNestedValues) {
  Json v;
  std::string error;
  ASSERT_TRUE(Json::parse(
      R"({"op":"submit","n":-1.5e2,"flag":true,"none":null,)"
      R"("arr":[1,"two",{}],"obj":{"k":"v\n"}})",
      v, error))
      << error;
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.get_string("op"), "submit");
  EXPECT_DOUBLE_EQ(v.get_double("n", 0), -150.0);
  EXPECT_TRUE(v.get_bool("flag", false));
  ASSERT_NE(v.find("none"), nullptr);
  EXPECT_TRUE(v.find("none")->is_null());
  ASSERT_NE(v.find("arr"), nullptr);
  EXPECT_EQ(v.find("arr")->items().size(), 3u);
  EXPECT_EQ(v.find("obj")->get_string("k"), "v\n");
}

TEST(WireTest, RejectsMalformedInputWithOffset) {
  Json v;
  std::string error;
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1}trailing", "\"unterminated",
        "01", "nul", "{\"a\" 1}", "\"bad\\q\"", "1e999"}) {
    EXPECT_FALSE(Json::parse(bad, v, error)) << bad;
    EXPECT_NE(error.find("byte"), std::string::npos) << error;
  }
}

TEST(WireTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 40; ++i) deep += "[";
  Json v;
  std::string error;
  EXPECT_FALSE(Json::parse(deep, v, error));
}

TEST(WireTest, WrongTypePresentMemberIsNotCoerced) {
  Json v;
  std::string error;
  ASSERT_TRUE(Json::parse(R"({"n":"five","s":7})", v, error));
  EXPECT_EQ(v.get_int("n", 3), 3);       // string where number expected
  EXPECT_EQ(v.get_string("s", "x"), "x");  // number where string expected
}

TEST(WireTest, EscapeRoundTrip) {
  const std::string hostile = "a\"b\\c\nd\te\x01f";
  Json v;
  std::string error;
  ASSERT_TRUE(Json::parse("\"" + json_escape(hostile) + "\"", v, error))
      << error;
  EXPECT_EQ(v.as_string(), hostile);
}

TEST(WireTest, NonFiniteNumbersWriteNull) {
  const std::string text = serve::JsonObject()
                               .set_double("nan", std::nan(""))
                               .set_double("inf", -HUGE_VAL)
                               .set_double("x", 0.1)
                               .str();
  EXPECT_EQ(text, R"({"nan":null,"inf":null,"x":0.10000000000000001})");
  Json v;
  std::string error;
  ASSERT_TRUE(Json::parse(text, v, error)) << error;
  EXPECT_TRUE(v.find("nan")->is_null());
  EXPECT_EQ(v.get_double("x", 0.0), 0.1);
}

TEST(WireTest, GetIntRejectsFractionsAndOutOfRange) {
  Json v;
  std::string error;
  ASSERT_TRUE(Json::parse(
      R"({"a":2.9,"b":1e300,"c":-9.3e18,"d":-42,"e":9007199254740992})", v,
      error));
  EXPECT_EQ(v.get_int("a", 7), 7);
  EXPECT_EQ(v.get_int("b", 7), 7);
  EXPECT_EQ(v.get_int("c", 7), 7);
  EXPECT_EQ(v.get_int("d", 7), -42);
  EXPECT_EQ(v.get_int("e", 7), std::int64_t{9007199254740992});
}

// ---------------------------------------------------------------------------
// queue
// ---------------------------------------------------------------------------

TEST(FairQueueTest, AdmissionBoundsDepthAndQuota) {
  FairQueue q(/*capacity=*/2, /*tenant_quota=*/2);
  EXPECT_EQ(q.push("a", "j1"), Admission::kAdmitted);
  EXPECT_EQ(q.push("a", "j2"), Admission::kAdmitted);
  EXPECT_EQ(q.push("b", "j3"), Admission::kQueueFull);
  std::string tenant, id;
  ASSERT_TRUE(q.pop(tenant, id));
  // Popped job still holds its quota slot, but queue depth freed up.
  EXPECT_EQ(q.push("a", "j4"), Admission::kQuotaExceeded);
  EXPECT_EQ(q.push("b", "j5"), Admission::kAdmitted);
  q.release("a");
  // Quota freed, but j2 + j5 still occupy the two depth slots.
  EXPECT_EQ(q.push("a", "j6"), Admission::kQueueFull);
  ASSERT_TRUE(q.pop(tenant, id));  // frees one depth slot
  EXPECT_EQ(q.push("a", "j6"), Admission::kAdmitted);
}

TEST(FairQueueTest, RoundRobinAcrossTenants) {
  FairQueue q(/*capacity=*/16, /*tenant_quota=*/16);
  for (int i = 0; i < 3; ++i) {
    q.push("deep", "deep" + std::to_string(i));
  }
  q.push("shallow", "shallow0");
  std::vector<std::string> order;
  std::string tenant, id;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop(tenant, id));
    order.push_back(tenant);
    q.release(tenant);
  }
  // The single-job tenant is served second, not after the deep queue.
  const std::vector<std::string> expected = {"deep", "shallow", "deep",
                                             "deep"};
  EXPECT_EQ(order, expected);
}

TEST(FairQueueTest, RemoveReleasesQuotaAndCloseDrains) {
  FairQueue q(/*capacity=*/4, /*tenant_quota=*/1);
  EXPECT_EQ(q.push("a", "j1"), Admission::kAdmitted);
  EXPECT_EQ(q.push("a", "j2"), Admission::kQuotaExceeded);
  EXPECT_TRUE(q.remove("j1"));
  EXPECT_FALSE(q.remove("j1"));  // already gone
  EXPECT_EQ(q.push("a", "j2"), Admission::kAdmitted);
  q.close();
  EXPECT_EQ(q.push("a", "j3"), Admission::kClosed);
  std::string tenant, id;
  EXPECT_TRUE(q.pop(tenant, id));  // drains j2 after close
  EXPECT_EQ(id, "j2");
  EXPECT_FALSE(q.pop(tenant, id));  // closed and drained
}

// ---------------------------------------------------------------------------
// backbone cache
// ---------------------------------------------------------------------------

BackboneCache::BackbonePtr dummy_backbone() {
  const data::ImageDataset empty({3, 2, 2}, 2);
  eval::BackdooredModel model{"cifar",
                              "badnet",
                              models::ModelSpec{},
                              {},
                              nullptr,
                              empty,
                              empty,
                              empty,
                              empty,
                              {},
                              {}};
  return std::make_shared<const eval::BackdooredModel>(std::move(model));
}

TEST(BackboneCacheTest, LruEvictionAndStats) {
  BackboneCache cache(/*capacity=*/2);
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return dummy_backbone();
  };
  EXPECT_FALSE(cache.get_or_build("a", build).hit);
  EXPECT_FALSE(cache.get_or_build("b", build).hit);
  EXPECT_TRUE(cache.get_or_build("a", build).hit);  // refreshes a
  EXPECT_FALSE(cache.get_or_build("c", build).hit);  // evicts b (LRU)
  EXPECT_TRUE(cache.get_or_build("a", build).hit);
  EXPECT_FALSE(cache.get_or_build("b", build).hit);  // b was evicted
  EXPECT_EQ(builds, 4);
  const serve::BackboneCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_EQ(stats.size, 2u);
}

TEST(BackboneCacheTest, CapacityZeroDisablesCaching) {
  BackboneCache cache(0);
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return dummy_backbone();
  };
  EXPECT_FALSE(cache.get_or_build("a", build).hit);
  EXPECT_FALSE(cache.get_or_build("a", build).hit);
  EXPECT_EQ(builds, 2);
}

TEST(BackboneCacheTest, SingleFlightSharesOneBuild) {
  BackboneCache cache(4);
  std::atomic<int> builds{0};
  std::atomic<int> hits{0};
  const auto build = [&builds] {
    ++builds;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return dummy_backbone();
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      if (cache.get_or_build("shared", build).hit) ++hits;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(hits.load(), 3);
}

TEST(BackboneCacheTest, BuilderFailurePropagatesToWaiters) {
  BackboneCache cache(4);
  const auto failing = []() -> BackboneCache::BackbonePtr {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    throw std::runtime_error("boom");
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      try {
        cache.get_or_build("bad", failing);
      } catch (const std::runtime_error&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 3);
  // The failed build was not cached; the next lookup builds again.
  EXPECT_FALSE(cache.get_or_build("bad", dummy_backbone).hit);
}

// ---------------------------------------------------------------------------
// job schema + journal encoding
// ---------------------------------------------------------------------------

Json parse_ok(const std::string& text) {
  Json v;
  std::string error;
  EXPECT_TRUE(Json::parse(text, v, error)) << error;
  return v;
}

TEST(JobTest, ParseValidatesEveryField) {
  EXPECT_THROW(serve::validate_tenant(""), serve::BadRequest);
  EXPECT_THROW(serve::validate_tenant("a b"), serve::BadRequest);
  EXPECT_NO_THROW(serve::validate_tenant("team-1.prod_x"));

  const auto bad = [](const std::string& body) {
    EXPECT_THROW(serve::parse_job_spec(parse_ok(body), "t"),
                 serve::BadRequest)
        << body;
  };
  bad(R"({"dataset":"imagenet"})");
  bad(R"({"arch":"transformer"})");
  bad(R"({"attack":"wasm"})");
  bad(R"({"defense":"prayer"})");
  bad(R"({"spc":0})");
  bad(R"({"spc":"ten"})");
  bad(R"({"width":100000})");
  bad(R"({"spc":10,"train_per_class":5})");
  // Fractions and numbers beyond int64_t are rejected before any cast,
  // with an error naming the field.
  for (const char* body :
       {R"({"spc":2.9})", R"({"spc":1e300})", R"({"spc":-1e300})",
        R"({"seed":9.3e18})", R"({"width":0.5})"}) {
    bad(body);
    try {
      serve::parse_job_spec(parse_ok(body), "t");
    } catch (const serve::BadRequest& e) {
      EXPECT_NE(std::string(e.what()).find("job."), std::string::npos)
          << e.what();
    }
  }

  const JobSpec spec = serve::parse_job_spec(
      parse_ok(R"({"dataset":"gtsrb","defense":"gradprune","spc":4,)"
               R"("seed":7,"train_per_class":8})"),
      "team");
  EXPECT_EQ(spec.tenant, "team");
  EXPECT_EQ(spec.dataset, "gtsrb");
  EXPECT_EQ(spec.spc, 4);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.train_per_class, 8);
}

TEST(JobTest, CacheKeyReflectsBackboneShapingFieldsOnly) {
  JobSpec a;
  JobSpec b = a;
  EXPECT_EQ(serve::backbone_cache_key(a), serve::backbone_cache_key(b));
  b.defense = "nad";  // defense choice does not shape the backbone
  b.spc = 99;
  EXPECT_EQ(serve::backbone_cache_key(a), serve::backbone_cache_key(b));
  b.seed = a.seed + 1;  // seed does
  EXPECT_NE(serve::backbone_cache_key(a), serve::backbone_cache_key(b));
  JobSpec c = a;
  c.width = 6;
  EXPECT_NE(serve::backbone_cache_key(a), serve::backbone_cache_key(c));
}

// Table cell keys and serve backbone cache keys embed one backbone-scale
// signature (eval::backbone_scale_signature). These literals were
// computed by the code that spelled the signature out twice, at the
// default seed and quick mode: any drift would orphan every existing run
// journal entry and cached backbone.
TEST(JobTest, BackboneCacheAndTableCellKeysArePinned) {
  JobSpec job;
  job.seed = 7;
  job.width = 6;
  EXPECT_EQ(serve::backbone_cache_key(job), "7c5ae0f5ccbdc81e");

  eval::ExperimentScale scale;
  scale.data.height = scale.data.width = 8;
  scale.data.train_per_class = 8;
  scale.data.test_per_class = 2;
  scale.attack_train.epochs = 1;
  scale.base_width = 4;
  scale.spc_settings = {2};
  scale.trials = 1;
  scale.defense_max_epochs = 1;
  scale.prune_max_rounds = 2;
  scale.anp_iterations = 2;
  scale.nad_teacher_epochs = 1;
  scale.nad_distill_epochs = 1;

  // A journal holding both items under the pinned keys: a resumed table
  // must decode them instead of running anything.
  const std::string path = "/tmp/serve_test_pinned_keys.journal";
  std::remove(path.c_str());
  {
    robust::RunJournal journal(path);
    journal.record("099bca2d07eeafef", {{"cell", "baseline"},
                                        {"attack", "badnet"},
                                        {"acc", "50"},
                                        {"asr", "90"},
                                        {"ra", "5"},
                                        {"attempts", "1"}});
    journal.record("1751fe1a3e1a31cb", {{"cell", "setting"},
                                        {"attack", "badnet"},
                                        {"defense", "clp"},
                                        {"spc", "2"},
                                        {"acc", "61.5"},
                                        {"asr", "3"},
                                        {"ra", "40"},
                                        {"seconds", "0.5"},
                                        {"pruned", "7"},
                                        {"recoveries", "0"},
                                        {"attempts", "1"}});
  }
  eval::TableSpec spec;
  spec.title = "pinned keys";
  spec.dataset = "cifar";
  spec.arch = "vgg";
  spec.attacks = {"badnet"};
  spec.defenses = {"clp"};
  spec.scale = scale;
  spec.journal_path = path;
  spec.resume = true;
  ::testing::internal::CaptureStdout();
  const eval::TableRun run = eval::run_table(spec);
  ::testing::internal::GetCapturedStdout();
  std::remove(path.c_str());

  EXPECT_EQ(run.resumed_cells, 1u);
  ASSERT_EQ(run.baselines.size(), 1u);
  EXPECT_EQ(run.baselines[0].second.asr, 90.0);
  ASSERT_EQ(run.settings.size(), 1u);
  EXPECT_EQ(run.settings[0].acc, std::vector<double>{61.5});
  EXPECT_EQ(run.settings[0].pruned, std::vector<std::int64_t>{7});
}

TEST(JobTest, CheckpointCacheKeyTracksContent) {
  const std::string path_a = "/tmp/serve_test_ckpt_a.ckpt";
  const std::string path_b = "/tmp/serve_test_ckpt_b.ckpt";
  Rng rng(11);
  models::ModelSpec spec;
  spec.arch = "preactresnet";
  spec.in_channels = 3;
  spec.num_classes = 4;
  spec.base_width = 4;
  const auto model_a = models::make_model(spec, rng);
  const auto model_b = models::make_model(spec, rng);  // different init
  nn::save_checkpoint(*model_a, path_a);
  nn::save_checkpoint(*model_b, path_b);

  const std::string key_a =
      serve::checkpoint_cache_key(nn::inspect_checkpoint(path_a));
  const std::string key_b =
      serve::checkpoint_cache_key(nn::inspect_checkpoint(path_b));
  EXPECT_EQ(key_a.size(), 16u);  // FNV-1a hex
  EXPECT_NE(key_a, key_b);  // same shapes, different weights
  // Re-inspection of the same file is stable.
  EXPECT_EQ(key_a,
            serve::checkpoint_cache_key(nn::inspect_checkpoint(path_a)));

  // A job citing the checkpoint folds the content key into the LRU key.
  JobSpec plain;
  JobSpec with_ckpt = plain;
  with_ckpt.model_path = path_a;
  JobSpec with_other = plain;
  with_other.model_path = path_b;
  EXPECT_NE(serve::backbone_cache_key(plain),
            serve::backbone_cache_key(with_ckpt));
  EXPECT_NE(serve::backbone_cache_key(with_ckpt),
            serve::backbone_cache_key(with_other));

  JobSpec missing = plain;
  missing.model_path = "/tmp/serve_test_no_such.ckpt";
  EXPECT_THROW(serve::backbone_cache_key(missing), serve::BadRequest);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(JobTest, JournalEncodingRoundTrips) {
  JobRecord rec;
  rec.id = "j000042";
  rec.spec.tenant = "team";
  rec.spec.dataset = "gtsrb";
  rec.spec.defense = "nad";
  rec.spec.spc = 4;
  rec.spec.seed = 99;
  rec.spec.width = 6;
  rec.spec.out_path = "/tmp/out.ckpt";
  rec.state = JobState::kDone;
  rec.cache_key = "abc123";
  rec.cache_hit = true;
  rec.attempts = 2;
  rec.have_metrics = true;
  rec.metrics.acc = 81.25;
  rec.metrics.asr = 1.5;
  rec.metrics.ra = 63.0;
  rec.seconds = 2.5;
  rec.pruned_units = 7;

  const JobRecord back = serve::decode_job("job|j000042",
                                           serve::encode_job(rec));
  EXPECT_EQ(back.id, rec.id);
  EXPECT_EQ(back.spec.tenant, "team");
  EXPECT_EQ(back.spec.dataset, "gtsrb");
  EXPECT_EQ(back.spec.defense, "nad");
  EXPECT_EQ(back.spec.spc, 4);
  EXPECT_EQ(back.spec.seed, 99u);
  EXPECT_EQ(back.spec.width, 6);
  EXPECT_EQ(back.spec.out_path, "/tmp/out.ckpt");
  EXPECT_EQ(back.state, JobState::kDone);
  EXPECT_EQ(back.cache_key, "abc123");
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.attempts, 2);
  ASSERT_TRUE(back.have_metrics);
  EXPECT_DOUBLE_EQ(back.metrics.acc, 81.25);
  EXPECT_DOUBLE_EQ(back.metrics.asr, 1.5);
  EXPECT_DOUBLE_EQ(back.seconds, 2.5);
  EXPECT_EQ(back.pruned_units, 7);
}

TEST(JobTest, DamagedJournalNumberFailsNamingTheField) {
  JobRecord rec;
  rec.id = "j000007";
  rec.spec.width = 6;
  rec.state = JobState::kDone;
  rec.have_metrics = true;
  rec.metrics.acc = 81.25;
  rec.seconds = 2.5;
  const robust::JournalFields good = serve::encode_job(rec);
  EXPECT_EQ(serve::decode_job("job|j000007", good).metrics.acc, 81.25);

  const std::pair<const char*, const char*> damaged[] = {
      {"spc", "4y"},     {"seed", "12 "},      {"width", "6.0"},
      {"attempts", "-"}, {"acc", "1,x"},       {"asr", "nan?"},
      {"ra", "0x10"},    {"seconds", "2.5s"},  {"pruned", "7x"}};
  for (const auto& [name, text] : damaged) {
    robust::JournalFields fields = good;
    fields[name] = text;
    try {
      serve::decode_job("job|j000007", fields);
      ADD_FAILURE() << name << "='" << text << "' decoded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + name + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// protocol robustness — none of these may crash or tear the daemon core
// ---------------------------------------------------------------------------

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() {
    config_.workers = 0;  // admission + bookkeeping only; nothing runs
    config_.queue_capacity = 2;
    config_.tenant_quota = 1;
    config_.cache_capacity = 2;
    service_ = std::make_unique<SanitizeService>(config_);
    protocol_ = std::make_unique<Protocol>(*service_);
  }

  Json handle(const std::string& line) {
    const ProtocolResult result = protocol_->handle_line(line);
    return parse_ok(result.response);
  }

  std::string error_code(const std::string& line) {
    const Json response = handle(line);
    EXPECT_FALSE(response.get_bool("ok", true));
    return response.get_string("error");
  }

  ServiceConfig config_;
  std::unique_ptr<SanitizeService> service_;
  std::unique_ptr<Protocol> protocol_;
};

TEST_F(ProtocolTest, MalformedJsonIsStructuredError) {
  EXPECT_EQ(error_code("this is not json"), "bad_json");
  EXPECT_EQ(error_code("{\"op\":"), "bad_json");
  EXPECT_EQ(error_code("\x01\x02\xff"), "bad_json");
  EXPECT_EQ(error_code("42"), "bad_request");  // valid JSON, not an object
  EXPECT_EQ(error_code("{}"), "bad_request");  // missing op
  EXPECT_EQ(error_code("{\"op\":\"frobnicate\"}"), "unknown_op");
}

TEST_F(ProtocolTest, OversizedRequestLineIsRejectedBeforeParsing) {
  std::string huge = "{\"op\":\"submit\",\"pad\":\"";
  huge += std::string(Protocol::kMaxRequestBytes, 'x');
  huge += "\"}";
  EXPECT_EQ(error_code(huge), "oversized_request");
}

TEST_F(ProtocolTest, SubmitValidation) {
  EXPECT_EQ(error_code("{\"op\":\"submit\"}"), "bad_request");
  EXPECT_EQ(error_code(
                R"({"op":"submit","tenant":"bad tenant","job":{}})"),
            "bad_request");
  EXPECT_EQ(error_code(
                R"({"op":"submit","tenant":"t","job":{"dataset":"mnist"}})"),
            "bad_request");

  const Json ok = handle(R"({"op":"submit","tenant":"t","job":{}})");
  EXPECT_TRUE(ok.get_bool("ok", false));
  EXPECT_EQ(ok.get_string("state"), "queued");
  EXPECT_EQ(ok.get_string("id"), "j000001");
}

TEST_F(ProtocolTest, QuotaThenQueueFullRejections) {
  EXPECT_TRUE(handle(R"({"op":"submit","tenant":"a","job":{}})")
                  .get_bool("ok", false));
  // tenant_quota=1: a second job for "a" bounces even though the queue
  // still has room.
  EXPECT_EQ(error_code(R"({"op":"submit","tenant":"a","job":{}})"),
            "quota_exceeded");
  EXPECT_TRUE(handle(R"({"op":"submit","tenant":"b","job":{}})")
                  .get_bool("ok", false));
  // queue_capacity=2: a third tenant bounces on global depth.
  EXPECT_EQ(error_code(R"({"op":"submit","tenant":"c","job":{}})"),
            "queue_full");
}

TEST_F(ProtocolTest, CancelOfQueuedJobAndStatus) {
  const Json submitted = handle(R"({"op":"submit","tenant":"t","job":{}})");
  const std::string id = submitted.get_string("id");

  EXPECT_EQ(error_code(R"({"op":"status","id":"j999999"})"), "unknown_job");
  EXPECT_EQ(error_code(R"({"op":"cancel","id":"j999999"})"), "unknown_job");

  const Json cancelled =
      handle(R"({"op":"cancel","id":")" + id + R"("})");
  EXPECT_TRUE(cancelled.get_bool("ok", false));
  EXPECT_EQ(cancelled.get_string("state"), "cancelled");

  // Terminal now: a second cancel is refused, status shows the state.
  EXPECT_EQ(error_code(R"({"op":"cancel","id":")" + id + R"("})"),
            "not_cancellable");
  const Json status = handle(R"({"op":"status","id":")" + id + R"("})");
  ASSERT_NE(status.find("job"), nullptr);
  EXPECT_EQ(status.find("job")->get_string("state"), "cancelled");
  EXPECT_NE(status.find("job")->get_string("error"), "");

  // The cancelled job released its quota slot: tenant "t" can submit again.
  EXPECT_TRUE(handle(R"({"op":"submit","tenant":"t","job":{}})")
                  .get_bool("ok", false));
}

TEST_F(ProtocolTest, JobsAndStatsRespondWithAggregates) {
  handle(R"({"op":"submit","tenant":"a","job":{}})");
  handle(R"({"op":"submit","tenant":"b","job":{"defense":"nad"}})");
  const Json all = handle(R"({"op":"jobs"})");
  ASSERT_NE(all.find("jobs"), nullptr);
  EXPECT_EQ(all.find("jobs")->items().size(), 2u);
  const Json filtered = handle(R"({"op":"jobs","tenant":"b"})");
  ASSERT_EQ(filtered.find("jobs")->items().size(), 1u);
  EXPECT_EQ(filtered.find("jobs")->items()[0].get_string("defense"), "nad");

  const Json stats = handle(R"({"op":"stats"})");
  EXPECT_EQ(stats.get_int("submitted", -1), 2);
  EXPECT_EQ(stats.get_int("queue_depth", -1), 2);
  ASSERT_NE(stats.find("tenants"), nullptr);
  EXPECT_EQ(stats.find("tenants")->get_int("a", 0), 1);
}

TEST_F(ProtocolTest, ShutdownIsSignalledToTransport) {
  const ProtocolResult result = protocol_->handle_line(R"({"op":"shutdown"})");
  EXPECT_TRUE(result.shutdown);
  EXPECT_TRUE(parse_ok(result.response).get_bool("ok", false));
}

// ---------------------------------------------------------------------------
// service lifecycle (tiny real jobs)
// ---------------------------------------------------------------------------

JobSpec micro_spec(std::uint64_t seed = 2024) {
  JobSpec spec;
  spec.spc = 2;
  spec.seed = seed;
  spec.width = 4;
  spec.attack_epochs = 1;
  spec.prune_rounds = 2;
  spec.finetune_epochs = 1;
  spec.train_per_class = 4;
  spec.test_per_class = 2;
  return spec;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { ::setenv("BDPROTO_MODE", "quick", 1); }
};

TEST_F(ServiceTest, RunsJobsAndHitsBackboneCache) {
  robust::Supervisor supervisor;
  ServiceConfig config;
  config.workers = 2;
  config.cache_capacity = 2;
  config.supervisor = &supervisor;
  SanitizeService service(config);
  service.start();

  const serve::SubmitResult first = service.submit(micro_spec());
  ASSERT_EQ(first.admission, Admission::kAdmitted);
  const serve::SubmitResult second = service.submit(micro_spec());
  ASSERT_EQ(second.admission, Admission::kAdmitted);
  service.drain();

  JobRecord a, b;
  ASSERT_TRUE(service.status(first.id, a));
  ASSERT_TRUE(service.status(second.id, b));
  EXPECT_EQ(a.state, JobState::kDone);
  EXPECT_EQ(b.state, JobState::kDone);
  ASSERT_TRUE(a.have_metrics);
  ASSERT_TRUE(b.have_metrics);
  // Identical specs: deterministic identical reports, one shared backbone.
  EXPECT_EQ(a.metrics.acc, b.metrics.acc);
  EXPECT_EQ(a.metrics.asr, b.metrics.asr);
  EXPECT_EQ(a.cache_key, b.cache_key);
  EXPECT_TRUE(a.cache_hit || b.cache_hit);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.done, 2);
  EXPECT_EQ(stats.cache.misses, 1);
  EXPECT_EQ(stats.cache.hits, 1);
  service.stop();
}

TEST_F(ServiceTest, ShapeMismatchedCheckpointFailsJobWithRetries) {
  // A checkpoint whose shapes do not match the job's model spec: the
  // override fails inside the attempt, the supervisor retries, the job
  // lands in kFailed with the journaled attempt count — the daemon
  // survives.
  const std::string path = "/tmp/serve_test_mismatch.ckpt";
  {
    Rng rng(5);
    models::ModelSpec spec;
    spec.arch = "preactresnet";
    spec.in_channels = 3;
    spec.num_classes = 4;
    spec.base_width = 8;  // job below builds width 4
    const auto model = models::make_model(spec, rng);
    nn::save_checkpoint(*model, path);
  }
  robust::SupervisorConfig sup_config;
  sup_config.max_retries = 1;
  sup_config.backoff_initial_seconds = 0.0;
  robust::Supervisor supervisor(sup_config);
  ServiceConfig config;
  config.workers = 1;
  config.supervisor = &supervisor;
  SanitizeService service(config);
  service.start();

  JobSpec spec = micro_spec();
  spec.model_path = path;
  const serve::SubmitResult submitted = service.submit(spec);
  ASSERT_EQ(submitted.admission, Admission::kAdmitted);
  service.drain();

  JobRecord record;
  ASSERT_TRUE(service.status(submitted.id, record));
  EXPECT_EQ(record.state, JobState::kFailed);
  EXPECT_EQ(record.attempts, 2);  // first attempt + one retry
  EXPECT_NE(record.error, "");
  EXPECT_FALSE(record.have_metrics);

  // A healthy job for another configuration still completes.
  const serve::SubmitResult healthy = service.submit(micro_spec(7));
  ASSERT_EQ(healthy.admission, Admission::kAdmitted);
  service.drain();
  ASSERT_TRUE(service.status(healthy.id, record));
  EXPECT_EQ(record.state, JobState::kDone);
  service.stop();
  std::remove(path.c_str());
}

TEST_F(ServiceTest, CheckpointJobWritesTheSharedTrialsModel) {
  // Checkpoint in, checkpoint out: the served job writes exactly the model
  // run_sanitization repairs from that checkpoint with the shared trial
  // seed — the trial `bdctl defend` runs for the same flags.
  const std::string in_path = "/tmp/serve_test_ckpt_in.ckpt";
  const std::string out_path = "/tmp/serve_test_ckpt_out.ckpt";
  std::remove(out_path.c_str());
  JobSpec spec = micro_spec(11);
  const eval::ExperimentScale scale = serve::job_scale(spec);
  const eval::BackdooredModel bd = eval::prepare_backdoored_model(
      spec.dataset, spec.arch, spec.attack, scale, spec.seed);
  {
    // Weights other than the backbone's own, so the override shows.
    Rng rng(3);
    nn::save_checkpoint(*models::make_model(bd.spec, rng), in_path);
  }
  spec.model_path = in_path;
  spec.out_path = out_path;

  robust::Supervisor supervisor;
  ServiceConfig config;
  config.workers = 1;
  config.supervisor = &supervisor;
  SanitizeService service(config);
  service.start();
  const serve::SubmitResult submitted = service.submit(spec);
  ASSERT_EQ(submitted.admission, Admission::kAdmitted);
  service.drain();
  JobRecord record;
  ASSERT_TRUE(service.status(submitted.id, record));
  service.stop();
  ASSERT_EQ(record.state, JobState::kDone) << record.error;

  const auto override_state = nn::load_state(in_path);
  eval::SanitizeRequest req;
  req.defense = spec.defense;
  req.spc = spec.spc;
  req.seed = spec.seed ^ eval::kTrialSeedSalt;
  req.state_override = &override_state;
  req.keep_model = true;
  const eval::SanitizeOutcome expected = eval::run_sanitization(bd, req, scale);
  EXPECT_EQ(record.metrics.acc, expected.metrics.acc);
  EXPECT_EQ(record.metrics.asr, expected.metrics.asr);
  EXPECT_EQ(record.metrics.ra, expected.metrics.ra);

  const auto want = expected.model->state_dict();
  const auto got = nn::load_state(out_path);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, tensor] : want) {
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    ASSERT_EQ(it->second.shape(), tensor.shape()) << name;
    EXPECT_EQ(std::memcmp(it->second.data(), tensor.data(),
                          static_cast<std::size_t>(tensor.numel()) *
                              sizeof(float)),
              0)
        << name;
  }
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST_F(ServiceTest, CancelRunningJobViaExternalToken) {
  robust::Supervisor supervisor;
  ServiceConfig config;
  config.workers = 1;
  config.supervisor = &supervisor;
  SanitizeService service(config);
  service.start();

  // A job long enough to be caught mid-flight.
  JobSpec slow = micro_spec(31);
  slow.attack_epochs = 500;
  const serve::SubmitResult submitted = service.submit(slow);
  ASSERT_EQ(submitted.admission, Admission::kAdmitted);

  JobRecord record;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(service.status(submitted.id, record));
    if (record.state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(record.state, JobState::kRunning);
  EXPECT_EQ(service.cancel(submitted.id), CancelOutcome::kSignalled);
  ASSERT_EQ(service.wait(submitted.id, /*timeout_seconds=*/30.0),
            serve::WaitOutcome::kTerminal);
  ASSERT_TRUE(service.status(submitted.id, record));
  EXPECT_EQ(record.state, JobState::kCancelled);
  // Externally cancelled: no retry, no strike, counted as cancelled.
  EXPECT_EQ(supervisor.stats().cancelled, 1);
  EXPECT_EQ(supervisor.stats().retries, 0);
  EXPECT_EQ(supervisor.stats().failures, 0);
  service.stop();
}

/// Checks `done` every 5 ms for up to 30 s; false when it never held.
template <typename Pred>
bool eventually(Pred done) {
  for (int i = 0; i < 6000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

/// Two jobs on one backbone, two workers: the first job misses the cache
/// and trains the backbone, the second joins that build as a waiter.
/// Returns once both are in place, with the build still running.
struct SharedBuild {
  explicit SharedBuild(robust::Supervisor& supervisor) {
    ServiceConfig config;
    config.workers = 2;
    config.supervisor = &supervisor;
    service = std::make_unique<SanitizeService>(config);
    service->start();
    JobSpec spec = micro_spec(41);
    spec.attack_epochs = 300;  // a build long enough to act on mid-flight
    builder = service->submit(spec).id;
    EXPECT_TRUE(eventually([&] { return service->stats().cache.misses == 1; }));
    waiter = service->submit(spec).id;
    EXPECT_TRUE(eventually([&] { return service->stats().cache.hits == 1; }));
  }

  JobRecord record(const std::string& id) const {
    JobRecord out;
    EXPECT_TRUE(service->status(id, out));
    return out;
  }

  std::unique_ptr<SanitizeService> service;
  std::string builder;
  std::string waiter;
};

TEST_F(ServiceTest, CancelledBuilderDoesNotStrikeItsWaiter) {
  // The client cancels the builder. Its Cancelled is no fault of the
  // waiter's configuration: the waiter takes the lookup again, builds the
  // backbone itself and finishes on its first attempt.
  robust::Supervisor supervisor;
  SharedBuild run(supervisor);
  EXPECT_EQ(run.service->cancel(run.builder), CancelOutcome::kSignalled);
  run.service->drain();

  EXPECT_EQ(run.record(run.builder).state, JobState::kCancelled);
  const JobRecord waiter = run.record(run.waiter);
  EXPECT_EQ(waiter.state, JobState::kDone) << waiter.error;
  EXPECT_EQ(waiter.attempts, 1);
  EXPECT_EQ(supervisor.stats().timeouts, 0);
  EXPECT_EQ(supervisor.stats().retries, 0);
  EXPECT_EQ(supervisor.stats().cancelled, 1);
  EXPECT_EQ(supervisor.strikes("serve|" + waiter.cache_key + "|" +
                               waiter.spec.defense + "|" +
                               std::to_string(waiter.spec.spc)),
            0);
  // The waiter rebuilt the backbone after the cancelled build.
  EXPECT_EQ(run.service->stats().cache.misses, 2);
  run.service->stop();
}

TEST_F(ServiceTest, CancelJobWaitingOnAnInFlightBuild) {
  // The client cancels the waiter: its serve.cache.wait poll stops it while
  // the builder trains on and finishes.
  robust::Supervisor supervisor;
  SharedBuild run(supervisor);
  EXPECT_EQ(run.service->cancel(run.waiter), CancelOutcome::kSignalled);
  ASSERT_EQ(run.service->wait(run.waiter, /*timeout_seconds=*/30.0),
            serve::WaitOutcome::kTerminal);
  const JobRecord waiter = run.record(run.waiter);
  EXPECT_EQ(waiter.state, JobState::kCancelled);
  EXPECT_NE(waiter.error.find("observed at serve.cache.wait"),
            std::string::npos)
      << waiter.error;
  EXPECT_EQ(run.record(run.builder).state, JobState::kRunning);

  run.service->drain();
  const JobRecord builder = run.record(run.builder);
  EXPECT_EQ(builder.state, JobState::kDone) << builder.error;
  EXPECT_EQ(builder.attempts, 1);
  EXPECT_EQ(supervisor.stats().cancelled, 1);
  EXPECT_EQ(supervisor.stats().timeouts, 0);
  EXPECT_EQ(run.service->stats().cache.misses, 1);
  run.service->stop();
}

// ---------------------------------------------------------------------------
// journaled restart
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, RestartReportsInterruptedJobsDeterministically) {
  const std::string journal = "/tmp/serve_test_restart.jsonl";
  std::remove(journal.c_str());

  {
    ServiceConfig config;
    config.workers = 0;  // nothing runs; jobs stay queued
    config.journal_path = journal;
    SanitizeService service(config);
    ASSERT_EQ(service.submit(micro_spec(1)).admission, Admission::kAdmitted);
    ASSERT_EQ(service.submit(micro_spec(2)).admission, Admission::kAdmitted);
    service.stop();  // daemon dies with two queued jobs journaled
  }
  {
    ServiceConfig config;
    config.workers = 0;
    config.journal_path = journal;
    SanitizeService service(config);
    const std::vector<JobRecord> jobs = service.jobs();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, "j000001");
    EXPECT_EQ(jobs[1].id, "j000002");
    for (const JobRecord& record : jobs) {
      EXPECT_EQ(record.state, JobState::kInterrupted);
      EXPECT_NE(record.error.find("restarted"), std::string::npos);
    }
    EXPECT_EQ(service.stats().interrupted, 2);
    // Ids keep counting from the journal's high-water mark.
    EXPECT_EQ(service.submit(micro_spec(3)).id, "j000003");
    service.stop();
  }
  std::remove(journal.c_str());
}

TEST_F(ServiceTest, DamagedJournaledJobIdFailsNamingTheField) {
  const std::string journal = "/tmp/serve_test_damaged_id.jsonl";
  std::remove(journal.c_str());
  {
    ServiceConfig config;
    config.workers = 0;
    config.journal_path = journal;
    SanitizeService service(config);
    ASSERT_EQ(service.submit(micro_spec(1)).id, "j000001");
    service.stop();
  }
  {
    // The same job again under a damaged id.
    robust::RunJournal appender(journal);
    const robust::JournalFields* good = appender.find("job|j000001");
    ASSERT_NE(good, nullptr);
    robust::JournalFields damaged = *good;
    damaged["id"] = "jx7";
    appender.record("job|jx7", damaged);
  }
  ServiceConfig config;
  config.workers = 0;
  config.journal_path = journal;
  try {
    SanitizeService service(config);
    ADD_FAILURE() << "a journal with job id 'jx7' loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'id'"), std::string::npos) << what;
    EXPECT_NE(what.find("jx7"), std::string::npos) << what;
  }
  std::remove(journal.c_str());
}

TEST_F(ServiceTest, RestartWithResumeRequeuesAndCompletes) {
  const std::string journal = "/tmp/serve_test_resume.jsonl";
  std::remove(journal.c_str());

  {
    ServiceConfig config;
    config.workers = 0;
    config.journal_path = journal;
    SanitizeService service(config);
    ASSERT_EQ(service.submit(micro_spec(8)).admission, Admission::kAdmitted);
    service.stop();
  }
  {
    robust::Supervisor supervisor;
    ServiceConfig config;
    config.workers = 1;
    config.journal_path = journal;
    config.resume_interrupted = true;
    config.supervisor = &supervisor;
    SanitizeService service(config);
    JobRecord record;
    ASSERT_TRUE(service.status("j000001", record));
    EXPECT_EQ(record.state, JobState::kQueued);
    service.start();
    service.drain();
    ASSERT_TRUE(service.status("j000001", record));
    EXPECT_EQ(record.state, JobState::kDone);
    EXPECT_TRUE(record.have_metrics);
    service.stop();
  }
  // Third incarnation sees the resumed job as done, nothing in flight.
  {
    ServiceConfig config;
    config.workers = 0;
    config.journal_path = journal;
    SanitizeService service(config);
    EXPECT_EQ(service.stats().done, 1);
    EXPECT_EQ(service.stats().interrupted, 0);
    service.stop();
  }
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace bd
