#include "serve/job.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "attack/trigger.h"
#include "models/factory.h"

namespace bd::serve {

namespace {

bool one_of(const std::string& value,
            std::initializer_list<const char*> allowed) {
  return std::any_of(allowed.begin(), allowed.end(),
                     [&value](const char* a) { return value == a; });
}

/// Reads an optional integer member, enforcing [lo, hi]; `fallback` when
/// absent. A non-number, a fraction or an out-of-range number is a
/// BadRequest, not a silent default or truncation.
std::int64_t bounded_int(const Json& job, const char* name,
                         std::int64_t fallback, std::int64_t lo,
                         std::int64_t hi) {
  const Json* v = job.find(name);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    throw BadRequest(std::string("job.") + name + " must be a number");
  }
  const std::optional<std::int64_t> value = v->as_int();
  if (!value || *value < lo || *value > hi) {
    throw BadRequest(std::string("job.") + name +
                     " must be an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
  }
  return *value;
}

/// Throws BadRequest("job.<member> must be a|b|...") unless `value` is one
/// of `allowed`.
void require_known(const std::string& value,
                   const std::vector<std::string>& allowed,
                   const char* member) {
  if (std::find(allowed.begin(), allowed.end(), value) != allowed.end()) {
    return;
  }
  std::string message = std::string("job.") + member + " must be ";
  for (std::size_t i = 0; i < allowed.size(); ++i) {
    if (i > 0) message += '|';
    message += allowed[i];
  }
  throw BadRequest(message);
}

std::string optional_string(const Json& job, const char* name) {
  const Json* v = job.find(name);
  if (v == nullptr) return "";
  if (!v->is_string()) {
    throw BadRequest(std::string("job.") + name + " must be a string");
  }
  return v->as_string();
}

}  // namespace

void validate_tenant(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > 64) {
    throw BadRequest("tenant must be 1..64 characters");
  }
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) {
      throw BadRequest("tenant may only contain [A-Za-z0-9._-]");
    }
  }
}

JobSpec parse_job_spec(const Json& job, const std::string& tenant) {
  if (!job.is_object()) throw BadRequest("submit needs a \"job\" object");
  JobSpec spec;
  spec.tenant = tenant;

  spec.dataset = job.get_string("dataset", spec.dataset);
  if (!one_of(spec.dataset, {"cifar", "gtsrb"})) {
    throw BadRequest("job.dataset must be cifar|gtsrb");
  }
  spec.arch = job.get_string("arch", spec.arch);
  require_known(spec.arch, models::known_architectures(), "arch");
  spec.attack = job.get_string("attack", spec.attack);
  require_known(spec.attack, attack::known_attacks(), "attack");
  spec.defense = job.get_string("defense", spec.defense);
  require_known(spec.defense, eval::known_defenses(), "defense");

  spec.spc = bounded_int(job, "spc", spec.spc, 1, 1000);
  spec.seed = static_cast<std::uint64_t>(
      bounded_int(job, "seed", static_cast<std::int64_t>(spec.seed), 0,
                  std::int64_t{1} << 62));
  spec.width = bounded_int(job, "width", 0, 0, 256);
  spec.attack_epochs = bounded_int(job, "attack_epochs", 0, 0, 10000);
  spec.prune_rounds = bounded_int(job, "prune_rounds", 0, 0, 10000);
  spec.finetune_epochs = bounded_int(job, "finetune_epochs", 0, 0, 10000);
  spec.train_per_class = bounded_int(job, "train_per_class", 0, 0, 100000);
  spec.test_per_class = bounded_int(job, "test_per_class", 0, 0, 100000);
  spec.model_path = optional_string(job, "model");
  spec.out_path = optional_string(job, "out");
  spec.client_job_id = optional_string(job, "client_id");
  if (spec.client_job_id.size() > 128) {
    throw BadRequest("job.client_id must be <= 128 characters");
  }
  for (const char c : spec.client_job_id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) {
      throw BadRequest("job.client_id may only contain [A-Za-z0-9._-]");
    }
  }
  // The defender needs at least SPC clean samples per class to draw.
  if (spec.train_per_class > 0 && spec.train_per_class < spec.spc) {
    throw BadRequest("job.train_per_class must be >= job.spc");
  }
  return spec;
}

eval::ExperimentScale job_scale(const JobSpec& spec) {
  eval::ExperimentScale s = eval::default_scale(spec.dataset);
  s.trials = 1;
  if (spec.width > 0) s.base_width = spec.width;
  if (spec.attack_epochs > 0) s.attack_train.epochs = spec.attack_epochs;
  if (spec.prune_rounds > 0) s.prune_max_rounds = spec.prune_rounds;
  if (spec.finetune_epochs > 0) {
    s.defense_max_epochs = spec.finetune_epochs;
    s.nad_distill_epochs = spec.finetune_epochs;
  }
  if (spec.train_per_class > 0) s.data.train_per_class = spec.train_per_class;
  if (spec.test_per_class > 0) s.data.test_per_class = spec.test_per_class;
  return s;
}

std::string backbone_signature(const JobSpec& spec) {
  return "backbone|" + spec.dataset + '|' + spec.arch + '|' + spec.attack +
         '|' + std::to_string(spec.seed) +
         eval::backbone_scale_signature(job_scale(spec));
}

std::string checkpoint_cache_key(const nn::CheckpointInfo& info) {
  std::string sig = "ckpt";
  for (const auto& entry : info.entries) {
    sig += '|';
    sig += entry.name;
    sig += ':';
    for (std::size_t d = 0; d < entry.shape.size(); ++d) {
      if (d) sig += 'x';
      sig += std::to_string(entry.shape[d]);
    }
  }
  char crc[16];
  std::snprintf(crc, sizeof(crc), "|%08x", info.content_crc);
  sig += crc;
  return robust::stable_hash_hex(sig);
}

std::string backbone_cache_key(const JobSpec& spec) {
  std::string sig = backbone_signature(spec);
  if (!spec.model_path.empty()) {
    nn::CheckpointInfo info;
    try {
      info = nn::inspect_checkpoint(spec.model_path);
    } catch (const std::exception& e) {
      throw BadRequest("job.model: " + std::string(e.what()));
    }
    sig += "|ckpt|";
    sig += checkpoint_cache_key(info);
  }
  return robust::stable_hash_hex(sig);
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kInterrupted: return "interrupted";
  }
  return "unknown";
}

bool parse_job_state(const std::string& name, JobState& out) {
  for (const JobState state :
       {JobState::kQueued, JobState::kRunning, JobState::kDone,
        JobState::kFailed, JobState::kCancelled, JobState::kInterrupted}) {
    if (name == job_state_name(state)) {
      out = state;
      return true;
    }
  }
  return false;
}

bool job_state_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled || state == JobState::kInterrupted;
}

robust::JournalFields encode_job(const JobRecord& r) {
  robust::JournalFields f{
      {"id", r.id},
      {"tenant", r.spec.tenant},
      {"state", job_state_name(r.state)},
      {"dataset", r.spec.dataset},
      {"arch", r.spec.arch},
      {"attack", r.spec.attack},
      {"defense", r.spec.defense},
      {"spc", std::to_string(r.spec.spc)},
      {"seed", std::to_string(r.spec.seed)},
      {"cache_key", r.cache_key},
      {"attempts", std::to_string(r.attempts)},
  };
  const auto set_if = [&f](const char* name, std::int64_t v) {
    if (v != 0) f[name] = std::to_string(v);
  };
  set_if("width", r.spec.width);
  set_if("attack_epochs", r.spec.attack_epochs);
  set_if("prune_rounds", r.spec.prune_rounds);
  set_if("finetune_epochs", r.spec.finetune_epochs);
  set_if("train_per_class", r.spec.train_per_class);
  set_if("test_per_class", r.spec.test_per_class);
  if (!r.spec.model_path.empty()) f["model"] = r.spec.model_path;
  if (!r.spec.out_path.empty()) f["out"] = r.spec.out_path;
  if (!r.spec.client_job_id.empty()) f["client_id"] = r.spec.client_job_id;
  if (r.cache_hit) f["cache"] = "hit";
  if (!r.error.empty()) f["error"] = r.error;
  if (r.have_metrics) {
    f["acc"] = robust::exact_double(r.metrics.acc);
    f["asr"] = robust::exact_double(r.metrics.asr);
    f["ra"] = robust::exact_double(r.metrics.ra);
    f["seconds"] = robust::exact_double(r.seconds);
    f["pruned"] = std::to_string(r.pruned_units);
  }
  return f;
}

JobRecord decode_job(const std::string& key,
                     const robust::JournalFields& fields) {
  const auto get = [&fields](const char* name) {
    const auto it = fields.find(name);
    return it == fields.end() ? std::string() : it->second;
  };
  const auto get_i = [&fields](const char* name, std::int64_t fallback) {
    return robust::journal_number(fields, name, fallback);
  };

  JobRecord r;
  r.id = get("id");
  if (r.id.empty() && key.rfind("job|", 0) == 0) r.id = key.substr(4);
  r.spec.tenant = get("tenant").empty() ? "default" : get("tenant");
  if (!get("dataset").empty()) r.spec.dataset = get("dataset");
  if (!get("arch").empty()) r.spec.arch = get("arch");
  if (!get("attack").empty()) r.spec.attack = get("attack");
  if (!get("defense").empty()) r.spec.defense = get("defense");
  r.spec.spc = get_i("spc", r.spec.spc);
  r.spec.seed = static_cast<std::uint64_t>(
      get_i("seed", static_cast<std::int64_t>(r.spec.seed)));
  r.spec.width = get_i("width", 0);
  r.spec.attack_epochs = get_i("attack_epochs", 0);
  r.spec.prune_rounds = get_i("prune_rounds", 0);
  r.spec.finetune_epochs = get_i("finetune_epochs", 0);
  r.spec.train_per_class = get_i("train_per_class", 0);
  r.spec.test_per_class = get_i("test_per_class", 0);
  r.spec.model_path = get("model");
  r.spec.out_path = get("out");
  r.spec.client_job_id = get("client_id");
  if (!parse_job_state(get("state"), r.state)) r.state = JobState::kQueued;
  r.cache_key = get("cache_key");
  r.cache_hit = get("cache") == "hit";
  r.attempts = get_i("attempts", 0);
  r.error = get("error");
  if (!get("acc").empty()) {
    r.have_metrics = true;
    r.metrics.acc = robust::journal_number(fields, "acc", 0.0);
    r.metrics.asr = robust::journal_number(fields, "asr", 0.0);
    r.metrics.ra = robust::journal_number(fields, "ra", 0.0);
    r.seconds = robust::journal_number(fields, "seconds", 0.0);
    r.pruned_units = get_i("pruned", 0);
  }
  return r;
}

std::string job_json(const JobRecord& r) {
  JsonObject o;
  o.set("id", r.id)
      .set("tenant", r.spec.tenant)
      .set("state", job_state_name(r.state))
      .set("dataset", r.spec.dataset)
      .set("arch", r.spec.arch)
      .set("attack", r.spec.attack)
      .set("defense", r.spec.defense)
      .set_int("spc", r.spec.spc)
      .set_int("seed", static_cast<std::int64_t>(r.spec.seed))
      .set("cache_key", r.cache_key)
      .set_bool("cache_hit", r.cache_hit)
      .set_int("attempts", r.attempts);
  if (!r.spec.model_path.empty()) o.set("model", r.spec.model_path);
  if (!r.spec.out_path.empty()) o.set("out", r.spec.out_path);
  if (!r.spec.client_job_id.empty()) {
    o.set("client_id", r.spec.client_job_id);
  }
  if (!r.error.empty()) o.set("error", r.error);
  if (r.have_metrics) {
    o.set_double("acc", r.metrics.acc)
        .set_double("asr", r.metrics.asr)
        .set_double("ra", r.metrics.ra)
        .set_double("seconds", r.seconds)
        .set_int("pruned", r.pruned_units);
  }
  return o.str();
}

}  // namespace bd::serve
