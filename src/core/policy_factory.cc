#include "core/policy_factory.h"

#include <algorithm>
#include <cctype>

#include "core/a0.h"
#include "core/adaptive_policy.h"
#include "core/arc.h"
#include "core/belady.h"
#include "core/clock_policy.h"
#include "core/fifo.h"
#include "core/lru.h"
#include "core/mru.h"
#include "core/random_policy.h"

namespace lruk {

Result<std::unique_ptr<ReplacementPolicy>> MakePolicy(
    const PolicyConfig& config, const PolicyContext& context) {
  switch (config.kind) {
    case PolicyKind::kLru:
      return std::unique_ptr<ReplacementPolicy>(new LruPolicy());
    case PolicyKind::kLruK: {
      LruKOptions options = config.lru_k;
      if (options.capacity_hint == 0) options.capacity_hint = context.capacity;
      return std::unique_ptr<ReplacementPolicy>(new LruKPolicy(options));
    }
    case PolicyKind::kLfu:
      return std::unique_ptr<ReplacementPolicy>(new LfuPolicy(config.lfu));
    case PolicyKind::kFifo:
      return std::unique_ptr<ReplacementPolicy>(new FifoPolicy());
    case PolicyKind::kClock:
      return std::unique_ptr<ReplacementPolicy>(new ClockPolicy());
    case PolicyKind::kGClock:
      return std::unique_ptr<ReplacementPolicy>(
          new GClockPolicy(config.gclock));
    case PolicyKind::kLrd:
      return std::unique_ptr<ReplacementPolicy>(new LrdPolicy(config.lrd));
    case PolicyKind::kMru:
      return std::unique_ptr<ReplacementPolicy>(new MruPolicy());
    case PolicyKind::kRandom:
      return std::unique_ptr<ReplacementPolicy>(
          new RandomPolicy(config.random_seed));
    case PolicyKind::kTwoQ: {
      TwoQOptions options = config.two_q;
      if (options.capacity == 0) options.capacity = context.capacity;
      if (options.capacity == 0) {
        return Status::InvalidArgument(
            "2Q needs a capacity (set PolicyContext::capacity)");
      }
      return std::unique_ptr<ReplacementPolicy>(new TwoQPolicy(options));
    }
    case PolicyKind::kArc: {
      size_t capacity =
          config.arc_capacity != 0 ? config.arc_capacity : context.capacity;
      if (capacity == 0) {
        return Status::InvalidArgument(
            "ARC needs a capacity (set PolicyContext::capacity)");
      }
      return std::unique_ptr<ReplacementPolicy>(new ArcPolicy(capacity));
    }
    case PolicyKind::kDomainSeparation:
      if (config.domain_separation.classifier == nullptr ||
          config.domain_separation.domain_capacities.empty()) {
        return Status::InvalidArgument(
            "domain separation needs a classifier and domain capacities");
      }
      return std::unique_ptr<ReplacementPolicy>(
          new DomainSeparationPolicy(config.domain_separation));
    case PolicyKind::kA0:
      if (context.probabilities.empty()) {
        return Status::InvalidArgument(
            "A0 needs the true probability vector "
            "(set PolicyContext::probabilities)");
      }
      return std::unique_ptr<ReplacementPolicy>(
          new A0Policy(context.probabilities));
    case PolicyKind::kBelady:
      if (context.trace.empty()) {
        return Status::InvalidArgument(
            "Belady needs the future trace (set PolicyContext::trace)");
      }
      return std::unique_ptr<ReplacementPolicy>(
          new BeladyPolicy(context.trace));
    case PolicyKind::kAdaptive: {
      const AdaptiveConfig& ac = config.adaptive;
      if (ac.experts.empty()) {
        return Status::InvalidArgument(
            "adaptive policy needs at least one expert");
      }
      if (context.capacity == 0) {
        return Status::InvalidArgument(
            "adaptive policy needs a capacity for its ghost caches "
            "(set PolicyContext::capacity)");
      }
      std::vector<AdaptiveExpert> experts;
      experts.reserve(ac.experts.size());
      for (size_t i = 0; i < ac.experts.size(); ++i) {
        if (ac.experts[i].kind == PolicyKind::kAdaptive) {
          return Status::InvalidArgument(
              "adaptive experts cannot nest another adaptive policy");
        }
        auto live = MakePolicy(ac.experts[i], context);
        if (!live.ok()) return live.status();
        auto ghost = MakePolicy(ac.experts[i], context);
        if (!ghost.ok()) return ghost.status();
        std::string name = i < ac.expert_names.size() && !ac.expert_names[i].empty()
                               ? ac.expert_names[i]
                               : std::string((*live)->Name());
        experts.push_back(
            {std::move(name), std::move(*live), std::move(*ghost)});
      }
      AdaptivePolicyOptions options;
      options.capacity = context.capacity;
      options.window_refs = ac.window_refs;
      options.window_buckets = ac.window_buckets;
      options.switch_margin = ac.switch_margin;
      options.min_window_misses = ac.min_window_misses;
      options.cooldown_refs = ac.cooldown_refs;
      return std::unique_ptr<ReplacementPolicy>(
          new AdaptivePolicy(std::move(experts), options));
    }
  }
  return Status::Internal("unhandled policy kind");
}

Result<ShardPolicyFactory> MakeShardPolicyFactory(const PolicyConfig& config,
                                                  PolicyContext context) {
  // Probe-build once with a stand-in capacity (shards always have >= 1
  // frame) so config errors are reported now, as a Status.
  PolicyContext probe = context;
  if (probe.capacity == 0) probe.capacity = 1;
  auto trial = MakePolicy(config, probe);
  if (!trial.ok()) return trial.status();

  return ShardPolicyFactory(
      [config, context](size_t /*shard_index*/, size_t shard_capacity) {
        PolicyContext shard_context = context;
        shard_context.capacity = shard_capacity;
        auto policy = MakePolicy(config, shard_context);
        LRUK_ASSERT(policy.ok(),
                    "validated policy config failed to build for a shard");
        return std::move(*policy);
      });
}

namespace {

std::string UpperCopy(const std::string& s) {
  std::string upper(s.size(), '\0');
  std::transform(s.begin(), s.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return upper;
}

// Parses the digits of "LRU-<K>" / "LRUK<K>". `token` is the original
// (pre-uppercasing) text, quoted verbatim in error messages.
Result<PolicyConfig> ParseLruKDepth(const std::string& token,
                                    const std::string& digits) {
  if (digits.empty()) {
    return Status::InvalidArgument("policy token '" + token +
                                   "': missing LRU-K depth");
  }
  int k = 0;
  for (char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument("policy token '" + token +
                                     "': malformed LRU-K depth '" + digits +
                                     "'");
    }
    if (k <= kMaxHistoryK) k = k * 10 + (c - '0');
  }
  // Inline history storage bounds K (see kMaxHistoryK); the paper never
  // goes past K = 3 anyway.
  if (k < 1 || k > kMaxHistoryK) {
    return Status::InvalidArgument(
        "policy token '" + token + "': LRU-K depth must be between 1 and " +
        std::to_string(kMaxHistoryK));
  }
  return PolicyConfig::LruK(k);
}

// Parses one simple (non-adaptive) policy token.
Result<PolicyConfig> ParseSimpleToken(const std::string& token) {
  std::string upper = UpperCopy(token);
  if (upper == "LRU" || upper == "LRU-1" || upper == "LRUK1") {
    return PolicyConfig::Lru();
  }
  if (upper.rfind("LRU-", 0) == 0) {
    return ParseLruKDepth(token, upper.substr(4));
  }
  // Compact form used inside adaptive specs ("lruk2"), accepted anywhere.
  if (upper.rfind("LRUK", 0) == 0 && upper.size() > 4) {
    return ParseLruKDepth(token, upper.substr(4));
  }
  if (upper == "LFU") return PolicyConfig::Lfu();
  if (upper == "FIFO") return PolicyConfig::Of(PolicyKind::kFifo);
  if (upper == "CLOCK") return PolicyConfig::Of(PolicyKind::kClock);
  if (upper == "GCLOCK") return PolicyConfig::Of(PolicyKind::kGClock);
  if (upper == "LRD" || upper == "LRD-V1") {
    return PolicyConfig::Of(PolicyKind::kLrd);
  }
  if (upper == "LRD-V2") {
    PolicyConfig c = PolicyConfig::Of(PolicyKind::kLrd);
    c.lrd.aging_interval = 10000;
    return c;
  }
  if (upper == "MRU") return PolicyConfig::Of(PolicyKind::kMru);
  if (upper == "RANDOM") return PolicyConfig::Of(PolicyKind::kRandom);
  if (upper == "2Q" || upper == "TWOQ") return PolicyConfig::TwoQ();
  if (upper == "ARC") return PolicyConfig::Arc();
  if (upper == "A0") return PolicyConfig::A0();
  if (upper == "B0" || upper == "BELADY" || upper == "OPT") {
    return PolicyConfig::Belady();
  }
  return Status::InvalidArgument("unknown policy name '" + token + "'");
}

}  // namespace

Result<PolicyConfig> ParsePolicySpec(const std::string& spec) {
  const std::string upper = UpperCopy(spec);
  constexpr std::string_view kAdaptivePrefix = "ADAPTIVE:";
  if (upper.rfind("ADAPTIVE", 0) != 0) return ParseSimpleToken(spec);
  if (upper.rfind(kAdaptivePrefix, 0) != 0) {
    return Status::InvalidArgument(
        "adaptive spec '" + spec +
        "' must list experts as 'adaptive:<e1>+<e2>+...'");
  }

  PolicyConfig config = PolicyConfig::Of(PolicyKind::kAdaptive);
  const std::string list = spec.substr(kAdaptivePrefix.size());
  if (list.empty()) {
    return Status::InvalidArgument("adaptive spec '" + spec +
                                   "' lists no experts");
  }
  std::vector<std::string> seen;
  size_t start = 0;
  while (start <= list.size()) {
    size_t plus = list.find('+', start);
    std::string token = list.substr(
        start, plus == std::string::npos ? std::string::npos : plus - start);
    start = plus == std::string::npos ? list.size() + 1 : plus + 1;
    if (token.empty()) {
      return Status::InvalidArgument("adaptive spec '" + spec +
                                     "' has an empty expert token");
    }
    if (UpperCopy(token).rfind("ADAPTIVE", 0) == 0) {
      return Status::InvalidArgument("adaptive spec '" + spec +
                                     "': expert '" + token +
                                     "' nests another adaptive policy");
    }
    auto expert = ParseSimpleToken(token);
    if (!expert.ok()) {
      return Status::InvalidArgument("adaptive spec '" + spec + "': " +
                                     std::string(expert.status().message()));
    }
    if (expert->kind == PolicyKind::kA0 ||
        expert->kind == PolicyKind::kBelady) {
      return Status::InvalidArgument(
          "adaptive spec '" + spec + "': expert '" + token +
          "' needs oracle context (A0/Belady cannot be ghost-simulated)");
    }
    // Canonical duplicate check: "2q" and "twoq" are the same expert.
    std::string canonical =
        std::to_string(static_cast<int>(expert->kind)) + "/" +
        std::to_string(expert->lru_k.k) + "/" +
        std::to_string(expert->lrd.aging_interval);
    if (std::find(seen.begin(), seen.end(), canonical) != seen.end()) {
      return Status::InvalidArgument("adaptive spec '" + spec +
                                     "': duplicate expert '" + token + "'");
    }
    seen.push_back(canonical);
    config.adaptive.experts.push_back(std::move(*expert));
    config.adaptive.expert_names.push_back(token);
  }
  return config;
}

std::optional<PolicyConfig> ParsePolicyName(const std::string& name) {
  auto parsed = ParsePolicySpec(name);
  if (!parsed.ok()) return std::nullopt;
  return std::move(*parsed);
}

}  // namespace lruk
