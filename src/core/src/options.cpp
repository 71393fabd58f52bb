#include "greedcolor/core/options.hpp"

#include <stdexcept>

namespace gcol {

std::string to_string(QueuePolicy q) {
  return q == QueuePolicy::kShared ? "shared" : "lazy";
}

std::string to_string(BalancePolicy b) {
  switch (b) {
    case BalancePolicy::kNone:
      return "U";
    case BalancePolicy::kB1:
      return "B1";
    case BalancePolicy::kB2:
      return "B2";
  }
  return "?";
}

void ColoringOptions::validate() const {
  if (net_color_rounds < 0)
    throw std::invalid_argument("net_color_rounds must be >= 0");
  if (net_conflict_rounds < -1)
    throw std::invalid_argument("net_conflict_rounds must be >= -1");
  if (net_conflict_rounds != -1 && net_conflict_rounds < net_color_rounds)
    throw std::invalid_argument(
        "net_conflict_rounds must cover net_color_rounds: a net-colored "
        "round leaves no explicit queue for vertex-based removal");
  if (chunk_size < 1) throw std::invalid_argument("chunk_size must be >= 1");
  if (num_threads < 0)
    throw std::invalid_argument("num_threads must be >= 0");
  if (max_rounds < 1) throw std::invalid_argument("max_rounds must be >= 1");
  if (deadline_seconds < 0.0)
    throw std::invalid_argument("deadline_seconds must be >= 0");
  if ((net_v1 || net_v1_reverse) && net_color_rounds == 0)
    throw std::invalid_argument("net_v1 requires net_color_rounds >= 1");
}

namespace {

ColoringOptions make_preset(const std::string& name) {
  ColoringOptions o;
  o.name = name;
  if (name == "V-V") {
    // ColPack's parallel BGPC: vertex kernels, default dynamic chunk,
    // shared immediate conflict queue.
    o.chunk_size = 1;
    o.queue = QueuePolicy::kShared;
  } else if (name == "V-V-64") {
    o.chunk_size = 64;
    o.queue = QueuePolicy::kShared;
  } else if (name == "V-V-64D") {
    o.chunk_size = 64;
    o.queue = QueuePolicy::kLazy;
  } else if (name == "V-Ninf" || name == "V-N∞") {
    o.name = "V-Ninf";
    o.chunk_size = 64;
    o.queue = QueuePolicy::kLazy;
    o.net_conflict_rounds = -1;
  } else if (name == "V-N1") {
    o.chunk_size = 64;
    o.queue = QueuePolicy::kLazy;
    o.net_conflict_rounds = 1;
  } else if (name == "V-N2") {
    o.chunk_size = 64;
    o.queue = QueuePolicy::kLazy;
    o.net_conflict_rounds = 2;
  } else if (name == "N1-N2") {
    o.chunk_size = 64;
    o.queue = QueuePolicy::kLazy;
    o.net_color_rounds = 1;
    o.net_conflict_rounds = 2;
  } else if (name == "N2-N2") {
    o.chunk_size = 64;
    o.queue = QueuePolicy::kLazy;
    o.net_color_rounds = 2;
    o.net_conflict_rounds = 2;
  } else {
    throw std::invalid_argument("unknown algorithm preset: " + name);
  }
  return o;
}

}  // namespace

ColoringOptions bgpc_preset(const std::string& name) {
  return make_preset(name);
}

const std::vector<std::string>& bgpc_preset_names() {
  static const std::vector<std::string> names = {
      "V-V", "V-V-64", "V-V-64D", "V-Ninf",
      "V-N1", "V-N2", "N1-N2", "N2-N2"};
  return names;
}

ColoringOptions d2gc_preset(const std::string& name) {
  if (name != "V-V" && name != "V-V-64D" && name != "V-N1" &&
      name != "V-N2" && name != "N1-N2")
    throw std::invalid_argument("unknown D2GC preset: " + name);
  return make_preset(name);
}

const std::vector<std::string>& d2gc_preset_names() {
  static const std::vector<std::string> names = {"V-V-64D", "V-N1", "V-N2",
                                                 "N1-N2"};
  return names;
}

}  // namespace gcol
