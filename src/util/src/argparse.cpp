#include "greedcolor/util/argparse.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace gcol {

ArgParser::ArgParser(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(std::move(token));
      continue;
    }
    std::string key = token.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    options_[key] = value;
  }
}

bool ArgParser::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  return std::stoll(it->second);
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  return std::stod(it->second);
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  if (it->second.empty()) return true;  // bare --flag
  return it->second == "1" || it->second == "true" || it->second == "yes" ||
         it->second == "on";
}

std::vector<std::string> ArgParser::unknown_options(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, _] : options_) {
    if (std::find(known.begin(), known.end(), key) == known.end())
      unknown.push_back(key);
  }
  return unknown;
}

}  // namespace gcol
