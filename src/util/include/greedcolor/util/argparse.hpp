// A small command-line argument parser for the bench harnesses,
// examples, and tools. Supports `--flag`, `--key value`, `--key=value`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gcol {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

  /// True if `--name` was given (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional arguments (tokens not starting with `--`).
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Options that were supplied but never queried — typo detection.
  [[nodiscard]] std::vector<std::string> unknown_options(
      const std::vector<std::string>& known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace gcol
