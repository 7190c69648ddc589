// Tiny command-line flag parser shared by benches and examples.
//
// Supports `--flag value`, `--flag=value` and boolean `--flag`.  Unknown
// flags are an error so typos in experiment scripts fail loudly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fcma {

/// Declarative CLI: register flags with defaults, then parse().
class Cli {
 public:
  /// `program` and `blurb` are used by the auto-generated --help text.
  Cli(std::string program, std::string blurb);

  /// Registers a string flag with a default value and help text.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parses argv.  Returns false if --help was requested (help printed).
  /// Throws fcma::Error on unknown flags or missing values.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  /// Numeric getters throw fcma::Error naming the flag when the value is
  /// empty, has trailing characters, or overflows the result type.
  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Renders the --help text.
  [[nodiscard]] std::string help() const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };

  std::string program_;
  std::string blurb_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace fcma
