#include "greedcolor/util/argparse.hpp"

#include <gtest/gtest.h>

namespace gcol {
namespace {

ArgParser parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return ArgParser(static_cast<int>(v.size()), v.data());
}

TEST(ArgParser, KeyValueSpaceForm) {
  const auto a = parse({"prog", "--threads", "8"});
  EXPECT_EQ(a.get_int("threads", 0), 8);
}

TEST(ArgParser, KeyValueEqualsForm) {
  const auto a = parse({"prog", "--threads=16"});
  EXPECT_EQ(a.get_int("threads", 0), 16);
}

TEST(ArgParser, BareFlag) {
  const auto a = parse({"prog", "--verify"});
  EXPECT_TRUE(a.has("verify"));
  EXPECT_TRUE(a.get_bool("verify", false));
  EXPECT_FALSE(a.has("other"));
}

TEST(ArgParser, BoolValues) {
  EXPECT_TRUE(parse({"p", "--x=true"}).get_bool("x", false));
  EXPECT_TRUE(parse({"p", "--x=1"}).get_bool("x", false));
  EXPECT_TRUE(parse({"p", "--x=on"}).get_bool("x", false));
  EXPECT_FALSE(parse({"p", "--x=false"}).get_bool("x", true));
  EXPECT_TRUE(parse({"p"}).get_bool("x", true));  // fallback
}

TEST(ArgParser, Fallbacks) {
  const auto a = parse({"prog"});
  EXPECT_EQ(a.get_int("n", 42), 42);
  EXPECT_EQ(a.get_string("s", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(a.get_double("d", 2.5), 2.5);
}

TEST(ArgParser, DoubleParsing) {
  const auto a = parse({"prog", "--alpha", "1.75"});
  EXPECT_DOUBLE_EQ(a.get_double("alpha", 0.0), 1.75);
}

TEST(ArgParser, Positional) {
  const auto a = parse({"prog", "input.mtx", "--algo", "V-V", "more"});
  EXPECT_EQ(a.positional(),
            (std::vector<std::string>{"input.mtx", "more"}));
  EXPECT_EQ(a.get_string("algo", ""), "V-V");
}

TEST(ArgParser, NegativeNumberIsValueNotOption) {
  const auto a = parse({"prog", "--offset", "-5"});
  // "-5" does not start with "--", so it is consumed as a value.
  EXPECT_EQ(a.get_int("offset", 0), -5);
}

TEST(ArgParser, UnknownOptionDetection) {
  const auto a = parse({"prog", "--thraeds", "4", "--algo", "V-V"});
  const auto unknown = a.unknown_options({"threads", "algo"});
  EXPECT_EQ(unknown, (std::vector<std::string>{"thraeds"}));
}

}  // namespace
}  // namespace gcol
