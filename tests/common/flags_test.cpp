#include "src/common/flags.h"

#include <gtest/gtest.h>

namespace gg {
namespace {

TEST(Flags, EqualsSyntax) {
  Flags f({"--workload=kmeans", "--ratio=0.15"});
  EXPECT_EQ(f.get_string("workload"), "kmeans");
  EXPECT_DOUBLE_EQ(f.get_double("ratio", 0.0), 0.15);
}

TEST(Flags, SpaceSyntax) {
  Flags f({"--workload", "kmeans", "--iterations", "40"});
  EXPECT_EQ(f.get_string("workload"), "kmeans");
  EXPECT_EQ(f.get_int("iterations", 0), 40);
}

TEST(Flags, BareBooleans) {
  Flags f({"--csv", "--verbose"});
  EXPECT_TRUE(f.get_bool("csv", false));
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.get_bool("absent", false));
  EXPECT_TRUE(f.get_bool("absent2", true));
}

TEST(Flags, BooleanValues) {
  Flags f({"--a=1", "--b=false", "--c=YES", "--d=off"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
}

TEST(Flags, BadBooleanThrows) {
  Flags f({"--a=maybe"});
  EXPECT_THROW((void)f.get_bool("a", false), std::invalid_argument);
}

TEST(Flags, Positional) {
  // Note: a non-flag token right after `--key` binds as its value (space
  // syntax), so positionals must precede flags or follow a `--k=v` form.
  Flags f({"run", "--csv", "--x=1", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "run");
  EXPECT_EQ(f.positional()[1], "extra");
  EXPECT_TRUE(f.get_bool("csv", false));  // followed by a flag: bare boolean
}

TEST(Flags, NumbersValidated) {
  Flags f({"--x=3.5abc", "--y=12"});
  EXPECT_THROW((void)f.get_double("x", 0.0), std::invalid_argument);
  EXPECT_EQ(f.get_int("y", 0), 12);
  EXPECT_THROW((void)f.get_int("x", 0), std::invalid_argument);
}

TEST(Flags, NegativeNumbers) {
  Flags f({"--x=-2.5", "--n=-7"});
  EXPECT_DOUBLE_EQ(f.get_double("x", 0.0), -2.5);
  EXPECT_EQ(f.get_int("n", 0), -7);
}

TEST(Flags, MissingReturnsFallback) {
  Flags f({});
  EXPECT_EQ(f.get_string("absent", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(f.get_double("absent", 2.0), 2.0);
}

TEST(Flags, StringRequiredForBareFlag) {
  Flags f({"--trace"});
  EXPECT_THROW(f.get_string("trace"), std::invalid_argument);
}

TEST(Flags, UnconsumedDetectsTypos) {
  Flags f({"--workload=kmeans", "--worklaod=typo"});
  (void)f.get_string("workload");
  const auto leftover = f.unconsumed();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "worklaod");
}

TEST(Flags, HasMarksConsumed) {
  Flags f({"--a=1"});
  EXPECT_TRUE(f.has("a"));
  EXPECT_TRUE(f.unconsumed().empty());
}

TEST(Flags, MalformedThrows) {
  EXPECT_THROW(Flags({"--"}), std::invalid_argument);
  EXPECT_THROW(Flags({"--=v"}), std::invalid_argument);
}

TEST(Flags, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"prog", "--x=1"};
  Flags f(2, argv);
  EXPECT_EQ(f.get_int("x", 0), 1);
}

TEST(Flags, LastValueWins) {
  Flags f({"--x=1", "--x=2"});
  EXPECT_EQ(f.get_int("x", 0), 2);
}

TEST(Flags, RejectUnknownPassesWhenEverythingIsConsumed) {
  Flags f({"--workload=kmeans", "--csv"});
  (void)f.get_string("workload");
  (void)f.get_bool("csv", false);
  EXPECT_NO_THROW(f.reject_unknown());
}

TEST(Flags, RejectUnknownNamesEveryStrayFlag) {
  Flags f({"--workload=kmeans", "--worklaod=typo", "--frob"});
  (void)f.get_string("workload");
  try {
    f.reject_unknown();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("unknown flag:", 0), 0u) << what;
    EXPECT_NE(what.find("--worklaod"), std::string::npos) << what;
    EXPECT_NE(what.find("--frob"), std::string::npos) << what;
    EXPECT_EQ(what.find("--workload="), std::string::npos) << what;
  }
}

TEST(Flags, RejectUnknownIgnoresPositionals) {
  Flags f({"trace.csv", "--csv"});
  (void)f.get_bool("csv", false);
  EXPECT_NO_THROW(f.reject_unknown());
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "trace.csv");
}

}  // namespace
}  // namespace gg
