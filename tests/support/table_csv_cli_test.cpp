// Tests for the table/CSV/CLI helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <fstream>
#include <sstream>

#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

namespace rbs {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable t;
  t.set_header({"a", "longer"});
  t.add_row({"xxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a     longer"), std::string::npos);
  EXPECT_NE(out.find("xxxx  1"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTableTest, NumFormatting) {
  EXPECT_EQ(TextTable::num(1.23456, 3), "1.235");
  EXPECT_EQ(TextTable::num(std::numeric_limits<double>::infinity(), 2), "inf");
  EXPECT_EQ(TextTable::num(std::nan(""), 2), "n/a");
  EXPECT_EQ(TextTable::num(42LL), "42");
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable t;
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os);  // must not crash; row padded
  EXPECT_EQ(os.str(), "a  b  c\n-------\n1      \n");
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, WritesRowsToFile) {
  const std::string path = testing::TempDir() + "/rbs_csv_test.csv";
  {
    CsvWriter w(path);
    ASSERT_TRUE(w.ok());
    w.write_row({"x", "y"});
    w.write_row_numeric({1.5, 2.5});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "x,y");
  EXPECT_EQ(line2, "1.5,2.5");
  std::remove(path.c_str());
}

TEST(CsvTest, BadPathReportsNotOk) {
  CsvWriter w("/nonexistent_dir_zzz/file.csv");
  EXPECT_FALSE(w.ok());
  w.write_row({"ignored"});  // must not crash
}

TEST(CliTest, ParsesFlagFormats) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=0.5", "--gamma", "pos", "--flag"};
  const CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(args.get_double("beta", 0.0), 0.5);
  EXPECT_EQ(args.get_string("gamma", ""), "pos");
  EXPECT_TRUE(args.get_bool("flag"));
  EXPECT_FALSE(args.get_bool("missing"));
  EXPECT_EQ(args.get_int("missing", 9), 9);
}

TEST(CliTest, PositionalArguments) {
  // A positional argument is skipped: it names no flag, and check_flags
  // does not see it.
  const char* argv[] = {"prog", "one", "--k", "v", "two"};
  const CliArgs args(5, argv);
  EXPECT_EQ(args.get_string("k", ""), "v");
  EXPECT_FALSE(args.has("one"));
  EXPECT_FALSE(args.has("two"));
  EXPECT_TRUE(args.check_flags({"k"}).is_ok());
}

TEST(CliTest, BooleanValueSpellings) {
  const char* argv[] = {"prog", "--a=1", "--b=true", "--c=no", "--d=off"};
  const CliArgs args(5, argv);
  EXPECT_TRUE(args.get_bool("a"));
  EXPECT_TRUE(args.get_bool("b"));
  EXPECT_FALSE(args.get_bool("c"));
  EXPECT_FALSE(args.get_bool("d"));
}

TEST(CliTest, FlagNamesListed) {
  // Both parsed flags are listed: naming both passes the check, and
  // leaving either out names it.
  const char* argv[] = {"prog", "--one", "--two=2"};
  const CliArgs args(3, argv);
  EXPECT_TRUE(args.check_flags({"one", "two"}).is_ok());
  EXPECT_EQ(args.check_flags({"one"}).message(), "unknown flag --two");
  EXPECT_EQ(args.check_flags({"two", "three"}).message(), "unknown flag --one");
}

TEST(CliTest, UnknownFlagsRejected) {
  // Positional arguments are not flags; a flag given as --name=value or as
  // a boolean is checked by its name alone.
  const char* argv[] = {"prog", "pos", "--seed", "3", "--bogus-flag", "--x=1"};
  const CliArgs args(6, argv);
  EXPECT_TRUE(args.check_flags({"seed", "bogus-flag", "x"}).is_ok());
  const Status status = args.check_flags({"seed", "x"});
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.message(), "unknown flag --bogus-flag");
  EXPECT_FALSE(CliArgs(6, argv).check_flags({}).is_ok());
  const char* none[] = {"prog", "positional"};
  EXPECT_TRUE(CliArgs(2, none).check_flags({}).is_ok());
}

}  // namespace
}  // namespace rbs
