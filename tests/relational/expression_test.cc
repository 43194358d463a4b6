#include "relational/expression.h"

#include <gtest/gtest.h>

#include "common/logging.h"
#include "relational/sql_parser.h"

namespace bigdawg::relational {
namespace {

Schema TestSchema() {
  return Schema({Field("i", DataType::kInt64), Field("d", DataType::kDouble),
                 Field("s", DataType::kString), Field("b", DataType::kBool)});
}

Row TestRow() { return {Value(6), Value(2.5), Value("hello"), Value(true)}; }

Value EvalOn(const std::string& text, const Schema& schema, const Row& row) {
  ExprPtr e = *ParseExpression(text);
  BIGDAWG_CHECK_OK(e->Bind(schema));
  return *e->Eval(row);
}

TEST(ExpressionTest, ArithmeticIntAndDouble) {
  Schema s = TestSchema();
  Row r = TestRow();
  EXPECT_EQ(EvalOn("i + 2", s, r), Value(8));
  EXPECT_EQ(EvalOn("i - 10", s, r), Value(-4));
  EXPECT_EQ(EvalOn("i * i", s, r), Value(36));
  EXPECT_EQ(EvalOn("i / 4", s, r), Value(1.5));  // division is double
  EXPECT_EQ(EvalOn("i % 4", s, r), Value(2));
  EXPECT_EQ(EvalOn("d * 2", s, r), Value(5.0));
  EXPECT_EQ(EvalOn("i + d", s, r), Value(8.5));
}

TEST(ExpressionTest, StringConcatAndFunctions) {
  Schema s = TestSchema();
  Row r = TestRow();
  EXPECT_EQ(EvalOn("s + ' world'", s, r), Value("hello world"));
  EXPECT_EQ(EvalOn("length(s)", s, r), Value(5));
  EXPECT_EQ(EvalOn("upper(s)", s, r), Value("HELLO"));
  EXPECT_EQ(EvalOn("lower('ABC')", s, r), Value("abc"));
  EXPECT_EQ(EvalOn("contains(s, 'ell')", s, r), Value(true));
  EXPECT_EQ(EvalOn("contains(s, 'xyz')", s, r), Value(false));
}

TEST(ExpressionTest, NumericFunctions) {
  Schema s = TestSchema();
  Row r = TestRow();
  EXPECT_EQ(EvalOn("abs(-4)", s, r), Value(4));
  EXPECT_EQ(EvalOn("abs(-4.5)", s, r), Value(4.5));
  EXPECT_EQ(EvalOn("sqrt(16)", s, r), Value(4.0));
  EXPECT_EQ(EvalOn("round(2.6)", s, r), Value(3.0));
  EXPECT_EQ(EvalOn("floor(2.6)", s, r), Value(2.0));
  EXPECT_EQ(EvalOn("ceil(2.1)", s, r), Value(3.0));
}

TEST(ExpressionTest, Comparisons) {
  Schema s = TestSchema();
  Row r = TestRow();
  EXPECT_EQ(EvalOn("i = 6", s, r), Value(true));
  EXPECT_EQ(EvalOn("i <> 6", s, r), Value(false));
  EXPECT_EQ(EvalOn("i < 7", s, r), Value(true));
  EXPECT_EQ(EvalOn("i >= 6", s, r), Value(true));
  EXPECT_EQ(EvalOn("d > 2", s, r), Value(true));     // cross-type numeric
  EXPECT_EQ(EvalOn("s = 'hello'", s, r), Value(true));
  EXPECT_EQ(EvalOn("s < 'z'", s, r), Value(true));
}

TEST(ExpressionTest, BooleanLogicWithNulls) {
  Schema schema({Field("x", DataType::kBool)});
  Row null_row = {Value::Null()};
  Row true_row = {Value(true)};

  // Short-circuit results with NULL operands (three-valued logic).
  EXPECT_EQ(EvalOn("x AND false", schema, null_row), Value(false));
  EXPECT_EQ(EvalOn("x OR true", schema, null_row), Value(true));
  EXPECT_TRUE(EvalOn("x AND true", schema, null_row).is_null());
  EXPECT_TRUE(EvalOn("x OR false", schema, null_row).is_null());
  EXPECT_EQ(EvalOn("x AND true", schema, true_row), Value(true));
  EXPECT_EQ(EvalOn("NOT x", schema, true_row), Value(false));
  EXPECT_TRUE(EvalOn("NOT x", schema, null_row).is_null());
}

TEST(ExpressionTest, NullPropagatesThroughArithmetic) {
  Schema schema({Field("x", DataType::kInt64)});
  Row r = {Value::Null()};
  EXPECT_TRUE(EvalOn("x + 1", schema, r).is_null());
  EXPECT_TRUE(EvalOn("x = 0", schema, r).is_null());
  EXPECT_EQ(EvalOn("coalesce(x, 9)", schema, r), Value(9));
}

TEST(ExpressionTest, IsNullNeverYieldsNull) {
  Schema schema({Field("x", DataType::kInt64)});
  Row null_row = {Value::Null()};
  Row one = {Value(1)};
  EXPECT_EQ(EvalOn("x IS NULL", schema, null_row), Value(true));
  EXPECT_EQ(EvalOn("x IS NULL", schema, one), Value(false));
  EXPECT_EQ(EvalOn("x + 1 IS NOT NULL", schema, null_row), Value(false));
  EXPECT_EQ(EvalOn("(x = 1) IS NULL", schema, null_row), Value(true));
  EXPECT_EQ((*ParseExpression("x IS NULL"))->ToString(), "(x IS NULL)");
  EXPECT_FALSE(ParseExpression("x IS 1").ok());
}

TEST(ExpressionTest, DivisionAndModuloByZero) {
  Schema s = TestSchema();
  ExprPtr e = *ParseExpression("i / 0");
  BIGDAWG_CHECK_OK(e->Bind(s));
  EXPECT_TRUE(e->Eval(TestRow()).status().IsInvalidArgument());
  e = *ParseExpression("i % 0");
  BIGDAWG_CHECK_OK(e->Bind(s));
  EXPECT_TRUE(e->Eval(TestRow()).status().IsInvalidArgument());
}

TEST(ExpressionTest, BindFailsOnUnknownColumn) {
  ExprPtr e = *ParseExpression("missing + 1");
  EXPECT_TRUE(e->Bind(TestSchema()).IsNotFound());
}

TEST(ExpressionTest, BindFailsOnUnknownFunction) {
  ExprPtr e = *ParseExpression("frobnicate(i)");
  EXPECT_TRUE(e->Bind(TestSchema()).IsNotImplemented());
}

TEST(ExpressionTest, OutputTypesAfterBind) {
  Schema s = TestSchema();
  auto type_of = [&](const std::string& text) {
    ExprPtr e = *ParseExpression(text);
    BIGDAWG_CHECK_OK(e->Bind(s));
    return e->output_type();
  };
  EXPECT_EQ(type_of("i + 1"), DataType::kInt64);
  EXPECT_EQ(type_of("i + d"), DataType::kDouble);
  EXPECT_EQ(type_of("i / 2"), DataType::kDouble);
  EXPECT_EQ(type_of("i = 1"), DataType::kBool);
  EXPECT_EQ(type_of("s + s"), DataType::kString);
  EXPECT_EQ(type_of("length(s)"), DataType::kInt64);
}

TEST(ExpressionTest, CloneIsDeepAndRebindable) {
  ExprPtr e = *ParseExpression("i * 2 + length(s)");
  ExprPtr clone = e->Clone();
  Schema s = TestSchema();
  BIGDAWG_CHECK_OK(clone->Bind(s));
  EXPECT_EQ(*clone->Eval(TestRow()), Value(17));
  // Original still unbound; binding it independently also works.
  BIGDAWG_CHECK_OK(e->Bind(s));
  EXPECT_EQ(*e->Eval(TestRow()), Value(17));
}

struct LikeCase {
  const char* text;
  const char* pattern;
  bool expected;
};

// gtest_discover_tests names each case after its printed parameter; without
// this the name would be the struct's raw bytes, i.e. the (ASLR-randomised)
// addresses of the string literals, and change on every build.
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << '\'' << c.text << "' LIKE '" << c.pattern << '\'';
}

class LikeMatchSweep : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchSweep, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.text, c.pattern), c.expected)
      << c.text << " LIKE " << c.pattern;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LikeMatchSweep,
    ::testing::Values(LikeCase{"hello", "hello", true},
                      LikeCase{"hello", "h%", true},
                      LikeCase{"hello", "%o", true},
                      LikeCase{"hello", "%ell%", true},
                      LikeCase{"hello", "h_llo", true},
                      LikeCase{"hello", "h__lo", true},
                      LikeCase{"hello", "h_o", false},
                      LikeCase{"hello", "", false},
                      LikeCase{"", "%", true},
                      LikeCase{"", "", true},
                      LikeCase{"abc", "%b%", true},
                      LikeCase{"abc", "%d%", false},
                      LikeCase{"aaa", "a%a", true},
                      LikeCase{"very sick patient", "%very sick%", true}));

}  // namespace
}  // namespace bigdawg::relational
