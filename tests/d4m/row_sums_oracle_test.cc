// Differential oracle for the D4M island's ROWSUM. RowSums walks each
// row once and appends its sum at the end of the output map; the
// reference is the plain per-cell `out[row] +=` over ForEach. Sums must
// match bit for bit, and rows without a numeric value stay absent.

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "d4m/assoc_array.h"

namespace bigdawg::d4m {
namespace {

std::map<std::string, double> RefRowSums(const AssocArray& a) {
  std::map<std::string, double> out;
  a.ForEach([&out](const std::string& r, const std::string&, const Value& v) {
    Result<double> num = v.ToNumeric();
    if (num.ok()) out[r] += *num;
  });
  return out;
}

std::string Render(const std::map<std::string, double>& sums) {
  std::ostringstream out;
  for (const auto& [row, sum] : sums) out << row << '=' << std::bit_cast<uint64_t>(sum) << ' ';
  return out.str();
}

Value RandomValue(Rng* rng, bool numeric_row) {
  switch (rng->NextBelow(numeric_row ? 9 : 2)) {
    case 0:
      return Value("note");
    case 1:
      return Value(true);
    case 2:
      return Value(std::numeric_limits<double>::quiet_NaN());
    case 3:
      return Value(-0.0);
    case 4:
      return Value(static_cast<int64_t>(rng->NextInt(-1000, 1000)));
    default:
      return Value(rng->NextDouble(-1e3, 1e3));
  }
}

TEST(RowSumsOracleTest, MatchesPerCellReference) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    AssocArray a;
    const int64_t rows = rng.NextInt(0, 40);
    for (int64_t r = 0; r < rows; ++r) {
      // A quarter of the rows hold only strings and booleans.
      const bool numeric_row = rng.NextBelow(4) != 0;
      const int64_t cells = rng.NextInt(1, 12);
      for (int64_t c = 0; c < cells; ++c) {
        a.Set("r" + std::to_string(r), "c" + std::to_string(rng.NextBelow(30)),
              RandomValue(&rng, numeric_row));
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(Render(a.RowSums()), Render(RefRowSums(a)));
  }
}

TEST(RowSumsOracleTest, NonNumericRowsStayAbsent) {
  AssocArray a;
  a.Set("only_strings", "x", Value("a"));
  a.Set("only_strings", "y", Value(false));
  a.Set("mixed", "x", Value("b"));
  a.Set("mixed", "y", Value(int64_t{2}));
  a.Set("mixed", "z", Value(0.5));
  a.Set("negzero", "x", Value(-0.0));
  const std::map<std::string, double> sums = a.RowSums();
  EXPECT_EQ(sums.count("only_strings"), 0u);
  EXPECT_EQ(sums.at("mixed"), 2.5);
  EXPECT_EQ(Render(sums), Render(RefRowSums(a)));
  EXPECT_TRUE(AssocArray().RowSums().empty());
}

}  // namespace
}  // namespace bigdawg::d4m
