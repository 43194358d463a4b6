// Differential oracles for the ARRAY island's grouped aggregate and box
// reads. AggregateBy folds each group in a slot reused while the kept
// coordinate repeats; Subarray hands Scan a box that drops chunks missing
// it. The references below are the plain algorithms: a std::map lookup
// per cell, and a full scan that tests every cell against the box. Every
// double must match bit for bit (NaN, -0.0 included) over seeded random
// arrays with negative starts, partial edge chunks and a sparse
// dimension of extent 2^40.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "array/array.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/rng.h"

namespace bigdawg::array {
namespace {

// ---------------------------------------------------------------------------
// Reference algorithms
// ---------------------------------------------------------------------------

struct RefAggState {
  int64_t count = 0;
  double sum = 0;
  double sumsq = 0;
  double min = 0;
  double max = 0;

  void Update(double v) {
    if (count == 0) {
      min = max = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    ++count;
    sum += v;
    sumsq += v * v;
  }

  double Finalize(AggFunc f) const {
    switch (f) {
      case AggFunc::kCount:
        return static_cast<double>(count);
      case AggFunc::kSum:
        return sum;
      case AggFunc::kAvg:
        return sum / static_cast<double>(count);
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
      case AggFunc::kStdev: {
        double mean = sum / static_cast<double>(count);
        double var = sumsq / static_cast<double>(count) - mean * mean;
        return std::sqrt(std::max(0.0, var));
      }
    }
    return 0;
  }
};

std::vector<std::pair<int64_t, double>> RefAggregateBy(const Array& a, AggFunc func,
                                                       size_t attr, size_t keep_dim) {
  std::map<int64_t, RefAggState> groups;
  a.Scan([&](const Coordinates& coords, const std::vector<double>& values) {
    groups[coords[keep_dim]].Update(values[attr]);
    return true;
  });
  std::vector<std::pair<int64_t, double>> out;
  for (const auto& [coord, state] : groups) out.emplace_back(coord, state.Finalize(func));
  return out;
}

Result<Array> RefSubarray(const Array& a, const Coordinates& lo, const Coordinates& hi) {
  const std::vector<Dimension>& ds = a.dims();
  if (lo.size() != ds.size() || hi.size() != ds.size()) {
    return Status::InvalidArgument("subarray bounds must match dimensionality");
  }
  std::vector<Dimension> new_dims = ds;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (lo[i] > hi[i]) return Status::InvalidArgument("lo > hi");
    new_dims[i].start = std::max(lo[i], ds[i].start);
    new_dims[i].length = std::max<int64_t>(
        0, std::min(hi[i], ds[i].start + ds[i].length - 1) - new_dims[i].start + 1);
    if (new_dims[i].length == 0) return Status::InvalidArgument("empty subarray");
  }
  BIGDAWG_ASSIGN_OR_RETURN(Array out, Array::Create(new_dims, a.attrs()));
  a.Scan([&](const Coordinates& coords, const std::vector<double>& values) {
    for (size_t i = 0; i < coords.size(); ++i) {
      if (coords[i] < new_dims[i].start ||
          coords[i] >= new_dims[i].start + new_dims[i].length) {
        return true;
      }
    }
    BIGDAWG_CHECK_OK(out.Set(coords, values));
    return true;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Rendering (bit-exact) and random arrays
// ---------------------------------------------------------------------------

std::string Bits(double v) { return std::to_string(std::bit_cast<uint64_t>(v)); }

std::string Render(const std::vector<std::pair<int64_t, double>>& groups) {
  std::ostringstream out;
  for (const auto& [coord, v] : groups) out << coord << '=' << Bits(v) << ' ';
  return out.str();
}

std::string RenderCells(const Array& a) {
  std::ostringstream out;
  for (const Dimension& d : a.dims()) {
    out << d.name << '[' << d.start << '+' << d.length << '/' << d.chunk_length << "] ";
  }
  out << a.NonEmptyCount() << " cells in " << a.NumChunks() << " chunks:";
  a.Scan([&out](const Coordinates& coords, const std::vector<double>& values) {
    out << " (";
    for (int64_t c : coords) out << c << ',';
    for (double v : values) out << Bits(v) << ',';
    out << ')';
    return true;
  });
  return out.str();
}

double RandomValue(Rng* rng) {
  switch (rng->NextBelow(10)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return -0.0;
    case 2:
      return 0.0;
    case 3:
      return -std::numeric_limits<double>::infinity();
    default:
      return rng->NextDouble(-1e6, 1e6);
  }
}

/// 1-3 dimensions with negative or positive starts and chunk lengths
/// that rarely divide the length (partial edge chunks).
Array RandomDenseArray(Rng* rng) {
  std::vector<Dimension> dims;
  const int64_t nd = rng->NextInt(1, 3);
  for (int64_t i = 0; i < nd; ++i) {
    dims.emplace_back("d" + std::to_string(i), rng->NextInt(-40, 40), rng->NextInt(1, 30),
                      rng->NextInt(1, 9));
  }
  std::vector<std::string> attrs = {"x"};
  if (rng->NextBelow(2) == 0) attrs.push_back("y");
  Array a = *Array::Create(dims, attrs);
  const int64_t cells = a.LogicalSize();
  const uint64_t fill = 1 + rng->NextBelow(4);  // keep ~1/fill of the cells
  for (int64_t n = 0; n < cells; ++n) {
    if (rng->NextBelow(fill) != 0) continue;
    Coordinates coords(dims.size());
    int64_t rem = n;
    for (size_t i = dims.size(); i-- > 0;) {
      coords[i] = dims[i].start + rem % dims[i].length;
      rem /= dims[i].length;
    }
    std::vector<double> values;
    for (size_t k = 0; k < attrs.size(); ++k) values.push_back(RandomValue(rng));
    BIGDAWG_CHECK_OK(a.Set(coords, values));
  }
  return a;
}

/// A 2-D array whose first dimension spans 2^40 coordinates from a
/// negative start, with a few hundred scattered cells.
Array RandomSparseArray(Rng* rng) {
  constexpr int64_t kExtent = int64_t{1} << 40;
  Array a = *Array::Create(
      {Dimension("ts", -(kExtent / 2), kExtent, 16), Dimension("lead", 0, 5, 3)}, {"mv"});
  for (int n = 0; n < 300; ++n) {
    // Clustered: a few hot regions plus uniform stragglers.
    const int64_t center = (n % 4 == 0) ? 0 : static_cast<int64_t>(rng->NextBelow(4)) * (kExtent / 5);
    const int64_t spread = (n % 4 == 0) ? kExtent - 1 : 200;
    const int64_t ts = -(kExtent / 2) + (center + static_cast<int64_t>(rng->NextBelow(
                                                      static_cast<uint64_t>(spread)))) % kExtent;
    BIGDAWG_CHECK_OK(a.Set({ts, rng->NextInt(0, 4)}, {RandomValue(rng)}));
  }
  return a;
}

constexpr AggFunc kFuncs[] = {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                              AggFunc::kMin,   AggFunc::kMax, AggFunc::kStdev};

void ExpectAggregatesMatch(const Array& a) {
  for (size_t attr = 0; attr < a.num_attrs(); ++attr) {
    for (size_t dim = 0; dim < a.num_dims(); ++dim) {
      for (AggFunc f : kFuncs) {
        SCOPED_TRACE(std::string(AggFuncToString(f)) + " attr " + std::to_string(attr) +
                     " by dim " + std::to_string(dim));
        Result<std::vector<std::pair<int64_t, double>>> got = a.AggregateBy(f, attr, dim);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(Render(*got), Render(RefAggregateBy(a, f, attr, dim)));
      }
    }
  }
}

/// A box around the array: inside it, cutting its edges, a single cell,
/// or wholly outside it on one dimension.
void RandomBox(const Array& a, Rng* rng, Coordinates* lo, Coordinates* hi) {
  lo->clear();
  hi->clear();
  const uint64_t shape = rng->NextBelow(6);
  for (const Dimension& d : a.dims()) {
    const int64_t margin = std::min<int64_t>(d.length, 12);
    int64_t l = d.start - margin + static_cast<int64_t>(
                                       rng->NextBelow(static_cast<uint64_t>(d.length + 2 * margin)));
    int64_t h = l + static_cast<int64_t>(rng->NextBelow(static_cast<uint64_t>(d.length) + 1));
    if (shape == 0) h = l;                                   // single cell (if inside)
    if (shape == 1 && rng->NextBelow(2) == 0) h = l - 1;     // lo > hi
    if (shape == 2) l = h = d.start + d.length + 3;          // past the end
    lo->push_back(l);
    hi->push_back(h);
  }
}

void ExpectSubarraysMatch(const Array& a, Rng* rng, int boxes) {
  Coordinates lo;
  Coordinates hi;
  for (int b = 0; b < boxes; ++b) {
    RandomBox(a, rng, &lo, &hi);
    std::ostringstream box;
    for (size_t i = 0; i < lo.size(); ++i) box << '[' << lo[i] << ',' << hi[i] << ']';
    SCOPED_TRACE("box " + box.str());
    Result<Array> got = a.Subarray(lo, hi);
    Result<Array> want = RefSubarray(a, lo, hi);
    ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
    if (!got.ok()) {
      EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status().ToString();
      continue;
    }
    EXPECT_EQ(got->attrs(), want->attrs());
    EXPECT_EQ(RenderCells(*got), RenderCells(*want));
    // The boxed scan visits exactly the full scan's cells inside the box,
    // in the same order.
    std::vector<Coordinates> boxed;
    std::vector<Coordinates> filtered;
    const Box scan_box{lo, hi};
    a.Scan(
        [&boxed](const Coordinates& c, const std::vector<double>&) {
          boxed.push_back(c);
          return true;
        },
        &scan_box);
    a.Scan([&](const Coordinates& c, const std::vector<double>&) {
      for (size_t i = 0; i < c.size(); ++i) {
        if (c[i] < lo[i] || c[i] > hi[i]) return true;
      }
      filtered.push_back(c);
      return true;
    });
    EXPECT_EQ(boxed, filtered);
  }
}

class ArrayOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArrayOracleTest, AggregateByMatchesMapReference) {
  Rng rng(GetParam());
  for (int n = 0; n < 6; ++n) ExpectAggregatesMatch(RandomDenseArray(&rng));
  ExpectAggregatesMatch(RandomSparseArray(&rng));
}

TEST_P(ArrayOracleTest, SubarrayMatchesFullScanReference) {
  Rng rng(GetParam() + 100);
  for (int n = 0; n < 6; ++n) ExpectSubarraysMatch(RandomDenseArray(&rng), &rng, 25);
  ExpectSubarraysMatch(RandomSparseArray(&rng), &rng, 25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrayOracleTest, ::testing::Range<uint64_t>(1, 9));

TEST(ArrayOracleEdgeTest, SparseBoxesAndEmptyResults) {
  Rng rng(42);
  const Array a = RandomSparseArray(&rng);
  constexpr int64_t kHalf = int64_t{1} << 39;
  // The whole sparse extent, a box around the hot region at its start,
  // and one that (almost surely) holds no cell: a valid, empty subarray.
  for (const auto& [lo, hi] : std::vector<std::pair<Coordinates, Coordinates>>{
           {{-kHalf, 0}, {kHalf - 1, 4}},
           {{-kHalf, 1}, {-kHalf + 400, 3}},
           {{5, 0}, {6, 0}}}) {
    Result<Array> got = a.Subarray(lo, hi);
    Result<Array> want = RefSubarray(a, lo, hi);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(RenderCells(*got), RenderCells(*want));
  }
  // Wholly outside the array, and mismatched dimensionality.
  EXPECT_TRUE(a.Subarray({kHalf, 0}, {kHalf + 5, 4}).status().IsInvalidArgument());
  EXPECT_TRUE(a.Subarray({0}, {1}).status().IsInvalidArgument());
  // No cells: no groups.
  const Array empty = *Array::Create({Dimension("i", -5, 10, 3)}, {"v"});
  EXPECT_TRUE(empty.AggregateBy(AggFunc::kAvg, 0, 0)->empty());
}

}  // namespace
}  // namespace bigdawg::array
