#include "array/array.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/macros.h"

namespace bigdawg::array {

Result<AggFunc> AggFuncFromString(const std::string& name) {
  if (name == "count") return AggFunc::kCount;
  if (name == "sum") return AggFunc::kSum;
  if (name == "avg") return AggFunc::kAvg;
  if (name == "min") return AggFunc::kMin;
  if (name == "max") return AggFunc::kMax;
  if (name == "stdev") return AggFunc::kStdev;
  return Status::InvalidArgument("unknown aggregate: " + name);
}

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kStdev:
      return "stdev";
  }
  return "?";
}

namespace {

/// Incremental aggregate accumulator shared by all aggregate entry points.
struct AggState {
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

  Result<double> Finalize(AggFunc f) const {
    switch (f) {
      case AggFunc::kCount:
        return static_cast<double>(count);
      case AggFunc::kSum:
        return sum;
      case AggFunc::kAvg:
        if (count == 0) return Status::FailedPrecondition("avg of empty array");
        return sum / static_cast<double>(count);
      case AggFunc::kMin:
        if (count == 0) return Status::FailedPrecondition("min of empty array");
        return min;
      case AggFunc::kMax:
        if (count == 0) return Status::FailedPrecondition("max of empty array");
        return max;
      case AggFunc::kStdev: {
        if (count == 0) return Status::FailedPrecondition("stdev of empty array");
        double mean = sum / static_cast<double>(count);
        double var = sumsq / static_cast<double>(count) - mean * mean;
        return std::sqrt(std::max(0.0, var));
      }
    }
    return Status::Internal("unhandled aggregate");
  }
};

}  // namespace

Result<Array> Array::Create(std::vector<Dimension> dims,
                            std::vector<std::string> attrs) {
  if (dims.empty()) return Status::InvalidArgument("array needs >= 1 dimension");
  if (attrs.empty()) return Status::InvalidArgument("array needs >= 1 attribute");
  for (const Dimension& d : dims) {
    if (d.length <= 0) {
      return Status::InvalidArgument("dimension '" + d.name +
                                     "' must have positive length");
    }
    if (d.chunk_length <= 0) {
      return Status::InvalidArgument("dimension '" + d.name +
                                     "' must have positive chunk length");
    }
  }
  for (size_t i = 0; i < attrs.size(); ++i) {
    for (size_t j = i + 1; j < attrs.size(); ++j) {
      if (attrs[i] == attrs[j]) {
        return Status::InvalidArgument("duplicate attribute: " + attrs[i]);
      }
    }
  }
  auto rep = std::make_shared<Rep>();
  rep->dims = std::move(dims);
  rep->attrs = std::move(attrs);
  Array a;
  a.rep_ = common::CowPtr<Rep>(std::move(rep));
  return a;
}

Array& Array::Thaw() {
  rep_.Mutable();
  return *this;
}

int64_t Array::ByteSize() const {
  const int64_t cells = static_cast<int64_t>(NumChunks()) * ChunkVolume();
  return cells * static_cast<int64_t>(num_attrs()) * 8 + cells / 8;
}

Result<size_t> Array::AttrIndex(const std::string& name) const {
  const std::vector<std::string>& attr_names = attrs();
  for (size_t i = 0; i < attr_names.size(); ++i) {
    if (attr_names[i] == name) return i;
  }
  return Status::NotFound("no attribute named " + name);
}

Result<size_t> Array::DimIndex(const std::string& name) const {
  const std::vector<Dimension>& ds = dims();
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds[i].name == name) return i;
  }
  return Status::NotFound("no dimension named " + name);
}

int64_t Array::LogicalSize() const {
  int64_t size = 1;
  for (const Dimension& d : dims()) size *= d.length;
  return size;
}

Status Array::CheckCoords(const Coordinates& coords) const {
  const std::vector<Dimension>& ds = dims();
  if (coords.size() != ds.size()) {
    return Status::InvalidArgument("expected " + std::to_string(ds.size()) +
                                   " coordinates, got " +
                                   std::to_string(coords.size()));
  }
  for (size_t i = 0; i < coords.size(); ++i) {
    if (coords[i] < ds[i].start ||
        coords[i] >= ds[i].start + ds[i].length) {
      return Status::OutOfRange("coordinate " + std::to_string(coords[i]) +
                                " outside dimension '" + ds[i].name + "' [" +
                                std::to_string(ds[i].start) + ", " +
                                std::to_string(ds[i].start + ds[i].length) +
                                ")");
    }
  }
  return Status::OK();
}

Coordinates Array::ChunkKeyFor(const Coordinates& coords) const {
  const std::vector<Dimension>& ds = dims();
  Coordinates key(coords.size());
  for (size_t i = 0; i < coords.size(); ++i) {
    key[i] = (coords[i] - ds[i].start) / ds[i].chunk_length;
  }
  return key;
}

size_t Array::OffsetInChunk(const Coordinates& coords, const Coordinates& key) const {
  const std::vector<Dimension>& ds = dims();
  size_t offset = 0;
  for (size_t i = 0; i < coords.size(); ++i) {
    int64_t within = (coords[i] - ds[i].start) - key[i] * ds[i].chunk_length;
    offset = offset * static_cast<size_t>(ds[i].chunk_length) +
             static_cast<size_t>(within);
  }
  return offset;
}

int64_t Array::ChunkVolume() const {
  int64_t v = 1;
  for (const Dimension& d : dims()) v *= d.chunk_length;
  return v;
}

Array::Chunk* Array::GetOrCreateChunk(Rep* rep, const Coordinates& key) {
  auto it = rep->chunks.find(key);
  if (it != rep->chunks.end()) return it->second.Mutable();
  auto chunk = std::make_shared<Chunk>();
  const size_t volume = static_cast<size_t>(ChunkVolume());
  chunk->attr_data.assign(rep->attrs.size(), std::vector<double>(volume, 0.0));
  chunk->filled.assign((volume + 63) / 64, 0);
  auto inserted =
      rep->chunks.emplace(key, common::CowPtr<Chunk>(std::move(chunk)));
  return inserted.first->second.Mutable();
}

Status Array::GrowDim(size_t dim, int64_t length) {
  if (dim >= num_dims()) return Status::OutOfRange("dimension index");
  if (length < dims()[dim].length) {
    return Status::InvalidArgument("dimension '" + dims()[dim].name +
                                   "' cannot shrink");
  }
  if (length > dims()[dim].length) rep_.Mutable()->dims[dim].length = length;
  return Status::OK();
}

Status Array::Set(const Coordinates& coords, const std::vector<double>& values) {
  BIGDAWG_RETURN_NOT_OK(CheckCoords(coords));
  if (values.size() != num_attrs()) {
    return Status::InvalidArgument("expected " + std::to_string(num_attrs()) +
                                   " attribute values, got " +
                                   std::to_string(values.size()));
  }
  Coordinates key = ChunkKeyFor(coords);
  size_t offset = OffsetInChunk(coords, key);
  Rep* rep = rep_.Mutable();
  Chunk* chunk = GetOrCreateChunk(rep, key);
  for (size_t a = 0; a < values.size(); ++a) chunk->attr_data[a][offset] = values[a];
  if (chunk->Fill(offset)) ++rep->non_empty;
  return Status::OK();
}

Status Array::SetAttr(const Coordinates& coords, size_t attr, double value) {
  BIGDAWG_RETURN_NOT_OK(CheckCoords(coords));
  if (attr >= num_attrs()) return Status::OutOfRange("attribute index");
  Coordinates key = ChunkKeyFor(coords);
  size_t offset = OffsetInChunk(coords, key);
  Rep* rep = rep_.Mutable();
  Chunk* chunk = GetOrCreateChunk(rep, key);
  chunk->attr_data[attr][offset] = value;
  if (chunk->Fill(offset)) ++rep->non_empty;
  return Status::OK();
}

Result<std::vector<double>> Array::Get(const Coordinates& coords) const {
  BIGDAWG_RETURN_NOT_OK(CheckCoords(coords));
  Coordinates key = ChunkKeyFor(coords);
  const Rep& rep = *rep_;
  auto it = rep.chunks.find(key);
  if (it == rep.chunks.end()) return Status::NotFound("empty cell");
  const Chunk& chunk = *it->second;
  size_t offset = OffsetInChunk(coords, key);
  if (!chunk.IsFilled(offset)) return Status::NotFound("empty cell");
  std::vector<double> out(num_attrs());
  for (size_t a = 0; a < out.size(); ++a) out[a] = chunk.attr_data[a][offset];
  return out;
}

void Array::Scan(const std::function<bool(const Coordinates&,
                                          const std::vector<double>&)>& fn,
                 const Box* box) const {
  const Rep& rep = *rep_;
  const std::vector<Dimension>& ds = rep.dims;
  const size_t nd = ds.size();
  // The visited box: the array's, narrowed by `box`.
  Coordinates lo(nd);
  Coordinates hi(nd);
  for (size_t i = 0; i < nd; ++i) {
    lo[i] = ds[i].start;
    hi[i] = ds[i].start + ds[i].length - 1;
    if (box != nullptr) {
      lo[i] = std::max(lo[i], box->lo[i]);
      hi[i] = std::min(hi[i], box->hi[i]);
    }
  }
  // The chunks meeting that box, in deterministic order (sorted keys). A
  // chunk wholly inside it needs no per-cell test; an edge chunk (a
  // partial chunk at the array's end, or one the box cuts) does.
  struct Visit {
    const Coordinates* key;
    const Chunk* chunk;
    bool inside;
  };
  std::vector<Visit> ordered;
  ordered.reserve(rep.chunks.size());
  for (const auto& [key, chunk] : rep.chunks) {
    bool meets = true;
    bool inside = true;
    for (size_t i = 0; i < nd && meets; ++i) {
      const int64_t first = ds[i].start + key[i] * ds[i].chunk_length;
      const int64_t last = first + ds[i].chunk_length - 1;
      meets = last >= lo[i] && first <= hi[i];
      inside = inside && first >= lo[i] && last <= hi[i];
    }
    if (meets) ordered.push_back({&key, chunk.get(), inside});
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Visit& a, const Visit& b) { return *a.key < *b.key; });

  const size_t volume = static_cast<size_t>(ChunkVolume());
  // Only a chunk's first `volume` bits are cells (the volume need not be
  // a multiple of 64): the last word's tail is masked off.
  const uint64_t tail_mask =
      volume % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (volume % 64)) - 1;
  std::vector<double> values(rep.attrs.size());
  Coordinates base(nd);
  Coordinates coords(nd);
  for (const Visit& visit : ordered) {
    const Chunk& chunk = *visit.chunk;
    for (size_t i = 0; i < nd; ++i) {
      base[i] = ds[i].start + (*visit.key)[i] * ds[i].chunk_length;
    }
    // Offsets ascend, so the coordinates (row-major within the chunk)
    // advance like an odometer from the chunk's first cell: add the step
    // to the last dimension and carry; only a carry divides.
    coords = base;
    size_t at = 0;
    const size_t words = chunk.filled.size();
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = chunk.filled[w];
      if (w + 1 == words) bits &= tail_mask;
      while (bits != 0) {
        const size_t offset = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        size_t carry = offset - at;
        at = offset;
        for (size_t i = nd; carry != 0 && i-- > 0;) {
          const size_t cl = static_cast<size_t>(ds[i].chunk_length);
          const size_t within = static_cast<size_t>(coords[i] - base[i]) + carry;
          if (within < cl) {
            coords[i] = base[i] + static_cast<int64_t>(within);
            carry = 0;
          } else {
            coords[i] = base[i] + static_cast<int64_t>(within % cl);
            carry = within / cl;
          }
        }
        if (!visit.inside) {
          bool in_box = true;
          for (size_t i = 0; i < nd; ++i) {
            in_box = in_box && coords[i] >= lo[i] && coords[i] <= hi[i];
          }
          if (!in_box) continue;
        }
        for (size_t a = 0; a < values.size(); ++a) values[a] = chunk.attr_data[a][offset];
        if (!fn(coords, values)) return;
      }
    }
  }
}

Result<Array> Array::Subarray(const Coordinates& lo, const Coordinates& hi) const {
  const std::vector<Dimension>& ds = dims();
  if (lo.size() != ds.size() || hi.size() != ds.size()) {
    return Status::InvalidArgument("subarray bounds must match dimensionality");
  }
  for (size_t i = 0; i < ds.size(); ++i) {
    if (lo[i] > hi[i]) {
      return Status::InvalidArgument("subarray lo > hi on dimension " +
                                     ds[i].name);
    }
  }
  std::vector<Dimension> new_dims = ds;
  for (size_t i = 0; i < ds.size(); ++i) {
    int64_t clamped_lo = std::max(lo[i], ds[i].start);
    int64_t clamped_hi = std::min(hi[i], ds[i].start + ds[i].length - 1);
    new_dims[i].start = clamped_lo;
    new_dims[i].length = std::max<int64_t>(0, clamped_hi - clamped_lo + 1);
    if (new_dims[i].length == 0) {
      return Status::InvalidArgument("empty subarray on dimension " + ds[i].name);
    }
  }
  BIGDAWG_ASSIGN_OR_RETURN(Array out, Create(new_dims, attrs()));
  const Box box{lo, hi};
  Status st = Status::OK();
  Scan(
      [&](const Coordinates& coords, const std::vector<double>& values) {
        st = out.Set(coords, values);
        return st.ok();
      },
      &box);
  BIGDAWG_RETURN_NOT_OK(st);
  return out;
}

Result<Array> Array::Filter(
    const std::function<bool(const std::vector<double>&)>& pred) const {
  BIGDAWG_ASSIGN_OR_RETURN(Array out, Create(dims(), attrs()));
  Status st = Status::OK();
  Scan([&](const Coordinates& coords, const std::vector<double>& values) {
    if (pred(values)) {
      st = out.Set(coords, values);
      return st.ok();
    }
    return true;
  });
  BIGDAWG_RETURN_NOT_OK(st);
  return out;
}

Result<Array> Array::Apply(
    const std::string& new_attr,
    const std::function<double(const std::vector<double>&)>& fn) const {
  std::vector<std::string> new_attrs = attrs();
  for (const std::string& a : new_attrs) {
    if (a == new_attr) {
      return Status::AlreadyExists("attribute already exists: " + new_attr);
    }
  }
  new_attrs.push_back(new_attr);
  BIGDAWG_ASSIGN_OR_RETURN(Array out, Create(dims(), std::move(new_attrs)));
  Status st = Status::OK();
  Scan([&](const Coordinates& coords, const std::vector<double>& values) {
    std::vector<double> extended = values;
    extended.push_back(fn(values));
    st = out.Set(coords, extended);
    return st.ok();
  });
  BIGDAWG_RETURN_NOT_OK(st);
  return out;
}

Result<Array> Array::ProjectAttrs(const std::vector<std::string>& attrs) const {
  if (attrs.empty()) return Status::InvalidArgument("project needs >= 1 attribute");
  std::vector<size_t> indices;
  for (const std::string& a : attrs) {
    BIGDAWG_ASSIGN_OR_RETURN(size_t idx, AttrIndex(a));
    indices.push_back(idx);
  }
  BIGDAWG_ASSIGN_OR_RETURN(Array out, Create(dims(), attrs));
  Status st = Status::OK();
  Scan([&](const Coordinates& coords, const std::vector<double>& values) {
    std::vector<double> projected;
    projected.reserve(indices.size());
    for (size_t idx : indices) projected.push_back(values[idx]);
    st = out.Set(coords, projected);
    return st.ok();
  });
  BIGDAWG_RETURN_NOT_OK(st);
  return out;
}

Result<double> Array::Aggregate(AggFunc func, size_t attr) const {
  if (attr >= num_attrs()) return Status::OutOfRange("attribute index");
  AggState state;
  Scan([&](const Coordinates&, const std::vector<double>& values) {
    state.Update(values[attr]);
    return true;
  });
  return state.Finalize(func);
}

Result<std::vector<std::pair<int64_t, double>>> Array::AggregateBy(
    AggFunc func, size_t attr, size_t keep_dim) const {
  if (attr >= num_attrs()) return Status::OutOfRange("attribute index");
  if (keep_dim >= num_dims()) return Status::OutOfRange("dimension index");
  // One slot per group, in first-seen order, each folding its cells in
  // scan order. A cell whose kept coordinate repeats the previous cell's
  // (the common case: chunks keep cells of one coordinate together)
  // reuses that slot; any other looks its slot up by hash.
  std::vector<std::pair<int64_t, AggState>> groups;
  std::unordered_map<int64_t, size_t> slot_of;
  size_t slot = 0;
  Scan([&](const Coordinates& coords, const std::vector<double>& values) {
    const int64_t coord = coords[keep_dim];
    if (groups.empty() || groups[slot].first != coord) {
      auto [it, inserted] = slot_of.try_emplace(coord, groups.size());
      if (inserted) groups.emplace_back(coord, AggState{});
      slot = it->second;
    }
    groups[slot].second.Update(values[attr]);
    return true;
  });
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<int64_t, double>> out;
  out.reserve(groups.size());
  for (const auto& [coord, state] : groups) {
    BIGDAWG_ASSIGN_OR_RETURN(double v, state.Finalize(func));
    out.emplace_back(coord, v);
  }
  return out;
}

Result<Array> Array::WindowAggregate(AggFunc func, size_t attr,
                                     int64_t radius) const {
  if (num_dims() != 1) {
    return Status::FailedPrecondition("window aggregate requires a 1-D array");
  }
  if (attr >= num_attrs()) return Status::OutOfRange("attribute index");
  if (radius < 0) return Status::InvalidArgument("radius must be >= 0");
  BIGDAWG_ASSIGN_OR_RETURN(std::vector<double> data, ToVector(attr));
  const Dimension& d = dims()[0];
  BIGDAWG_ASSIGN_OR_RETURN(
      Array out, Create({Dimension(d.name, d.start, d.length, d.chunk_length)},
                        {std::string(AggFuncToString(func)) + "_" + attrs()[attr]}));
  const int64_t n = d.length;
  for (int64_t i = 0; i < n; ++i) {
    AggState state;
    for (int64_t j = std::max<int64_t>(0, i - radius);
         j <= std::min(n - 1, i + radius); ++j) {
      state.Update(data[static_cast<size_t>(j)]);
    }
    BIGDAWG_ASSIGN_OR_RETURN(double v, state.Finalize(func));
    BIGDAWG_RETURN_NOT_OK(out.Set({d.start + i}, {v}));
  }
  return out;
}

Result<std::vector<std::vector<double>>> Array::ToMatrix(size_t attr) const {
  if (num_dims() != 2) {
    return Status::FailedPrecondition("ToMatrix requires a 2-D array");
  }
  if (attr >= num_attrs()) return Status::OutOfRange("attribute index");
  const std::vector<Dimension>& ds = dims();
  std::vector<std::vector<double>> m(
      static_cast<size_t>(ds[0].length),
      std::vector<double>(static_cast<size_t>(ds[1].length), 0.0));
  Scan([&](const Coordinates& coords, const std::vector<double>& values) {
    m[static_cast<size_t>(coords[0] - ds[0].start)]
     [static_cast<size_t>(coords[1] - ds[1].start)] = values[attr];
    return true;
  });
  return m;
}

Result<std::vector<double>> Array::ToVector(size_t attr) const {
  if (num_dims() != 1) {
    return Status::FailedPrecondition("ToVector requires a 1-D array");
  }
  if (attr >= num_attrs()) return Status::OutOfRange("attribute index");
  const Dimension& d = dims()[0];
  std::vector<double> v(static_cast<size_t>(d.length), 0.0);
  Scan([&](const Coordinates& coords, const std::vector<double>& values) {
    v[static_cast<size_t>(coords[0] - d.start)] = values[attr];
    return true;
  });
  return v;
}

Result<Array> Array::FromVector(const std::vector<double>& data,
                                const std::string& attr) {
  if (data.empty()) return Status::InvalidArgument("empty vector");
  BIGDAWG_ASSIGN_OR_RETURN(
      Array out,
      Create({Dimension("i", 0, static_cast<int64_t>(data.size()), 1024)}, {attr}));
  for (size_t i = 0; i < data.size(); ++i) {
    BIGDAWG_RETURN_NOT_OK(out.Set({static_cast<int64_t>(i)}, {data[i]}));
  }
  return out;
}

Result<Array> Array::FromMatrix(const std::vector<std::vector<double>>& m,
                                const std::string& attr) {
  if (m.empty() || m[0].empty()) return Status::InvalidArgument("empty matrix");
  const int64_t rows = static_cast<int64_t>(m.size());
  const int64_t cols = static_cast<int64_t>(m[0].size());
  for (const auto& row : m) {
    if (static_cast<int64_t>(row.size()) != cols) {
      return Status::InvalidArgument("ragged matrix");
    }
  }
  BIGDAWG_ASSIGN_OR_RETURN(
      Array out, Create({Dimension("row", 0, rows, 64), Dimension("col", 0, cols, 64)},
                        {attr}));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      BIGDAWG_RETURN_NOT_OK(
          out.Set({r, c}, {m[static_cast<size_t>(r)][static_cast<size_t>(c)]}));
    }
  }
  return out;
}

Result<Array> Array::Matmul(const Array& other) const {
  if (num_dims() != 2 || other.num_dims() != 2) {
    return Status::FailedPrecondition("matmul requires 2-D arrays");
  }
  if (dims()[1].length != other.dims()[0].length) {
    return Status::InvalidArgument(
        "inner dimensions differ: " + std::to_string(dims()[1].length) + " vs " +
        std::to_string(other.dims()[0].length));
  }
  BIGDAWG_ASSIGN_OR_RETURN(auto a, ToMatrix(0));
  BIGDAWG_ASSIGN_OR_RETURN(auto b, other.ToMatrix(0));
  const size_t n = a.size();
  const size_t k = b.size();
  const size_t m = b[0].size();
  std::vector<std::vector<double>> c(n, std::vector<double>(m, 0.0));
  // i-k-j loop order for cache-friendly access to b's rows.
  for (size_t i = 0; i < n; ++i) {
    for (size_t kk = 0; kk < k; ++kk) {
      const double aik = a[i][kk];
      if (aik == 0.0) continue;
      const std::vector<double>& brow = b[kk];
      std::vector<double>& crow = c[i];
      for (size_t j = 0; j < m; ++j) crow[j] += aik * brow[j];
    }
  }
  return FromMatrix(c, attrs()[0]);
}

Result<Array> Array::Transpose() const {
  if (num_dims() != 2) {
    return Status::FailedPrecondition("transpose requires a 2-D array");
  }
  std::vector<Dimension> new_dims = {dims()[1], dims()[0]};
  BIGDAWG_ASSIGN_OR_RETURN(Array out, Create(new_dims, attrs()));
  Status st = Status::OK();
  Scan([&](const Coordinates& coords, const std::vector<double>& values) {
    st = out.Set({coords[1], coords[0]}, values);
    return st.ok();
  });
  BIGDAWG_RETURN_NOT_OK(st);
  return out;
}

}  // namespace bigdawg::array
