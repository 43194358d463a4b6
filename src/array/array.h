#ifndef BIGDAWG_ARRAY_ARRAY_H_
#define BIGDAWG_ARRAY_ARRAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cow.h"
#include "common/result.h"

namespace bigdawg::array {

/// \brief One dimension of an array: a named, half-open coordinate range
/// [start, start + length) split into chunks of `chunk_length` cells.
struct Dimension {
  std::string name;
  int64_t start = 0;
  int64_t length = 0;
  int64_t chunk_length = 0;

  Dimension() = default;
  Dimension(std::string name_in, int64_t start_in, int64_t length_in,
            int64_t chunk_length_in)
      : name(std::move(name_in)),
        start(start_in),
        length(length_in),
        chunk_length(chunk_length_in) {}

  bool operator==(const Dimension&) const = default;
};

/// \brief Coordinates of a cell (one entry per dimension).
using Coordinates = std::vector<int64_t>;

/// \brief An inclusive box [lo, hi], one coordinate pair per dimension.
struct Box {
  Coordinates lo;
  Coordinates hi;
};

/// \brief Aggregates supported by the array engine.
enum class AggFunc : int { kCount, kSum, kAvg, kMin, kMax, kStdev };

Result<AggFunc> AggFuncFromString(const std::string& name);
const char* AggFuncToString(AggFunc f);

/// \brief A chunked, n-dimensional array of double attributes (the SciDB
/// stand-in's storage unit).
///
/// Attributes are numeric (double) by design: in the polystore, numeric
/// array data (waveforms, matrices) lives here while string payloads live
/// in the relational and key-value engines. Cells are "empty" until
/// written, so sparse arrays cost memory proportional to occupied chunks.
///
/// Storage is copy-on-write at two levels. An Array is a handle over a
/// refcounted block (dims, attrs, chunk map); copies, engine snapshot
/// reads, and cast-cache hits are pointer swaps. Mutating a shared
/// handle clones only the block's chunk *map* (O(chunks) pointer
/// copies), and each chunk is itself refcounted: a cell write clones
/// just the one chunk it touches, leaving every other chunk shared with
/// the original.
class Array {
 public:
  Array() = default;

  /// Creates an array; every dimension needs positive length and
  /// chunk_length, and at least one attribute is required.
  static Result<Array> Create(std::vector<Dimension> dims,
                              std::vector<std::string> attrs);

  const std::vector<Dimension>& dims() const { return rep_->dims; }
  const std::vector<std::string>& attrs() const { return rep_->attrs; }
  size_t num_dims() const { return rep_->dims.size(); }
  size_t num_attrs() const { return rep_->attrs.size(); }

  Result<size_t> AttrIndex(const std::string& name) const;
  Result<size_t> DimIndex(const std::string& name) const;

  /// Total logical cells (product of dimension lengths).
  int64_t LogicalSize() const;
  /// Number of written (non-empty) cells.
  int64_t NonEmptyCount() const { return rep_->non_empty; }
  /// Number of materialized chunks.
  size_t NumChunks() const { return rep_->chunks.size(); }

  /// O(1) resident size carried on the block: allocated chunk storage
  /// (chunks x chunk volume x attributes x 8 bytes) plus the filled
  /// bitmap. The cast cache's byte accounting.
  int64_t ByteSize() const;

  /// True when both handles alias the same block (a zero-copy share).
  bool SharesStorageWith(const Array& other) const {
    return rep_.SharesWith(other.rep_);
  }
  /// True when no other handle references this block.
  bool UniquelyOwned() const { return rep_.Unique(); }
  /// Ensures exclusive ownership of the block (chunk payloads stay
  /// shared until individually written).
  Array& Thaw();

  /// Extends dimension `dim` to `length` cells. Its start and chunk grid
  /// are unchanged, so every existing cell keeps its chunk and offset and
  /// no chunk is touched; InvalidArgument when `length` would shrink it.
  Status GrowDim(size_t dim, int64_t length);

  /// Writes all attributes of one cell; OutOfRange outside the array box.
  Status Set(const Coordinates& coords, const std::vector<double>& values);
  /// Writes one attribute of one cell (other attributes default to 0).
  Status SetAttr(const Coordinates& coords, size_t attr, double value);

  /// Reads a cell; NotFound when the cell is empty.
  Result<std::vector<double>> Get(const Coordinates& coords) const;

  /// Visits every non-empty cell in chunk order: chunks by ascending
  /// chunk key, cells by ascending offset within a chunk. Walks each
  /// chunk's filled bitmap a word at a time, so empty cells cost nothing
  /// beyond their bit. The callback returns false to stop early.
  ///
  /// With a `box` (one pair per dimension), visits only the cells inside
  /// it: chunks whose extent misses the box are dropped before the
  /// chunk-key sort, and only chunks that straddle its edge test cells.
  void Scan(const std::function<bool(const Coordinates&,
                                     const std::vector<double>&)>& fn,
            const Box* box = nullptr) const;

  /// Restriction to the box [lo, hi] (inclusive, one pair per dimension);
  /// coordinates are preserved.
  Result<Array> Subarray(const Coordinates& lo, const Coordinates& hi) const;

  /// Keeps cells where `pred(attr values)` holds; coordinates preserved.
  Result<Array> Filter(
      const std::function<bool(const std::vector<double>&)>& pred) const;

  /// Adds a derived attribute computed per cell from the existing
  /// attribute values (SciDB's apply()).
  Result<Array> Apply(
      const std::string& new_attr,
      const std::function<double(const std::vector<double>&)>& fn) const;

  /// Keeps only the named attributes, in the given order (SciDB's
  /// project()).
  Result<Array> ProjectAttrs(const std::vector<std::string>& attrs) const;

  /// Aggregates one attribute over all non-empty cells.
  Result<double> Aggregate(AggFunc func, size_t attr) const;

  /// Group-by-dimension aggregate: collapses every dimension except
  /// `keep_dim`, producing (coordinate, aggregate) pairs sorted by
  /// coordinate.
  Result<std::vector<std::pair<int64_t, double>>> AggregateBy(
      AggFunc func, size_t attr, size_t keep_dim) const;

  /// Sliding-window aggregate along `dim` (centered, width = 2*radius+1)
  /// over attribute `attr` for a 1-D array; returns a new 1-D array.
  Result<Array> WindowAggregate(AggFunc func, size_t attr, int64_t radius) const;

  /// Dense 2-D extraction of one attribute (row-major, empty cells are 0).
  /// FailedPrecondition unless the array has exactly 2 dimensions.
  Result<std::vector<std::vector<double>>> ToMatrix(size_t attr) const;

  /// Dense 1-D extraction of one attribute.
  Result<std::vector<double>> ToVector(size_t attr) const;

  /// Builds a 1-D array (dimension "i", chunk 1024) from a vector.
  static Result<Array> FromVector(const std::vector<double>& data,
                                  const std::string& attr = "val");
  /// Builds a 2-D array (dims "row","col") from a dense matrix.
  static Result<Array> FromMatrix(const std::vector<std::vector<double>>& m,
                                  const std::string& attr = "val");

  /// 2-D matrix multiply on attribute 0: (this: n x k) * (other: k x m).
  Result<Array> Matmul(const Array& other) const;
  /// 2-D transpose.
  Result<Array> Transpose() const;

 private:
  struct Chunk : common::CowCount {
    // Per attribute, chunk-volume values.
    std::vector<std::vector<double>> attr_data;
    // Bit `offset` set <=> that cell is filled; 64 cells per word.
    std::vector<uint64_t> filled;

    bool IsFilled(size_t offset) const {
      return (filled[offset >> 6] >> (offset & 63)) & 1u;
    }
    /// Marks the cell filled; false when it already was.
    bool Fill(size_t offset) {
      uint64_t& word = filled[offset >> 6];
      const uint64_t bit = uint64_t{1} << (offset & 63);
      if ((word & bit) != 0) return false;
      word |= bit;
      return true;
    }
  };

  struct CoordsHash {
    size_t operator()(const Coordinates& c) const {
      size_t h = 1469598103934665603ULL;
      for (int64_t v : c) {
        h ^= static_cast<size_t>(v);
        h *= 1099511628211ULL;
      }
      return h;
    }
  };

  /// The refcounted block. Copying it (a thaw of a shared handle)
  /// copies chunk *handles*, not chunk payloads.
  struct Rep : common::CowCount {
    std::vector<Dimension> dims;
    std::vector<std::string> attrs;
    std::unordered_map<Coordinates, common::CowPtr<Chunk>, CoordsHash> chunks;
    int64_t non_empty = 0;
  };

  Status CheckCoords(const Coordinates& coords) const;
  Coordinates ChunkKeyFor(const Coordinates& coords) const;
  size_t OffsetInChunk(const Coordinates& coords, const Coordinates& key) const;
  int64_t ChunkVolume() const;
  /// Writable chunk at `key` in `rep` (which must be exclusively owned),
  /// thawing a shared chunk or creating an empty one.
  Chunk* GetOrCreateChunk(Rep* rep, const Coordinates& key);

  common::CowPtr<Rep> rep_;
};

}  // namespace bigdawg::array

#endif  // BIGDAWG_ARRAY_ARRAY_H_
