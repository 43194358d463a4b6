#ifndef BIGDAWG_KVSTORE_KVSTORE_H_
#define BIGDAWG_KVSTORE_KVSTORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace bigdawg::kvstore {

/// \brief An Accumulo-style key: (row, column family, column qualifier),
/// ordered lexicographically by each component in turn.
struct Key {
  std::string row;
  std::string family;
  std::string qualifier;

  Key() = default;
  Key(std::string row_in, std::string family_in, std::string qualifier_in)
      : row(std::move(row_in)),
        family(std::move(family_in)),
        qualifier(std::move(qualifier_in)) {}

  bool operator<(const Key& other) const;
  bool operator==(const Key& other) const {
    return row == other.row && family == other.family &&
           qualifier == other.qualifier;
  }

  std::string ToString() const { return row + ":" + family + ":" + qualifier; }
};

/// \brief A borrowed key: lookups and seeks through it build no strings.
struct KeyView {
  std::string_view row;
  std::string_view family;
  std::string_view qualifier;

  KeyView() = default;
  KeyView(std::string_view row_in, std::string_view family_in,
          std::string_view qualifier_in)
      : row(row_in), family(family_in), qualifier(qualifier_in) {}
  KeyView(const Key& key)  // NOLINT(google-explicit-constructor)
      : row(key.row), family(key.family), qualifier(key.qualifier) {}
};

/// \brief Key order (row, family, qualifier) over Keys and KeyViews alike,
/// so the tablet can be searched by a borrowed key.
struct KeyLess {
  using is_transparent = void;
  bool operator()(const KeyView& a, const KeyView& b) const {
    if (int c = a.row.compare(b.row); c != 0) return c < 0;
    if (int c = a.family.compare(b.family); c != 0) return c < 0;
    return a.qualifier < b.qualifier;
  }
};

inline bool Key::operator<(const Key& other) const { return KeyLess()(*this, other); }

/// \brief One key/value entry returned by scans.
struct Cell {
  Key key;
  std::string value;
};

/// \brief Range + column restrictions for a scan. Empty strings mean
/// "unbounded" / "no filter".
struct ScanOptions {
  std::string start_row;        // inclusive; "" = from the beginning
  std::string end_row;          // inclusive; "" = to the end
  std::string family;           // exact family filter
  std::string qualifier_prefix; // qualifier must start with this
  size_t limit = 0;             // 0 = unlimited

  /// The column restrictions (family, qualifier prefix); the row range is
  /// the caller's.
  bool Matches(const Key& key) const;
};

/// \brief A sorted key-value store (the Accumulo stand-in).
///
/// The store keeps cells in a single ordered map (the "tablet"). Mutations
/// are last-writer-wins. Server-side iterator logic is modeled by a
/// ReadView: it holds the read lock for its whole life and hands out the
/// stored cells by reference, as an Accumulo iterator stack would run
/// tablet-side. Its write-side twin, WriteView, holds the write lock, so
/// a multi-cell mutation is one atomic step for every reader.
class KvStore {
 private:
  using Tablet = std::map<Key, std::string, KeyLess>;

 public:
  using Iterator = Tablet::const_iterator;

  /// A consistent, zero-copy read of the tablet: the shared lock is held
  /// from Read() until the view is destroyed, so every read through one
  /// view sees one version of the store, and the references it hands out
  /// stay valid that long. Writers wait for it; keep it short.
  class ReadView {
   public:
    Iterator end() const { return cells_->end(); }

    /// The first cell whose key is >= `key`.
    Iterator Seek(const KeyView& key) const { return cells_->lower_bound(key); }

    /// Moves `from` forward to the first cell whose key is >= `key`: a few
    /// single steps, then a seek. Every cell before `from` must be < `key`,
    /// so a walk over ascending keys serves dense and sparse targets alike.
    Iterator SeekForward(Iterator from, const KeyView& key) const;

    /// The value stored at exactly `key`, or nullptr.
    const std::string* Find(const KeyView& key) const;

    /// Visits each cell matching `options` in key order as fn(key, value),
    /// by reference; fn returns false to stop.
    template <typename Fn>
    void Range(const ScanOptions& options, Fn&& fn) const {
      auto it = options.start_row.empty()
                    ? cells_->begin()
                    : Seek(KeyView(options.start_row, {}, {}));
      size_t emitted = 0;
      for (; it != cells_->end(); ++it) {
        if (!options.end_row.empty() && it->first.row > options.end_row) break;
        if (!options.Matches(it->first)) continue;
        if (!fn(it->first, it->second)) return;
        if (options.limit != 0 && ++emitted >= options.limit) return;
      }
    }

   private:
    friend class KvStore;
    explicit ReadView(const KvStore& store) : lock_(store.mu_), cells_(&store.cells_) {}

    std::shared_lock<std::shared_mutex> lock_;
    const Tablet* cells_;
  };

  /// The write-side twin of ReadView: holds the exclusive lock until
  /// destroyed, so readers see all of its mutations or none.
  class WriteView {
   public:
    const std::string* Find(const KeyView& key) const;
    void Put(Key key, std::string value);
    /// Removes one cell; false when absent.
    bool Erase(const KeyView& key);
    /// Removes every cell of a row; returns the number removed.
    size_t EraseRow(std::string_view row);

   private:
    friend class KvStore;
    explicit WriteView(KvStore& store) : lock_(store.mu_), cells_(&store.cells_) {}

    std::unique_lock<std::shared_mutex> lock_;
    Tablet* cells_;
  };

  KvStore() = default;

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  ReadView Read() const { return ReadView(*this); }
  WriteView Write() { return WriteView(*this); }

  void Put(Key key, std::string value);
  void PutBatch(std::vector<Cell> cells);

  Result<std::string> Get(const Key& key) const;
  bool Contains(const Key& key) const;

  /// Removes one cell; NotFound if absent.
  Status Delete(const Key& key);
  /// Removes every cell of a row; returns the number removed.
  size_t DeleteRow(const std::string& row);

  /// Materializing scan.
  std::vector<Cell> Scan(const ScanOptions& options) const;

  /// Streaming scan over copies of the matching cells: ReadView::Range
  /// for callers that keep what they see. The callback returns false to
  /// stop.
  void ApplyToRange(const ScanOptions& options,
                    const std::function<bool(const Cell&)>& fn) const;

  /// Distinct rows intersecting the options.
  std::vector<std::string> ScanRows(const ScanOptions& options) const;

  size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  Tablet cells_;
};

}  // namespace bigdawg::kvstore

#endif  // BIGDAWG_KVSTORE_KVSTORE_H_
