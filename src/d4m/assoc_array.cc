#include "d4m/assoc_array.h"

#include <set>

#include "common/string_util.h"

namespace bigdawg::d4m {

AssocArray AssocArray::FromTriples(const std::vector<Triple>& triples) {
  AssocArray a;
  for (const Triple& t : triples) a.Set(t.row, t.col, t.value);
  return a;
}

std::vector<Triple> AssocArray::ToTriples() const {
  std::vector<Triple> out;
  out.reserve(rep_->size);
  ForEach([&out](const std::string& r, const std::string& c, const Value& v) {
    out.push_back({r, c, v});
  });
  return out;
}

AssocArray::Rep* AssocArray::ThawRep() {
  Rep* rep = rep_.Mutable();
  rep->bytes.store(-1, std::memory_order_relaxed);
  return rep;
}

AssocArray& AssocArray::Thaw() {
  ThawRep();
  return *this;
}

int64_t AssocArray::ByteSize() const {
  const Rep& rep = *rep_;
  int64_t b = rep.bytes.load(std::memory_order_relaxed);
  if (b >= 0) return b;
  b = 0;
  for (const auto& [row, cols] : rep.cells) {
    for (const auto& [col, value] : cols) {
      b += static_cast<int64_t>(row.size() + col.size());
      if (value.type() == DataType::kString) {
        b += static_cast<int64_t>(value.string_unchecked().size());
      } else {
        b += 8;
      }
    }
  }
  rep.bytes.store(b, std::memory_order_relaxed);
  return b;
}

void AssocArray::Set(const std::string& row, const std::string& col, Value value) {
  if (value.is_null()) {
    // Probe before thawing: erasing an absent cell must not clone a
    // shared block.
    auto probe = rep_->cells.find(row);
    if (probe == rep_->cells.end() || probe->second.count(col) == 0) return;
    Rep* rep = ThawRep();
    auto row_it = rep->cells.find(row);
    if (row_it->second.erase(col) > 0) --rep->size;
    if (row_it->second.empty()) rep->cells.erase(row_it);
    return;
  }
  Rep* rep = ThawRep();
  auto& row_map = rep->cells[row];
  auto [it, inserted] = row_map.insert_or_assign(col, std::move(value));
  (void)it;
  if (inserted) ++rep->size;
}

Result<Value> AssocArray::Get(const std::string& row, const std::string& col) const {
  const auto& cells = rep_->cells;
  auto row_it = cells.find(row);
  if (row_it == cells.end()) return Status::NotFound("no row " + row);
  auto col_it = row_it->second.find(col);
  if (col_it == row_it->second.end()) {
    return Status::NotFound("no cell (" + row + ", " + col + ")");
  }
  return col_it->second;
}

bool AssocArray::Contains(const std::string& row, const std::string& col) const {
  return Get(row, col).ok();
}

std::vector<std::string> AssocArray::RowKeys() const {
  const auto& cells = rep_->cells;
  std::vector<std::string> out;
  out.reserve(cells.size());
  for (const auto& [row, cols] : cells) out.push_back(row);
  return out;
}

std::vector<std::string> AssocArray::ColKeys() const {
  std::set<std::string> keys;
  for (const auto& [row, cols] : rep_->cells) {
    for (const auto& [col, v] : cols) keys.insert(col);
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

void AssocArray::ForEach(
    const std::function<void(const std::string&, const std::string&,
                             const Value&)>& fn) const {
  for (const auto& [row, cols] : rep_->cells) {
    for (const auto& [col, v] : cols) fn(row, col, v);
  }
}

AssocArray AssocArray::Add(const AssocArray& other) const {
  AssocArray out = *this;
  other.ForEach([&out](const std::string& r, const std::string& c, const Value& v) {
    Result<Value> existing = out.Get(r, c);
    if (!existing.ok()) {
      out.Set(r, c, v);
      return;
    }
    Result<double> a = existing->ToNumeric();
    Result<double> b = v.ToNumeric();
    if (a.ok() && b.ok()) {
      out.Set(r, c, Value(*a + *b));
    }
    // Non-numeric collision: keep the left value (D4M collision rule).
  });
  return out;
}

AssocArray AssocArray::Multiply(const AssocArray& other) const {
  AssocArray out;
  ForEach([&](const std::string& r, const std::string& c, const Value& v) {
    Result<Value> theirs = other.Get(r, c);
    if (!theirs.ok()) return;
    Result<double> a = v.ToNumeric();
    Result<double> b = theirs->ToNumeric();
    if (a.ok() && b.ok()) {
      out.Set(r, c, Value(*a * *b));
    } else {
      out.Set(r, c, v);
    }
  });
  return out;
}

AssocArray AssocArray::FilterValues(
    const std::function<bool(const Value&)>& pred) const {
  AssocArray out;
  ForEach([&](const std::string& r, const std::string& c, const Value& v) {
    if (pred(v)) out.Set(r, c, v);
  });
  return out;
}

AssocArray AssocArray::SubRowRange(const std::string& lo,
                                   const std::string& hi) const {
  AssocArray out;
  const auto& cells = rep_->cells;
  for (auto it = cells.lower_bound(lo); it != cells.end() && it->first <= hi;
       ++it) {
    for (const auto& [col, v] : it->second) out.Set(it->first, col, v);
  }
  return out;
}

AssocArray AssocArray::SubRowPrefix(const std::string& prefix) const {
  AssocArray out;
  const auto& cells = rep_->cells;
  for (auto it = cells.lower_bound(prefix); it != cells.end(); ++it) {
    if (!StartsWith(it->first, prefix)) break;
    for (const auto& [col, v] : it->second) out.Set(it->first, col, v);
  }
  return out;
}

AssocArray AssocArray::SubCols(const std::vector<std::string>& cols) const {
  std::set<std::string> wanted(cols.begin(), cols.end());
  AssocArray out;
  ForEach([&](const std::string& r, const std::string& c, const Value& v) {
    if (wanted.count(c) > 0) out.Set(r, c, v);
  });
  return out;
}

AssocArray AssocArray::Transpose() const {
  AssocArray out;
  ForEach([&out](const std::string& r, const std::string& c, const Value& v) {
    out.Set(c, r, v);
  });
  return out;
}

AssocArray AssocArray::MatMul(const AssocArray& other) const {
  AssocArray out;
  // For each A(r, k), scan B's row k once.
  const auto& other_cells = other.rep_->cells;
  for (const auto& [r, a_cols] : rep_->cells) {
    std::map<std::string, double> acc;
    for (const auto& [k, a_val] : a_cols) {
      Result<double> a_num = a_val.ToNumeric();
      if (!a_num.ok()) continue;
      auto b_row = other_cells.find(k);
      if (b_row == other_cells.end()) continue;
      for (const auto& [c, b_val] : b_row->second) {
        Result<double> b_num = b_val.ToNumeric();
        if (!b_num.ok()) continue;
        acc[c] += *a_num * *b_num;
      }
    }
    for (const auto& [c, sum] : acc) {
      if (sum != 0.0) out.Set(r, c, Value(sum));
    }
  }
  return out;
}

std::map<std::string, double> AssocArray::RowSums() const {
  // Rows come in key order, so each sum is one hinted insert at the end.
  std::map<std::string, double> out;
  for (const auto& [r, cols] : rep_->cells) {
    double sum = 0;
    bool numeric = false;
    for (const auto& [c, v] : cols) {
      if (!IsNumeric(v.type())) continue;
      sum += *v.ToNumeric();
      numeric = true;
    }
    if (numeric) out.emplace_hint(out.end(), r, sum);
  }
  return out;
}

}  // namespace bigdawg::d4m
