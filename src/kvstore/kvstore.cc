#include "kvstore/kvstore.h"

#include "common/string_util.h"

namespace bigdawg::kvstore {

namespace {
// A forward move at most this many cells short of its target steps there;
// a longer one seeks (a tree descent from the root).
constexpr int kMaxForwardSteps = 8;
}  // namespace

bool ScanOptions::Matches(const Key& key) const {
  if (!family.empty() && key.family != family) return false;
  if (!qualifier_prefix.empty() && !StartsWith(key.qualifier, qualifier_prefix)) {
    return false;
  }
  return true;
}

KvStore::Iterator KvStore::ReadView::SeekForward(Iterator from,
                                                 const KeyView& key) const {
  const KeyLess less;
  for (int step = 0; step < kMaxForwardSteps; ++step, ++from) {
    if (from == cells_->end() || !less(from->first, key)) return from;
  }
  return Seek(key);
}

const std::string* KvStore::ReadView::Find(const KeyView& key) const {
  auto it = cells_->find(key);
  return it == cells_->end() ? nullptr : &it->second;
}

const std::string* KvStore::WriteView::Find(const KeyView& key) const {
  auto it = cells_->find(key);
  return it == cells_->end() ? nullptr : &it->second;
}

void KvStore::WriteView::Put(Key key, std::string value) {
  cells_->insert_or_assign(std::move(key), std::move(value));
}

bool KvStore::WriteView::Erase(const KeyView& key) {
  auto it = cells_->find(key);
  if (it == cells_->end()) return false;
  cells_->erase(it);
  return true;
}

size_t KvStore::WriteView::EraseRow(std::string_view row) {
  auto it = cells_->lower_bound(KeyView(row, {}, {}));
  size_t removed = 0;
  while (it != cells_->end() && it->first.row == row) {
    it = cells_->erase(it);
    ++removed;
  }
  return removed;
}

void KvStore::Put(Key key, std::string value) {
  Write().Put(std::move(key), std::move(value));
}

void KvStore::PutBatch(std::vector<Cell> cells) {
  WriteView write = Write();
  for (Cell& c : cells) write.Put(std::move(c.key), std::move(c.value));
}

Result<std::string> KvStore::Get(const Key& key) const {
  const ReadView read = Read();
  const std::string* value = read.Find(key);
  if (value == nullptr) return Status::NotFound("no cell: " + key.ToString());
  return *value;
}

bool KvStore::Contains(const Key& key) const { return Read().Find(key) != nullptr; }

Status KvStore::Delete(const Key& key) {
  if (!Write().Erase(key)) return Status::NotFound("no cell: " + key.ToString());
  return Status::OK();
}

size_t KvStore::DeleteRow(const std::string& row) { return Write().EraseRow(row); }

void KvStore::ApplyToRange(const ScanOptions& options,
                           const std::function<bool(const Cell&)>& fn) const {
  Read().Range(options, [&fn](const Key& key, const std::string& value) {
    return fn(Cell{key, value});
  });
}

std::vector<Cell> KvStore::Scan(const ScanOptions& options) const {
  std::vector<Cell> out;
  Read().Range(options, [&out](const Key& key, const std::string& value) {
    out.push_back(Cell{key, value});
    return true;
  });
  return out;
}

std::vector<std::string> KvStore::ScanRows(const ScanOptions& options) const {
  std::vector<std::string> rows;
  Read().Range(options, [&rows](const Key& key, const std::string&) {
    if (rows.empty() || rows.back() != key.row) rows.push_back(key.row);
    return true;
  });
  return rows;
}

size_t KvStore::size() const {
  std::shared_lock lock(mu_);
  return cells_.size();
}

}  // namespace bigdawg::kvstore
