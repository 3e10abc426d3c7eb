#include "util/result_cache.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace vsq {

ResultCache::ResultCache(std::string path) : path_(std::move(path)) {
  std::ifstream f(path_);
  if (!f) return;  // first use: empty cache
  std::string line;
  while (std::getline(f, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    const std::string key = line.substr(0, tab);
    try {
      entries_[key] = std::stod(line.substr(tab + 1));
    } catch (const std::exception&) {
      // Skip malformed lines rather than poisoning the run.
    }
  }
}

std::optional<double> ResultCache::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void ResultCache::put(const std::string& key, double value) {
  entries_[key] = value;
  flush();
}

void ResultCache::flush() const {
  std::ofstream f(path_, std::ios::trunc);
  if (!f) throw std::runtime_error("ResultCache: cannot write " + path_);
  f.precision(17);
  for (const auto& [k, v] : entries_) f << k << '\t' << v << '\n';
}

std::string blob_key(std::span<const float> data) {
  // FNV-1a 64-bit over the raw float bytes: exact-match keys (a one-ulp
  // different input is a different request, as it should be).
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const float f : data) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

BlobCache::BlobCache(std::size_t capacity) : capacity_(capacity) {}

std::optional<std::vector<float>> BlobCache::get(const std::string& key) {
  if (capacity_ == 0) return std::nullopt;
  std::lock_guard lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second;
}

void BlobCache::put(const std::string& key, std::vector<float> value) {
  if (capacity_ == 0) return;
  std::lock_guard lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(value));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

}  // namespace vsq
