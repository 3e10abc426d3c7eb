// Result caches. ResultCache: file-backed key->double — accuracy
// experiments are expensive (model evaluation per quantization config);
// table benches store their results here so figure benches (design-space
// plots) reuse them. BlobCache: thread-safe in-memory key->float-blob LRU
// — the serving engine short-circuits repeated inference inputs with it.
#pragma once

#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace vsq {

class ResultCache {
 public:
  // Loads existing entries from `path` if present; writes back on put().
  explicit ResultCache(std::string path);

  std::optional<double> get(const std::string& key) const;
  void put(const std::string& key, double value);  // persists immediately
  // Returns cached value or computes-and-stores via fn().
  template <typename Fn>
  double get_or_compute(const std::string& key, Fn&& fn) {
    if (const auto v = get(key)) return *v;
    const double v = fn();
    put(key, v);
    return v;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  void flush() const;

  std::string path_;
  std::map<std::string, double> entries_;
};

// Deterministic key for a float blob (FNV-1a 64 over the raw bytes,
// rendered as hex). Inference inputs hash to BlobCache keys with this.
std::string blob_key(std::span<const float> data);

// Bounded in-memory key -> float-blob cache with LRU eviction. All
// operations are thread-safe; get() refreshes recency. capacity == 0
// disables the cache entirely (get always misses, put is a no-op).
class BlobCache {
 public:
  explicit BlobCache(std::size_t capacity);

  std::optional<std::vector<float>> get(const std::string& key);
  void put(const std::string& key, std::vector<float> value);

 private:
  using Entry = std::pair<std::string, std::vector<float>>;

  std::size_t capacity_;
  std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace vsq
