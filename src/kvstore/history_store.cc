#include "kvstore/history_store.h"

#include <algorithm>

namespace rtrec {

HistoryStore::HistoryStore() : HistoryStore(Options{}) {}

HistoryStore::HistoryStore(Options options) : options_(options) {
  for (auto& stripe : stripes_) stripe = std::make_unique<Stripe>();
}

void HistoryStore::Append(UserId user, HistoryEntry entry) {
  Stripe& stripe = StripeFor(user);
  std::lock_guard<std::mutex> lock(stripe.mu);
  AppendLocked(stripe, user, entry);
}

void HistoryStore::AppendLocked(Stripe& stripe, UserId user,
                                const HistoryEntry& entry) {
  std::vector<HistoryEntry>& history = stripe.map[user];
  const std::size_t bound = options_.max_entries_per_user;
  // Keep videos distinct: refresh an existing entry by moving it to the
  // back (most recent position). Otherwise evict the oldest before
  // appending, so the history never grows past the bound.
  auto it = std::find_if(
      history.begin(), history.end(),
      [&entry](const HistoryEntry& e) { return e.video == entry.video; });
  if (it != history.end()) {
    history.erase(it);
  } else if (history.size() >= bound) {
    if (bound == 0) return;
    history.erase(history.begin());
  }
  if (history.size() == history.capacity()) {
    history.reserve(std::min(bound, std::max<std::size_t>(
                                        1, 2 * history.capacity())));
  }
  history.push_back(entry);
}

void HistoryStore::ReadRecentThenAppend(UserId user, std::size_t limit,
                                        const HistoryEntry& entry,
                                        bool append,
                                        std::vector<std::int64_t>& recent) {
  Stripe& stripe = StripeFor(user);
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (limit > 0) {
    auto it = stripe.map.find(user);
    if (it != stripe.map.end()) {
      const std::vector<HistoryEntry>& history = it->second;
      const std::size_t n = std::min(limit, history.size());
      for (std::size_t i = 0; i < n; ++i) {
        const VideoId video = history[history.size() - 1 - i].video;
        if (video != entry.video) {
          recent.push_back(static_cast<std::int64_t>(video));
        }
      }
    }
  }
  if (append) AppendLocked(stripe, user, entry);
}

std::vector<HistoryEntry> HistoryStore::Get(UserId user) const {
  return GetRecent(user, options_.max_entries_per_user);
}

std::vector<HistoryEntry> HistoryStore::GetRecent(UserId user,
                                                  std::size_t limit) const {
  const Stripe& stripe = StripeFor(user);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(user);
  if (it == stripe.map.end()) return {};
  const std::vector<HistoryEntry>& history = it->second;
  std::vector<HistoryEntry> out;
  const std::size_t n = std::min(limit, history.size());
  out.reserve(n);
  // Newest first.
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(history[history.size() - 1 - i]);
  }
  return out;
}

std::size_t HistoryStore::NumUsers() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    total += stripe->map.size();
  }
  return total;
}

void HistoryStore::ForEach(
    const std::function<void(UserId, const std::vector<HistoryEntry>&)>& fn)
    const {
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [user, history] : stripe->map) {
      fn(user, history);
    }
  }
}

void HistoryStore::LoadUser(UserId user, std::vector<HistoryEntry> entries) {
  Stripe& stripe = StripeFor(user);
  std::lock_guard<std::mutex> lock(stripe.mu);
  const std::size_t bound = options_.max_entries_per_user;
  if (entries.size() > bound) {
    entries.erase(entries.begin(),
                  entries.end() - static_cast<std::ptrdiff_t>(bound));
  }
  entries.shrink_to_fit();
  stripe.map[user] = std::move(entries);
}

void HistoryStore::Erase(UserId user) {
  Stripe& stripe = StripeFor(user);
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.map.erase(user);
}

}  // namespace rtrec
