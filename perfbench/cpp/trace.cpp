#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench::trace {
namespace {

/// Per-thread cap: 48 bytes a span, so at most ~96 MB per thread.
constexpr std::size_t kMaxSpansPerThread = 2'000'000;

struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = no enclosing span
  std::uint64_t op = 0;
};

struct Buffer {
  std::uint64_t thread_index = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t op = 0;
  std::int64_t dropped = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  // indexes of the spans still open
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
// Buffers are owned here, not by their threads, so they outlive the worker
// threads that filled them.
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
    buffer->thread_index = g_buffers.size();
  }
  return *buffer;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_op(std::uint64_t op) {
  if (enabled()) local_buffer().op = op;
}

Scope::Scope(const char* name) {
  if (!enabled()) return;
  Buffer& buffer = local_buffer();
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    buffer.dropped += 1;
    return;
  }
  Span span;
  span.name = name;
  span.id = (buffer.thread_index << 40) | buffer.next_seq++;
  span.parent =
      buffer.open.empty() ? 0 : buffer.spans[buffer.open.back()].id;
  span.op = buffer.op;
  slot_ = static_cast<std::int64_t>(buffer.spans.size());
  buffer.open.push_back(buffer.spans.size());
  buffer.spans.push_back(span);
  buffer.spans.back().start_ns = now_ns();
}

Scope::~Scope() {
  if (slot_ < 0) return;
  const std::int64_t end = now_ns();
  Buffer& buffer = local_buffer();
  buffer.spans[static_cast<std::size_t>(slot_)].end_ns = end;
  buffer.open.pop_back();
}

std::map<std::string, Stat> summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, Stat> out;
  for (const auto& buffer : g_buffers) {
    const auto& spans = buffer->spans;
    // Children's intervals per parent; a span's parent is always on the
    // same thread, so it is in this buffer.
    std::unordered_map<std::uint64_t, std::size_t> index_of;
    index_of.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans.size());
    for (const Span& span : spans) {
      if (span.parent == 0) continue;
      const auto it = index_of.find(span.parent);
      if (it != index_of.end()) {
        children[it->second].emplace_back(span.start_ns, span.end_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const std::int64_t duration = span.end_ns - span.start_ns;
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0;
      std::int64_t reach = span.start_ns;
      for (const auto& [begin, end] : kids) {
        const std::int64_t from = std::max(begin, reach);
        const std::int64_t to = std::min(end, span.end_ns);
        if (to > from) covered += to - from;
        reach = std::max(reach, to);
      }
      Stat& stat = out[span.name];
      stat.count += 1;
      stat.inclusive_ns += static_cast<double>(duration);
      stat.self_ns += static_cast<double>(duration - covered);
    }
  }
  return out;
}

std::int64_t dropped() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::int64_t total = 0;
  for (const auto& buffer : g_buffers) total += buffer->dropped;
  return total;
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : g_buffers) {
    buffer->spans.clear();
    buffer->open.clear();
    buffer->dropped = 0;
  }
}

bool write_chrome_json(const std::string& path, std::size_t max_spans) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const auto& buffer : g_buffers) {
    for (const Span& span : buffer->spans) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::fputs("{\"traceEvents\":[\n", out);
  std::size_t written = 0;
  for (const auto& buffer : g_buffers) {
    for (const Span& span : buffer->spans) {
      if (written == max_spans) break;
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"op\":%llu}}",
                   written == 0 ? "" : ",\n", span.name,
                   static_cast<unsigned long long>(buffer->thread_index),
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.op));
      ++written;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench::trace
