#pragma once
// Span recording for the end-to-end benchmark.
//
// Spans are taken only around calls into the library's public surface:
// the editor's round trip into the proxy (op spans), ShardRouter::handle
// inside the provider's handler (handler spans) and Store::put/get through
// TimedStore (store spans). Op spans are recorded in every run — they are
// the latency samples; handler and store spans only when tracing is on.
// Everything stays in memory until Recorder::write_tsv at the end of the
// run, so no I/O lands inside a measured interval.
//
// Attribution: each document is edited by exactly one editor thread at a
// time, so a handler span finds its op by docID (bind_doc/op_of) and a
// store span finds its handler through the worker thread's thread_local
// context, which the handler sets around ShardRouter::handle.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "privedit/cloud/file_store.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // enclosing span id; 0 = root
  std::uint64_t op = 0;      // editor op this span belongs to; 0 = none
  std::string name;          // op.save, op.open, verify.open, handler.<kind>,
                             // store.<put|get>.<record|audit|tenant>
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;   // request body (op, handler) or record bytes
  int status = 0;            // op/handler HTTP status; 0 = exception
};

/// The handler span and op the current provider worker thread serves.
struct ThreadContext {
  std::uint64_t handler = 0;
  std::uint64_t op = 0;
};
inline thread_local ThreadContext t_context;

class Recorder {
 public:
  explicit Recorder(bool tracing) : tracing_(tracing) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool tracing() const { return tracing_; }

  std::uint64_t new_id() { return next_id_.fetch_add(1) + 1; }

  void record(Span span) {
    const std::lock_guard<std::mutex> lock(spans_mu_);
    spans_.push_back(std::move(span));
  }

  /// Marks `op` as the op in flight on `doc_id` (tracing only).
  void bind_doc(const std::string& doc_id, std::uint64_t op) {
    if (!tracing_) return;
    const std::lock_guard<std::mutex> lock(docs_mu_);
    doc_ops_[doc_id] = op;
  }

  void unbind_doc(const std::string& doc_id) {
    if (!tracing_) return;
    const std::lock_guard<std::mutex> lock(docs_mu_);
    doc_ops_.erase(doc_id);
  }

  std::uint64_t op_of(const std::string& doc_id) const {
    const std::lock_guard<std::mutex> lock(docs_mu_);
    const auto it = doc_ops_.find(doc_id);
    return it == doc_ops_.end() ? 0 : it->second;
  }

  /// One span per line: id parent op name start_ns end_ns bytes status.
  /// Call only after every recording thread has been joined.
  void write_tsv(const std::string& path) {
    const std::lock_guard<std::mutex> lock(spans_mu_);
    std::ofstream out(path, std::ios::trunc);
    for (const Span& s : spans_) {
      out << s.id << '\t' << s.parent << '\t' << s.op << '\t' << s.name
          << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.bytes << '\t'
          << s.status << '\n';
    }
    if (!out.flush()) {
      throw std::runtime_error("cannot write spans to " + path);
    }
  }

 private:
  const bool tracing_;
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex spans_mu_;
  std::vector<Span> spans_;
  mutable std::mutex docs_mu_;
  std::map<std::string, std::uint64_t> doc_ops_;
};

/// Store decorator that records a span per put/get, parented to the
/// handler span running on the calling thread. `kind` names the store
/// (record, audit, tenant) in the span name.
class TimedStore final : public privedit::cloud::Store {
 public:
  TimedStore(std::unique_ptr<privedit::cloud::Store> inner,
             const std::string& kind, Recorder& recorder)
      : inner_(std::move(inner)),
        put_name_("store.put." + kind),
        get_name_("store.get." + kind),
        recorder_(recorder) {}

  void put(const std::string& doc_id, const Record& record) override {
    const std::int64_t start = now_ns();
    inner_->put(doc_id, record);
    recorder_.record({recorder_.new_id(), t_context.handler, t_context.op,
                      put_name_, start, now_ns(), record.content.size(), 0});
  }

  std::optional<Record> get(const std::string& doc_id) const override {
    const std::int64_t start = now_ns();
    auto record = inner_->get(doc_id);
    recorder_.record({recorder_.new_id(), t_context.handler, t_context.op,
                      get_name_, start, now_ns(),
                      record ? record->content.size() : 0, 0});
    return record;
  }

  std::vector<std::string> list_doc_ids() const override {
    return inner_->list_doc_ids();
  }
  std::map<std::string, Record> load_all(
      std::vector<std::string>* corrupt = nullptr) const override {
    return inner_->load_all(corrupt);
  }
  void remove(const std::string& doc_id) override { inner_->remove(doc_id); }
  void set_quarantined(const std::string& doc_id, bool on) override {
    inner_->set_quarantined(doc_id, on);
  }
  std::set<std::string> quarantined() const override {
    return inner_->quarantined();
  }

 private:
  std::unique_ptr<privedit::cloud::Store> inner_;
  const std::string put_name_;
  const std::string get_name_;
  Recorder& recorder_;
};

}  // namespace perfbench
