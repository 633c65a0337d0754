// End-to-end benchmark of the product chain, in one process:
//
//   editor threads ──TCP──▶ MediatingProxy (one per user) ──TCP──▶
//   HttpServer ──▶ ShardRouter (4 shards, file-backed data_dir)
//
// Every mediator runs what a security-conscious user turns on together:
// RPC with b=8, the default KDF cost, a write-ahead journal, the audit
// chain and block-delta saves. Flush policy is the library's own and is
// the same in every run: each FileStore put is tmp+fsync+rename+dir-fsync,
// each journal and audit-log append is fsync'd.
//
// usage: e2e_bench --workload typing|fullsave_large|open_mix --seed N
//                  --seconds S --trace 0|1 --out DIR [--setups K]
//
// The program is the load generator and recorder only. It writes
// DIR/run.json (setup times, the measurement window, counter snapshots,
// correctness-gate results) and DIR/spans.tsv; trace_report.py turns
// them into metrics. Exit status is 0 whenever those files were written,
// including runs whose correctness gate failed (the report says so).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "privedit/cloud/shard_router.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/extension/proxy.hpp"
#include "privedit/net/http_server.hpp"
#include "privedit/util/random.hpp"
#include "privedit/util/urlencode.hpp"
#include "privedit/workload/corpus.hpp"
#include "trace.hpp"

namespace pb = perfbench;
namespace fs = std::filesystem;
using namespace privedit;

namespace {

// Every document carries one canary sentence starting with this marker.
// It is lowercase, so it cannot occur in Base32 ciphertext (A-Z, 2-7),
// and the corpus has no such word: any sighting at the provider is a
// plaintext leak.
constexpr std::string_view kCanaryMarker = "zqxjcanary";
constexpr const char* kPassword = "perfbench correct horse battery staple";
constexpr int kShards = 4;
constexpr std::size_t kHistoryLimit = 16;  // versions kept per document

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Seed streams, so each consumer of the seed draws independently.
enum Stream : std::uint64_t {
  kCorpusStream = 1000,
  kEditStream = 2000,
  kMediatorStream = 3000,
  kVerifyMediatorStream = 4000,
};

enum class Kind { kTyping, kFullSave, kOpenMix };

struct Workload {
  Kind kind;
  int users;          // proxies, each with its own mediator and journal
  int threads;        // editor threads, one request in flight each
  int docs;           // thread t edits docs d with d % threads == t
  std::size_t doc_chars;
  std::size_t slack;  // growth past the seeded size after which the next
                      // edit overtypes `slack` chars, bounding doc size
  int phase_opens;    // cold opens per doc after the window, for workloads
                      // whose window has none (their open latency)
  std::uint64_t wire_sample_ops;  // window ops whose wire bytes are counted
};

Workload workload_named(const std::string& name) {
  if (name == "typing") {
    return {Kind::kTyping, 3, 3, 3, 16 * 1024, 1024, 24, 2000};
  }
  if (name == "fullsave_large") {
    return {Kind::kFullSave, 1, 1, 1, 256 * 1024, 4096, 32, 150};
  }
  if (name == "open_mix") {
    return {Kind::kOpenMix, 1, 3, 64, 4 * 1024, 1024, 0, 400};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

struct Doc {
  std::string id;
  int user = 0;
  std::string text;  // the editor's copy: every open must return exactly this
  std::size_t base_chars = 0;
  std::size_t canary_end = 0;  // edits stay at or after this offset
  std::size_t cursor = 0;      // typing position
  std::string session;
  std::uint64_t rev = 0;
};

std::vector<Doc> make_docs(const std::string& name, const Workload& w,
                           std::uint64_t seed) {
  std::vector<Doc> docs;
  for (int d = 0; d < w.docs; ++d) {
    Xoshiro256 rng(mix(seed, kCorpusStream + static_cast<std::uint64_t>(d)));
    Doc doc;
    doc.id = name + "-" + std::to_string(d);
    doc.user = d % w.users;
    doc.text = workload::random_document(rng, w.doc_chars);
    doc.text.resize(w.doc_chars);
    std::string canary(kCanaryMarker);
    for (int i = 0; i < 10; ++i) {
      canary.push_back(static_cast<char>('a' + rng.below(26)));
    }
    canary += ". ";
    std::size_t at = doc.text.find(". ", rng.below(w.doc_chars / 10));
    at = at == std::string::npos ? 0 : at + 2;
    doc.text.insert(at, canary);
    doc.base_chars = doc.text.size();
    doc.canary_end = at + canary.size();
    doc.cursor = doc.canary_end + rng.below(doc.base_chars - doc.canary_end);
    docs.push_back(std::move(doc));
  }
  return docs;
}

// ---------------------------------------------------------------- edits

struct Edit {
  std::size_t pos = 0;
  std::size_t erase = 0;
  std::string insert;
};

/// Inserts `text` at `pos`; once the doc has grown by `slack` chars the
/// insert overtypes `slack` chars instead, so doc size stays bounded.
Edit bounded_edit(const Doc& doc, std::size_t slack, std::size_t pos,
                  std::string text) {
  Edit e{pos, 0, std::move(text)};
  if (doc.text.size() > doc.base_chars + slack) {
    e.pos = std::min(pos, doc.text.size() - slack);
    e.erase = slack;
  }
  return e;
}

void apply(Doc& doc, const Edit& e) {
  doc.text.replace(e.pos, e.erase, e.insert);
}

std::string delta_wire(const Edit& e) {
  delta::Delta d;
  if (e.pos > 0) d.push(delta::Op::retain(e.pos));
  if (e.erase > 0) d.push(delta::Op::erase(e.erase));
  if (!e.insert.empty()) d.push(delta::Op::insert(e.insert));
  return d.to_wire();
}

std::string burst(RandomSource& rng) {
  std::string s;
  while (s.size() < 8) s += ' ' + workload::random_word(rng);
  s.resize(8);
  return s;
}

std::string sentence(RandomSource& rng) {
  return workload::random_sentence(rng, 4 + rng.below(9)) + " ";
}

std::size_t edit_position(const Doc& doc, RandomSource& rng) {
  return doc.canary_end + rng.below(doc.text.size() - doc.canary_end + 1);
}

// -------------------------------------------------------------- provider

/// What the provider's handler counts on every request. Wire bytes are
/// form-body bytes at the provider, outside ShardRouter::handle.
struct ProviderTap {
  explicit ProviderTap(pb::Recorder& r) : recorder(r) {}
  pb::Recorder& recorder;
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> up_bytes{0};
  std::atomic<std::uint64_t> down_bytes{0};
  std::atomic<std::uint64_t> canary_hits{0};

  // Byte readings when the window's `sample_ops`-th op completes. Every
  // ack carries the doc's whole audit chain, so bytes per op grow with the
  // saves a doc has taken: a fixed op count keeps the per-op figure
  // independent of how many ops the window fits.
  std::uint64_t sample_ops = 0;
  std::atomic<std::uint64_t> ops_done{0};
  std::atomic<std::uint64_t> sample_up{0};
  std::atomic<std::uint64_t> sample_down{0};

  void window_op_done() {
    if (ops_done.fetch_add(1) + 1 != sample_ops) return;
    sample_up = up_bytes.load();
    sample_down = down_bytes.load();
  }
};

/// The request's kind from its form keys, without decoding values (a full
/// save carries megabytes).
std::string request_kind(std::string_view body) {
  std::string_view cmd;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t amp = body.find('&', pos);
    if (amp == std::string_view::npos) amp = body.size();
    const std::string_view field = body.substr(pos, amp - pos);
    const std::size_t eq = field.find('=');
    const std::string_view key = field.substr(0, eq);
    if (key == "delta" || key == "docContents" || key == "bdelta") {
      return "save";
    }
    if (key == "cmd" && eq != std::string_view::npos) cmd = field.substr(eq + 1);
    pos = amp + 1;
  }
  if (cmd == "open" || cmd == "create" || cmd == "witness") {
    return std::string(cmd);
  }
  return "other";
}

net::HttpResponse serve(cloud::ShardRouter& router, ProviderTap& tap,
                        const net::HttpRequest& request) {
  ++tap.requests;
  tap.up_bytes += request.body.size();
  if (request.body.find(kCanaryMarker) != std::string::npos) ++tap.canary_hits;
  net::HttpResponse resp;
  if (!tap.recorder.tracing()) {
    resp = router.handle(request);
  } else {
    const std::string doc_id = request.query_param("docID").value_or("");
    pb::Span span;
    span.id = tap.recorder.new_id();
    span.op = tap.recorder.op_of(doc_id);
    span.name = "handler." + request_kind(request.body);
    span.bytes = request.body.size();
    pb::t_context = {span.id, span.op};
    span.start_ns = pb::now_ns();
    try {
      resp = router.handle(request);
    } catch (...) {
      pb::t_context = {};
      throw;
    }
    span.end_ns = pb::now_ns();
    pb::t_context = {};
    span.status = resp.status;
    tap.recorder.record(std::move(span));
  }
  tap.down_bytes += resp.body.size();
  if (resp.body.find(kCanaryMarker) != std::string::npos) ++tap.canary_hits;
  return resp;
}

// ----------------------------------------------------------------- chain

using Counters = std::map<std::string, double>;

void add_mediator(Counters& c, const extension::GDocsMediator::Counters& m) {
  c["mediator.full_saves_encrypted"] += m.full_saves_encrypted;
  c["mediator.opens_decrypted"] += m.opens_decrypted;
  c["mediator.requests_blocked"] += m.requests_blocked;
  c["mediator.bdelta_saves"] += m.bdelta_saves;
  c["mediator.bdelta_fallbacks"] += m.bdelta_fallbacks;
  c["mediator.bdelta_bytes"] += m.bdelta_bytes;
  c["mediator.audit_links_committed"] += m.audit_links_committed;
  c["mediator.audit_chain_retries"] += m.audit_chain_retries;
  c["mediator.witnesses_published"] += m.witnesses_published;
  c["mediator.journal_appends"] += m.journal_appends;
  // Each is a detected rollback, fork, equivocation or a server whose
  // content hash disagrees with the mediator's mirror: all must stay 0.
  c["mediator.integrity_errors"] +=
      m.audit_rollbacks + m.audit_forks + m.audit_equivocations +
      m.witness_suppressions + m.rollbacks_detected + m.ack_checksum_mismatches;
}

/// One deployment: the provider ring and one proxy per user, rooted at
/// `dir` (data_dir = dir/provider, journals = dir/journal-<user>).
class Chain {
 public:
  Chain(const Workload& w, const std::string& dir, std::uint64_t mediator_seed,
        ProviderTap& tap, bool timed_stores) {
    const std::string data_dir = dir + "/provider";
    std::vector<std::string> ids;
    for (int i = 0; i < kShards; ++i) ids.push_back("s" + std::to_string(i));
    cloud::ShardRouterConfig config;
    config.data_dir = data_dir;
    // Unbounded in-memory version history would make RSS grow with the
    // number of saves, i.e. with throughput; providers prune history.
    config.history_limit = kHistoryLimit;
    router_ = std::make_unique<cloud::ShardRouter>(ids, config);
    if (timed_stores) {
      // Same directories the router just opened, now behind TimedStore;
      // attached before any traffic, so nothing is loaded twice.
      pb::Recorder& rec = tap.recorder;
      for (const std::string& id : router_->members()) {
        const std::string shard_dir = data_dir + "/shard-" + id;
        cloud::GDocsServer& server = router_->shard_server(id);
        server.enable_persistence(std::make_unique<pb::TimedStore>(
            std::make_unique<cloud::FileStore>(shard_dir), "record", rec));
        server.enable_audit_persistence(std::make_unique<pb::TimedStore>(
            std::make_unique<cloud::FileStore>(shard_dir + "/.audit"), "audit",
            rec));
      }
      router_->tenants().enable_persistence(std::make_unique<pb::TimedStore>(
          std::make_unique<cloud::FileStore>(data_dir + "/tenants"), "tenant",
          rec));
    }
    cloud::ShardRouter* router = router_.get();
    provider_ = std::make_unique<net::HttpServer>(
        0, [router, &tap](const net::HttpRequest& r) {
          return serve(*router, tap, r);
        });
    for (int u = 0; u < w.users; ++u) {
      extension::MediatorConfig cfg;
      cfg.password = kPassword;
      cfg.scheme.mode = enc::Mode::kRpc;
      cfg.scheme.block_chars = 8;
      cfg.rng_factory = extension::seeded_rng_factory(
          mix(mediator_seed, static_cast<std::uint64_t>(u)));
      cfg.journal_dir = dir + "/journal-" + std::to_string(u);
      cfg.client_id = "user" + std::to_string(u);
      cfg.audit = true;
      cfg.block_delta_saves = true;
      proxies_.push_back(std::make_unique<extension::MediatingProxy>(
          0, provider_->port(), std::move(cfg)));
    }
  }

  ~Chain() {
    stop_proxies();
    if (provider_) provider_->stop();
  }

  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  std::uint16_t proxy_port(int user) const {
    return proxies_.at(static_cast<std::size_t>(user))->port();
  }

  /// Joins the proxies' workers: mediator counters are stable afterwards.
  void stop_proxies() {
    for (auto& p : proxies_) p->stop();
  }

  /// Mediator counters summed over users. Read only while no request is
  /// in flight (the proxies guard them with a private mutex).
  Counters mediator_counters() const {
    Counters c;
    for (const auto& p : proxies_) add_mediator(c, p->counters());
    return c;
  }

  Counters provider_counters() const {
    Counters c;
    const auto r = router_->counters();
    c["router.bad_requests"] = r.bad_requests;
    c["router.quota_rejections"] = r.quota_rejections;
    c["router.handoff_rejections"] = r.handoff_rejections;
    c["router.down_rejections"] = r.down_rejections;
    const auto t = router_->tenants().counters();
    c["tenant.doc_rejections"] = t.doc_rejections;
    c["tenant.byte_rejections"] = t.byte_rejections;
    const auto h = provider_->counters();
    c["provider_http.served"] = h.served;
    c["provider_http.write_failures"] = h.write_failures;
    c["provider_http.rejected_busy"] = h.rejected_busy;
    c["provider_http.dropped"] = h.dropped;
    c["provider_http.rejected_admission"] = h.rejected_admission;
    return c;
  }

 private:
  std::unique_ptr<cloud::ShardRouter> router_;
  std::unique_ptr<net::HttpServer> provider_;
  std::vector<std::unique_ptr<extension::MediatingProxy>> proxies_;
};

// ---------------------------------------------------------------- editor

/// A minimal GDocs editor speaking the form protocol to one proxy. It
/// builds each request (its own diff included) before the clock starts;
/// an op span covers only the round trip, send to ack.
class Editor {
 public:
  Editor(std::uint16_t proxy_port, pb::Recorder& recorder)
      : channel_(proxy_port), recorder_(recorder) {}

  bool create(Doc& doc) {
    FormData form;
    form.add("cmd", "create");
    const auto resp = exchange(doc.id, form.encode(), nullptr);
    if (!resp) return false;
    const FormData reply = FormData::parse(resp->body);
    doc.session = reply.get("session").value_or("");
    doc.rev = std::stoull(reply.get("rev").value_or("0"));
    return true;
  }

  bool save_full(Doc& doc, const char* span) {
    FormData form;
    form.add("session", doc.session);
    form.add("rev", std::to_string(doc.rev));
    form.add("docContents", doc.text);
    return acked(doc, exchange(doc.id, form.encode(), span));
  }

  bool save_delta(Doc& doc, const Edit& edit) {
    FormData form;
    form.add("session", doc.session);
    form.add("rev", std::to_string(doc.rev));
    form.add("delta", delta_wire(edit));
    apply(doc, edit);
    return acked(doc, exchange(doc.id, form.encode(), "op.save"));
  }

  /// Cold open; the content must be exactly the editor's copy.
  bool open(Doc& doc, const char* span) {
    FormData form;
    form.add("cmd", "open");
    const auto resp = exchange(doc.id, form.encode(), span);
    if (!resp) return false;
    const FormData reply = FormData::parse(resp->body);
    if (reply.get("content").value_or("") != doc.text) {
      return fail(doc.id, "open returned text that differs from the editor's");
    }
    doc.session = reply.get("session").value_or("");
    doc.rev = std::stoull(reply.get("rev").value_or("0"));
    return true;
  }

  const net::TcpChannel::Counters& net_counters() const {
    return channel_.counters();
  }

 private:
  std::optional<net::HttpResponse> exchange(const std::string& doc_id,
                                            std::string body,
                                            const char* span) {
    const net::HttpRequest request = net::HttpRequest::post_form(
        "/Doc?docID=" + percent_encode(doc_id), std::move(body));
    const std::uint64_t op = recorder_.new_id();
    recorder_.bind_doc(doc_id, op);
    std::optional<net::HttpResponse> resp;
    std::string error;
    const std::int64_t start = pb::now_ns();
    try {
      resp = channel_.round_trip(request);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::int64_t end = pb::now_ns();
    recorder_.unbind_doc(doc_id);
    if (span != nullptr) {
      recorder_.record({op, 0, op, span, start, end, request.body.size(),
                        resp ? resp->status : 0});
    }
    if (!resp) {
      fail(doc_id, error);
      return std::nullopt;
    }
    if (!resp->ok()) {
      fail(doc_id, "HTTP " + std::to_string(resp->status) + ": " +
                       resp->body.substr(0, 200));
      return std::nullopt;
    }
    return resp;
  }

  bool acked(Doc& doc, const std::optional<net::HttpResponse>& resp) {
    if (!resp) return false;
    const std::uint64_t rev =
        std::stoull(FormData::parse(resp->body).get("rev").value_or("0"));
    if (rev != doc.rev + 1) {
      return fail(doc.id, "ack revision " + std::to_string(rev) +
                              " after " + std::to_string(doc.rev));
    }
    doc.rev = rev;
    return true;
  }

  static bool fail(const std::string& doc_id, const std::string& why) {
    std::fprintf(stderr, "perfbench: %s: %s\n", doc_id.c_str(), why.c_str());
    return false;
  }

  net::TcpChannel channel_;
  pb::Recorder& recorder_;
};

/// Creates every document and seeds it with one full save through its
/// owner's proxy.
void seed_docs(const Chain& chain, const Workload& w, std::vector<Doc>& docs,
               pb::Recorder& recorder) {
  std::vector<std::unique_ptr<Editor>> editors;
  for (int u = 0; u < w.users; ++u) {
    editors.push_back(std::make_unique<Editor>(chain.proxy_port(u), recorder));
  }
  for (Doc& doc : docs) {
    Editor& editor = *editors[static_cast<std::size_t>(doc.user)];
    if (!editor.create(doc) || !editor.save_full(doc, nullptr)) {
      throw std::runtime_error("setup failed for " + doc.id);
    }
  }
}

// ------------------------------------------------------------ load loop

struct ThreadResult {
  std::size_t ops = 0;
  std::size_t failed = 0;
  net::TcpChannel::Counters net;
};

/// Runs `body(t, docs_of_t, proxy_port, result_t)` on one thread per editor
/// and joins them all. Thread t owns docs d with d % threads == t.
template <typename Body>
std::vector<ThreadResult> on_editor_threads(const Workload& w,
                                            std::vector<Doc>& docs,
                                            const Chain& chain, Body body) {
  std::vector<ThreadResult> results(static_cast<std::size_t>(w.threads));
  std::vector<std::thread> threads;
  for (int t = 0; t < w.threads; ++t) {
    std::vector<Doc*> mine;
    for (std::size_t d = static_cast<std::size_t>(t); d < docs.size();
         d += static_cast<std::size_t>(w.threads)) {
      mine.push_back(&docs[d]);
    }
    const std::uint16_t port = chain.proxy_port(mine.front()->user);
    ThreadResult& out = results[static_cast<std::size_t>(t)];
    threads.emplace_back([&body, &out, t, port, mine = std::move(mine)] {
      try {
        body(t, mine, port, out);
      } catch (const std::exception& e) {  // e.g. an unparseable reply
        std::fprintf(stderr, "perfbench: editor %d: %s\n", t, e.what());
        ++out.ops;
        ++out.failed;
      }
    });
  }
  for (auto& th : threads) th.join();
  return results;
}

/// One closed-loop editor: next op only after the previous ack.
void edit_until(const Workload& w, const std::vector<Doc*>& docs,
                Editor& editor, RandomSource& rng, std::int64_t deadline_ns,
                ProviderTap& tap, ThreadResult& out) {
  const auto count = [&out, &tap](bool ok) {
    ++out.ops;
    if (!ok) ++out.failed;
    tap.window_op_done();
    return ok;
  };
  while (pb::now_ns() < deadline_ns) {
    Doc& doc = *docs[rng.below(docs.size())];
    bool ok = true;
    switch (w.kind) {
      case Kind::kTyping: {
        if (rng.below(16) == 0) doc.cursor = edit_position(doc, rng);
        doc.cursor = std::clamp(doc.cursor, doc.canary_end, doc.text.size());
        const Edit e = bounded_edit(doc, w.slack, doc.cursor, burst(rng));
        doc.cursor = e.pos + e.insert.size();
        ok = count(editor.save_delta(doc, e));
        break;
      }
      case Kind::kFullSave:
        apply(doc, bounded_edit(doc, w.slack, edit_position(doc, rng),
                                sentence(rng)));
        ok = count(editor.save_full(doc, "op.save"));
        break;
      case Kind::kOpenMix:
        ok = count(editor.open(doc, "op.open")) &&
             count(editor.save_delta(
                 doc, bounded_edit(doc, w.slack, edit_position(doc, rng),
                                   sentence(rng))));
        break;
    }
    if (!ok) break;  // the doc's state is unknown from here on
  }
}

// ------------------------------------------------------- end-of-run gate

/// Scans every file under `dir` for the canary marker; returns hits.
std::size_t scan_for_canary(const fs::path& dir) {
  std::size_t hits = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (bytes.find(kCanaryMarker) != std::string::npos) {
      std::fprintf(stderr, "perfbench: canary found at rest in %s\n",
                   entry.path().c_str());
      ++hits;
    }
  }
  return hits;
}

/// Bytes at rest in the shards: document records plus .audit sidecars.
std::uint64_t shard_bytes(const fs::path& data_dir) {
  std::uint64_t total = 0;
  for (const auto& shard : fs::directory_iterator(data_dir)) {
    if (!shard.is_directory() ||
        shard.path().filename().string().rfind("shard-", 0) != 0) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(shard.path())) {
      if (entry.is_regular_file()) total += entry.file_size();
    }
  }
  return total;
}

/// Returns freed heap to the OS and restarts the kernel's peak-RSS count
/// (VmHWM) from the current RSS, so earlier set-ups do not count.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0;
}

// ----------------------------------------------------------------- output

void write_run_json(const std::string& path, const std::string& workload,
                    std::uint64_t seed, bool trace,
                    const std::vector<double>& setup_s,
                    std::int64_t window_start_ns, std::int64_t deadline_ns,
                    std::int64_t window_end_ns, const Counters& counters) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"trace\": " << (trace ? 1 : 0) << ", \"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    out << (i ? ", " : "") << setup_s[i];
  }
  out << "], \"window_start_ns\": " << window_start_ns
      << ", \"deadline_ns\": " << deadline_ns
      << ", \"window_end_ns\": " << window_end_ns << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "" : ", ") << '"' << name << "\": " << value;
    first = false;
  }
  out << "}}\n";
  std::ofstream file(path, std::ios::trunc);
  file << out.str();
  if (!file.flush()) throw std::runtime_error("cannot write " + path);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  int setups = 3;  // set-ups per run; setup_s is their median
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value != "0";
    } else if (key == "--out") {
      o.out = value;
    } else if (key == "--setups") {
      o.setups = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (o.workload.empty() || o.out.empty() || o.seconds <= 0 || o.setups < 1) {
    throw std::invalid_argument(
        "usage: e2e_bench --workload W --seed N --seconds S --trace 0|1 "
        "--out DIR [--setups K]");
  }
  return o;
}

Counters minus(Counters end, const Counters& start) {
  for (auto& [name, value] : end) {
    const auto it = start.find(name);
    if (it != start.end()) value -= it->second;
  }
  return end;
}

void add_results(Counters& c, const std::string& prefix,
                 const std::vector<ThreadResult>& results) {
  for (const ThreadResult& r : results) {
    c[prefix + ".ops"] += r.ops;
    c[prefix + ".failed"] += r.failed;
    c[prefix + "_net.attempts"] += r.net.attempts;
    c[prefix + "_net.retries"] += r.net.retries;
    c[prefix + "_net.giveups"] += r.net.giveups;
  }
}

int run(const Options& o) {
  const Workload w = workload_named(o.workload);
  fs::remove_all(o.out);
  fs::create_directories(o.out);
  pb::Recorder recorder(o.trace);
  ProviderTap tap(recorder);
  tap.sample_ops = w.wire_sample_ops;
  Counters counters;

  // Set-up, several times: boot ring + proxies, create and seed every doc.
  // The last deployment is the one measured; peak RSS counts from its
  // start.
  std::vector<double> setup_s;
  std::vector<Doc> docs;
  std::unique_ptr<Chain> chain;
  std::string dir;
  for (int i = 0; i < o.setups; ++i) {
    chain.reset();
    if (!dir.empty()) fs::remove_all(dir);
    if (i == o.setups - 1) reset_peak_rss();
    dir = o.out + "/deploy-" + std::to_string(i);
    docs = make_docs(o.workload, w, o.seed);
    const std::int64_t t0 = pb::now_ns();
    chain = std::make_unique<Chain>(w, dir, mix(o.seed, kMediatorStream), tap,
                                    o.trace);
    seed_docs(*chain, w, docs, recorder);
    setup_s.push_back(static_cast<double>(pb::now_ns() - t0) / 1e9);
  }

  // Measurement window: closed-loop editors until the deadline.
  const Counters mediator_start = chain->mediator_counters();
  const Counters provider_start = chain->provider_counters();
  const std::uint64_t req0 = tap.requests, up0 = tap.up_bytes,
                      down0 = tap.down_bytes;
  const std::int64_t window_start_ns = pb::now_ns();
  const std::int64_t deadline_ns =
      window_start_ns + static_cast<std::int64_t>(o.seconds * 1e9);
  const std::vector<ThreadResult> results = on_editor_threads(
      w, docs, *chain,
      [&](int t, std::vector<Doc*> mine, std::uint16_t port,
          ThreadResult& out) {
        Editor editor(port, recorder);
        Xoshiro256 rng(mix(o.seed, kEditStream + static_cast<std::uint64_t>(t)));
        edit_until(w, mine, editor, rng, deadline_ns, tap, out);
        out.net = editor.net_counters();
      });
  const std::int64_t window_end_ns = pb::now_ns();

  counters = minus(chain->provider_counters(), provider_start);
  counters["wire.requests"] = static_cast<double>(tap.requests - req0);
  if (tap.ops_done >= tap.sample_ops) {
    counters["wire.sample_ops"] = static_cast<double>(tap.sample_ops);
    counters["wire.sample_up_bytes"] = static_cast<double>(tap.sample_up - up0);
    counters["wire.sample_down_bytes"] =
        static_cast<double>(tap.sample_down - down0);
  } else {  // the window fell short of the sample: report what it has
    std::fprintf(stderr, "perfbench: only %llu window ops, %llu sampled\n",
                 static_cast<unsigned long long>(tap.ops_done.load()),
                 static_cast<unsigned long long>(tap.sample_ops));
    counters["wire.sample_ops"] = static_cast<double>(tap.ops_done);
    counters["wire.sample_up_bytes"] = static_cast<double>(tap.up_bytes - up0);
    counters["wire.sample_down_bytes"] =
        static_cast<double>(tap.down_bytes - down0);
  }
  add_results(counters, "editor", results);
  for (const auto& [k, v] :
       minus(chain->mediator_counters(), mediator_start)) {
    counters[k] = v;
  }

  // Open latency for workloads whose window has no opens: a fixed number
  // of cold opens per doc through the same mediators.
  if (w.phase_opens > 0) {
    add_results(counters, "open_phase",
                on_editor_threads(
                    w, docs, *chain,
                    [&](int, std::vector<Doc*> mine, std::uint16_t port,
                        ThreadResult& out) {
                      Editor editor(port, recorder);
                      for (int k = 0; k < w.phase_opens; ++k) {
                        for (Doc* doc : mine) {
                          ++out.ops;
                          if (!editor.open(*doc, "phase.open")) ++out.failed;
                        }
                      }
                      out.net = editor.net_counters();
                    }));
  }
  chain->stop_proxies();
  double integrity_errors =
      chain->mediator_counters().at("mediator.integrity_errors");

  // Correctness gate. At rest: blow-up and canary scan.
  const fs::path data_dir = fs::path(dir) / "provider";
  counters["store.bytes_at_rest"] = static_cast<double>(shard_bytes(data_dir));
  for (const Doc& doc : docs) {
    counters["doc.plaintext_chars"] += static_cast<double>(doc.text.size());
  }
  counters["canary.disk_hits"] = static_cast<double>(scan_for_canary(data_dir));

  // Restart the ring from its data_dir and cold-open every document through
  // fresh mediators (same journals, so rollback/fork checks apply).
  chain.reset();
  {
    Chain restarted(w, dir, mix(o.seed, kVerifyMediatorStream), tap, false);
    std::vector<std::unique_ptr<Editor>> editors;
    for (int u = 0; u < w.users; ++u) {
      editors.push_back(
          std::make_unique<Editor>(restarted.proxy_port(u), recorder));
    }
    for (Doc& doc : docs) {
      ++counters["verify.checks"];
      if (!editors[static_cast<std::size_t>(doc.user)]->open(doc,
                                                             "verify.open")) {
        ++counters["verify.failures"];
      }
    }
    restarted.stop_proxies();
    integrity_errors +=
        restarted.mediator_counters().at("mediator.integrity_errors");
  }
  counters["integrity.errors"] = integrity_errors;
  counters["canary.wire_hits"] = static_cast<double>(tap.canary_hits);
  counters["rss.peak_kb"] = peak_rss_kb();

  recorder.write_tsv(o.out + "/spans.tsv");
  write_run_json(o.out + "/run.json", o.workload, o.seed, o.trace, setup_s,
                 window_start_ns, deadline_ns, window_end_ns, counters);
  fs::remove_all(dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
