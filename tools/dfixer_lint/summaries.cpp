#include "dfixer_lint/summaries.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <tuple>
#include <utility>

namespace dfx::lint {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

std::size_t match_paren_like(const std::vector<Token>& toks, std::size_t open,
                             std::size_t limit) {
  const std::string_view o = toks[open].text;
  const std::string_view c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t j = open; j < limit; ++j) {
    if (toks[j].text == o) ++depth;
    if (toks[j].text == c && --depth == 0) return j;
  }
  return kNone;
}

/// Index of the `>` closing the template-argument list opened at `open`
/// (a `<` token), or kNone when the region does not look like one.
std::size_t angle_close(const std::vector<Token>& toks, std::size_t open,
                        std::size_t limit) {
  int depth = 0;
  const std::size_t scan_limit = std::min(limit, open + 128);
  for (std::size_t j = open; j < scan_limit; ++j) {
    const Token& t = toks[j];
    const std::string_view x = t.text;
    if (x == "<") {
      ++depth;
      continue;
    }
    if (x == ">") {
      if (--depth == 0) return j;
      continue;
    }
    if (t.kind == Tok::kIdent || t.kind == Tok::kNumber) continue;
    if (x == "::" || x == "," || x == "*" || x == "&" || x == "&&" ||
        x == "...") {
      continue;
    }
    if (x == "(" || x == "[") {
      const std::size_t close = match_paren_like(toks, j, scan_limit);
      if (close == kNone) return kNone;
      j = close;
      continue;
    }
    return kNone;
  }
  return kNone;
}

std::string_view last_component(std::string_view qual) {
  const std::size_t pos = qual.rfind("::");
  return pos == std::string_view::npos ? qual : qual.substr(pos + 2);
}

std::string trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return std::string(s);
}

// ---------------------------------------------------------------------------
// The external-effect model: a curated allowlist of allocating / throwing
// names. Everything not listed and not defined in the analyzed files is
// assumed effect-free (documented in docs/STATIC_ANALYSIS.md; the
// --callgraph-dump external inventory exists to audit that assumption).
// ---------------------------------------------------------------------------

bool is_alloc_free_call(std::string_view w) {
  return w == "malloc" || w == "calloc" || w == "realloc" || w == "strdup" ||
         w == "aligned_alloc" || w == "make_unique" || w == "make_shared" ||
         w == "to_string" || w == "format";
}

/// Member calls that may grow their container. `insert` is deliberately
/// absent: the repo's cache-fill methods share the name and carry their own
/// summaries; keeping it here would double-report every cold cache insert.
bool is_growth_member(std::string_view w) {
  return w == "push_back" || w == "emplace_back" || w == "emplace" ||
         w == "append" || w == "assign" || w == "resize" || w == "reserve" ||
         w == "substr" || w == "str";
}

bool is_throwing_member(std::string_view w) {
  return w == "at" || w == "value";
}

bool is_throwing_free_call(std::string_view w) {
  return w == "stoi" || w == "stol" || w == "stoll" || w == "stoul" ||
         w == "stoull" || w == "stof" || w == "stod";
}

bool is_alloc_type_name(std::string_view w) {
  return w == "string" || w == "vector" || w == "Bytes";
}

/// The RAII guards whose declaration acquires a lock: MutexLock over a
/// Mutex, ReaderLock/WriterLock over the two sides of a ReadMostlyMutex.
/// Both sides of one ReadMostlyMutex unify on the same lock id.
bool is_lock_guard(std::string_view x) {
  return x == "MutexLock" || x == "ReaderLock" || x == "WriterLock";
}

bool is_writer_lock_id(std::string_view id) {
  return id.find("write") != std::string_view::npos;
}

bool in_taint_scope(const std::string& path) {
  static constexpr std::string_view kScope[] = {
      "dnscore/", "crypto/", "zone/", "authserver/", "server/", "dataflow/"};
  for (const std::string_view s : kScope) {
    if (path.find(s) != std::string::npos) return true;
  }
  return false;
}

/// Token ranges of CFGs nested inside `outer` in the same file — lambda
/// bodies, which the taint scan must skip (same policy as the
/// intraprocedural rule).
std::vector<std::pair<std::size_t, std::size_t>> holes_for(
    const std::vector<Cfg>& cfgs, const Cfg& outer) {
  std::vector<std::pair<std::size_t, std::size_t>> holes;
  for (const Cfg& inner : cfgs) {
    if (inner.body_open > outer.body_open &&
        inner.body_close < outer.body_close) {
      holes.emplace_back(inner.body_open, inner.body_close + 1);
    }
  }
  return holes;
}

/// Declared parameter names, in order. Name-based like everything else: the
/// last top-level identifier before each `,` (or before `= default`), with
/// brackets and template-argument lists skipped as groups.
std::vector<std::string> parse_params(const std::vector<Token>& toks,
                                      const Cfg& cfg) {
  std::vector<std::string> params;
  std::string_view last_ident;
  bool in_default = false;
  int depth = 0;
  for (std::size_t j = cfg.params_begin;
       j < cfg.params_end && j < toks.size(); ++j) {
    const Token& t = toks[j];
    const std::string_view x = t.text;
    if (x == "(" || x == "[" || x == "{" || x == "<") {
      ++depth;
      continue;
    }
    if (x == ")" || x == "]" || x == "}" || x == ">") {
      --depth;
      continue;
    }
    if (depth != 0) continue;
    if (x == ",") {
      if (!last_ident.empty() && last_ident != "void") {
        params.emplace_back(last_ident);
      }
      last_ident = {};
      in_default = false;
      continue;
    }
    if (x == "=") {
      in_default = true;
      continue;
    }
    if (!in_default && t.kind == Tok::kIdent) last_ident = x;
  }
  if (!last_ident.empty() && last_ident != "void") {
    params.emplace_back(last_ident);
  }
  return params;
}

/// Immutable per-node facts gathered in one body walk, before the SCC
/// fixpoint starts composing them.
struct NodeScratch {
  bool d_alloc = false;
  std::string d_alloc_w;
  bool d_throw = false;
  std::string d_throw_w;
  bool d_lock = false;
  bool d_lock_writer = false;
  std::string d_lock_w;
  std::vector<std::pair<std::size_t, std::size_t>> holes;
  std::vector<char> param_used;  // parallel to FnSummary::params
  bool has_sink_tokens = false;  // any index/resize/memcpy/loop shape
  bool has_return = false;
};

/// Locks held at one resolved call site — the raw material for the
/// call-induced lock-order edges, expanded once the transitive
/// locks_held_any sets are final.
struct CallCtx {
  std::vector<std::size_t> callees;
  std::vector<std::string> held;
  std::string file;
  std::size_t line = 0;
};

std::string at_loc(const std::string& file, std::size_t line) {
  return " at " + file + ":" + std::to_string(line);
}

/// One walk over a node's body: direct effects, MutexLock acquisitions with
/// a brace-depth scope stack (emitting in-body nesting edges), and the
/// held-locks context of every resolved call site.
void scan_body(const CallGraph& g, std::size_t ni, FnSummary& s,
               NodeScratch& sc, std::vector<LockEdge>* edges,
               std::vector<CallCtx>* ctxs) {
  const CgNode& n = g.nodes()[ni];
  const std::vector<Token>& toks = g.files()[n.file_index]->tokens;
  const Cfg& cfg = g.cfg_of(n);
  // The Mutex wrapper itself acquires the underlying std::mutex; scanning
  // it would wire every lock in the program to a phantom id.
  const bool scan_locks =
      n.file.find("util/thread_annotations") == std::string::npos;
  struct Held {
    std::string id;
    int depth;
  };
  std::vector<Held> held;
  int depth = 0;
  std::size_t ci = 0;
  const std::size_t end = std::min(cfg.body_close + 1, toks.size());
  for (std::size_t j = cfg.body_open; j < end; ++j) {
    const Token& t = toks[j];
    const std::string_view x = t.text;
    if (x == "{") {
      ++depth;
      continue;
    }
    if (x == "}") {
      --depth;
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      continue;
    }
    while (ci < n.calls.size() && n.calls[ci].token < j) ++ci;
    if (ci < n.calls.size() && n.calls[ci].token == j && !held.empty() &&
        !n.calls[ci].callees.empty()) {
      CallCtx c;
      c.callees = n.calls[ci].callees;
      for (const Held& h : held) c.held.push_back(h.id);
      c.file = n.file;
      c.line = t.line;
      ctxs->push_back(std::move(c));
    }
    if (x == "[" || x == "while" || x == "for" || x == "memcpy" ||
        x == "memmove" || x == "memset" || x == "resize" || x == "reserve") {
      sc.has_sink_tokens = true;
    }
    if (t.kind != Tok::kIdent) continue;
    if (x == "return") {
      sc.has_return = true;
      continue;
    }
    if (x == "new") {
      if (!sc.d_alloc) {
        sc.d_alloc = true;
        sc.d_alloc_w = "`new`" + at_loc(n.file, t.line);
      }
      continue;
    }
    if (x == "throw") {
      if (!sc.d_throw) {
        sc.d_throw = true;
        sc.d_throw_w = "`throw`" + at_loc(n.file, t.line);
      }
      continue;
    }
    if (scan_locks && is_lock_guard(x) && j + 2 < end &&
        toks[j + 1].kind == Tok::kIdent &&
        (toks[j + 2].text == "(" || toks[j + 2].text == "{")) {
      const std::size_t close = match_paren_like(toks, j + 2, end);
      if (close == kNone) continue;
      // The mutex is the first argument: `MutexLock l(mu_, std::adopt_lock)`
      // names its tag second.
      std::size_t arg_end = j + 3;
      for (int depth = 0; arg_end < close; ++arg_end) {
        const std::string_view y = toks[arg_end].text;
        if (y == "(" || y == "[" || y == "{") ++depth;
        if (y == ")" || y == "]" || y == "}") --depth;
        if (y == "," && depth == 0) break;
      }
      std::string_view lock_ident;
      bool memberish = false;
      for (std::size_t k = j + 3; k < arg_end; ++k) {
        const std::string_view y = toks[k].text;
        if (y == "." || y == "->" || y == "[") memberish = true;
        if (toks[k].kind == Tok::kIdent) lock_ident = y;
      }
      if (lock_ident.empty()) {
        j = close;
        continue;
      }
      if (arg_end == j + 4 && lock_ident.ends_with("_")) memberish = true;
      // Member mutexes unify on Class::field so acquisition order is
      // compared across methods; bare locals stay file#function scoped so
      // unrelated same-named locals cannot fabricate cross-file cycles.
      std::string id;
      if (memberish && !n.qualifier.empty()) {
        id = std::string(last_component(n.qualifier)) + "::" +
             std::string(lock_ident);
      } else if (memberish) {
        id = n.file + "#" + std::string(lock_ident);
      } else {
        id = n.file + "#" + n.name + "#" + std::string(lock_ident);
      }
      sc.d_lock = true;
      // The read side of a ReadMostlyMutex never excludes readers, and its
      // write side always does; a plain MutexLock is judged by its id.
      const bool writer =
          x == "WriterLock" || (x == "MutexLock" && is_writer_lock_id(id));
      if (sc.d_lock_w.empty() || (writer && !sc.d_lock_writer)) {
        const char* side = x == "WriterLock"   ? "the write side of "
                           : x == "ReaderLock" ? "the read side of "
                                               : "";
        sc.d_lock_w = std::string("acquires ") + side + "'" + id + "'" +
                      at_loc(n.file, t.line);
      }
      if (writer) sc.d_lock_writer = true;
      for (const Held& h : held) {
        edges->push_back({h.id, id, n.file, t.line, false});
      }
      held.push_back({id, depth});
      s.own_locks.push_back(id);
      j = close;
      continue;
    }
    const bool member =
        j > cfg.body_open &&
        (toks[j - 1].text == "." || toks[j - 1].text == "->");
    if (is_alloc_type_name(x) && !member) {
      // `std::string(...)` / `std::vector<T> v(...)` style construction
      // with arguments. Trailing return types (`-> std::string {`) are the
      // one shape where `{` after the type is a body, not an initializer.
      std::size_t cs = j;
      while (cs >= 2 && toks[cs - 1].text == "::" &&
             toks[cs - 2].kind == Tok::kIdent) {
        cs -= 2;
      }
      if (cs > 0 && toks[cs - 1].text == "->") continue;
      std::size_t k = j + 1;
      if (k < end && toks[k].text == "<") {
        const std::size_t ac = angle_close(toks, k, end);
        if (ac == kNone) continue;
        k = ac + 1;
      }
      bool alloc = false;
      if (k < end && (toks[k].text == "(" || toks[k].text == "{")) {
        const std::size_t close = match_paren_like(toks, k, end);
        alloc = close != kNone && close > k + 1;
      } else if (k + 1 < end && toks[k].kind == Tok::kIdent) {
        if (toks[k + 1].text == "(" || toks[k + 1].text == "{") {
          const std::size_t close = match_paren_like(toks, k + 1, end);
          alloc = close != kNone && close > k + 2;
        } else if (toks[k + 1].text == "=") {
          alloc = true;
        }
      }
      if (alloc && !sc.d_alloc) {
        sc.d_alloc = true;
        sc.d_alloc_w =
            std::string(x) + " construction" + at_loc(n.file, t.line);
      }
      continue;
    }
    std::size_t paren = kNone;
    if (j + 1 < end && toks[j + 1].text == "(") {
      paren = j + 1;
    } else if (j + 1 < end && toks[j + 1].text == "<") {
      const std::size_t ac = angle_close(toks, j + 1, end);
      if (ac != kNone && ac + 1 < end && toks[ac + 1].text == "(") {
        paren = ac + 1;
      }
    }
    if (paren == kNone) continue;
    if (member) {
      if (is_growth_member(x) && !sc.d_alloc) {
        sc.d_alloc = true;
        sc.d_alloc_w = "`." + std::string(x) + "()`" + at_loc(n.file, t.line);
      } else if (is_throwing_member(x) && !sc.d_throw) {
        sc.d_throw = true;
        sc.d_throw_w = "`." + std::string(x) + "()`" + at_loc(n.file, t.line);
      }
    } else {
      if (is_alloc_free_call(x) && !sc.d_alloc) {
        sc.d_alloc = true;
        sc.d_alloc_w = "call to " + std::string(x) + at_loc(n.file, t.line);
      } else if (is_throwing_free_call(x) && !sc.d_throw) {
        sc.d_throw = true;
        sc.d_throw_w = "call to " + std::string(x) + at_loc(n.file, t.line);
      }
    }
  }
}

}  // namespace

TaintConfig enriched_taint_config(const ProgramAnalysis& pa,
                                  std::size_t node_index) {
  TaintConfig c = pa.base_taint;
  const CgNode& n = pa.graph.nodes()[node_index];
  // A call name is "neutral" (result provably clean, so eval may skip the
  // whole call expression) only when EVERY resolved definition of that name
  // is neutral — same-name collisions stay conservative.
  std::map<std::string, bool, std::less<>> neutral;
  for (const CgCall& call : n.calls) {
    if (call.external) continue;
    for (const std::size_t t : call.callees) {
      const FnSummary& cs = pa.summaries[t];
      bool callee_neutral = !cs.returns_taint;
      if (cs.returns_taint) {
        c.source_calls.insert(call.name);
      } else if (std::find(cs.param_to_return.begin(),
                           cs.param_to_return.end(),
                           true) != cs.param_to_return.end()) {
        c.passthrough_calls.insert(call.name);
        callee_neutral = false;
      }
      if (std::find(cs.param_to_sink.begin(), cs.param_to_sink.end(), true) !=
          cs.param_to_sink.end()) {
        std::vector<bool>& flags = c.sink_params[call.name];
        if (flags.size() < cs.param_to_sink.size()) {
          flags.resize(cs.param_to_sink.size(), false);
        }
        for (std::size_t k = 0; k < cs.param_to_sink.size(); ++k) {
          if (cs.param_to_sink[k]) flags[k] = true;
        }
      }
      auto [it, inserted] = neutral.emplace(call.name, callee_neutral);
      if (!inserted) it->second = it->second && callee_neutral;
    }
  }
  for (const auto& [name, ok] : neutral) {
    if (ok && !c.source_calls.contains(name) &&
        !c.passthrough_calls.contains(name)) {
      c.neutral_calls.insert(name);
    }
  }
  return c;
}

ProgramAnalysis analyze_program(std::vector<const FileAnalysis*> files,
                                const SymbolIndex* symbols) {
  ProgramAnalysis pa;
  pa.graph = CallGraph::build(std::move(files));
  const CallGraph& g = pa.graph;

  // Annotations: the analyzed files always contribute; an external index
  // (the CLI's src/-wide sweep) is merged in when supplied.
  SymbolIndex local;
  for (const FileAnalysis* fa : g.files()) {
    local.index_source(fa->path, fa->tokens);
  }
  std::set<std::string, std::less<>> hot(local.hot_path_fns());
  std::map<std::string, bool, std::less<>> cold(local.cold_fns());
  pa.base_taint.source_calls = local.taint_source_calls();
  pa.base_taint.tainted_fields = local.taint_fields();
  pa.base_taint.passthrough_calls = local.taint_passthrough_calls();
  if (symbols != nullptr) {
    hot.insert(symbols->hot_path_fns().begin(), symbols->hot_path_fns().end());
    for (const auto& [name, has_reason] : symbols->cold_fns()) {
      auto [it, inserted] = cold.emplace(name, has_reason);
      if (!inserted && has_reason) it->second = true;
    }
    pa.base_taint.source_calls.insert(symbols->taint_source_calls().begin(),
                                      symbols->taint_source_calls().end());
    pa.base_taint.tainted_fields.insert(symbols->taint_fields().begin(),
                                        symbols->taint_fields().end());
    pa.base_taint.passthrough_calls.insert(
        symbols->taint_passthrough_calls().begin(),
        symbols->taint_passthrough_calls().end());
  }

  const std::size_t count = g.nodes().size();
  pa.summaries.resize(count);
  std::vector<NodeScratch> scratch(count);
  std::vector<CallCtx> ctxs;
  for (std::size_t i = 0; i < count; ++i) {
    const CgNode& n = g.nodes()[i];
    FnSummary& s = pa.summaries[i];
    s.hot = hot.count(n.name) != 0;
    const auto cit = cold.find(n.name);
    if (cit != cold.end()) {
      s.cold = true;
      s.cold_missing_reason = !cit->second;
    }
    const std::vector<Token>& toks = g.files()[n.file_index]->tokens;
    const Cfg& cfg = g.cfg_of(n);
    s.params = parse_params(toks, cfg);
    NodeScratch& sc = scratch[i];
    sc.holes = holes_for(g.cfgs_for(n.file_index), cfg);
    scan_body(g, i, s, sc, &pa.lock_edges, &ctxs);
    sc.param_used.assign(s.params.size(), 0);
    for (std::size_t j = cfg.body_open; j < cfg.body_close &&
                                       j < toks.size(); ++j) {
      if (toks[j].kind != Tok::kIdent) continue;
      for (std::size_t p = 0; p < s.params.size(); ++p) {
        if (sc.param_used[p] == 0 && toks[j].text == s.params[p]) {
          sc.param_used[p] = 1;
        }
      }
    }
  }

  // Bottom-up summary composition in SCC order. Singleton non-recursive
  // components converge in one pass; recursion cycles get a short fixpoint
  // (the lattice is tiny: a handful of monotone bits plus growing sets).
  const auto fingerprint = [](const FnSummary& s) {
    return std::tuple(s.allocates, s.throws, s.locks, s.locks_writer,
                      s.returns_taint, s.param_to_sink, s.param_to_return,
                      s.locks_held_any.size());
  };
  const auto compute = [&](std::size_t i) {
    const CgNode& n = g.nodes()[i];
    FnSummary& s = pa.summaries[i];
    const NodeScratch& sc = scratch[i];
    s.allocates = sc.d_alloc;
    s.alloc_witness = sc.d_alloc_w;
    s.throws = sc.d_throw;
    s.throw_witness = sc.d_throw_w;
    s.locks = sc.d_lock;
    s.locks_writer = sc.d_lock_writer;
    s.lock_witness = sc.d_lock_w;
    s.locks_held_any.clear();
    s.locks_held_any.insert(s.own_locks.begin(), s.own_locks.end());
    for (const CgCall& call : n.calls) {
      if (call.callees.empty()) continue;
      // Consensus propagation: with name-based resolution an ambiguous
      // call (several same-name candidates) contributes an effect or a
      // lock only when EVERY candidate carries it. Overload sets of one
      // logical function agree and still propagate; accidental collisions
      // (`misses_.add()` resolving to the zone builder's `add`) disagree
      // and cancel instead of poisoning every caller of a common name.
      constexpr std::size_t npos = static_cast<std::size_t>(-1);
      bool all_alloc = true;
      bool all_throw = true;
      bool all_lock = true;
      bool all_writer = true;
      std::size_t alloc_wit = npos;
      std::size_t throw_wit = npos;
      std::size_t writer_wit = npos;
      std::set<std::string> lock_isect;
      bool first_cand = true;
      for (const std::size_t t : call.callees) {
        const FnSummary& cs = pa.summaries[t];
        // Lock-set propagation never stops at hot/cold: order soundness
        // needs every transitively reachable acquisition — but it still
        // takes the candidate consensus (set intersection).
        if (first_cand) {
          lock_isect = cs.locks_held_any;
        } else {
          std::set<std::string> keep;
          for (const std::string& l : cs.locks_held_any) {
            if (lock_isect.count(l) != 0) keep.insert(l);
          }
          lock_isect = std::move(keep);
        }
        first_cand = false;
        if (!cs.locks) all_lock = false;
        // Effects stop at hot callees (they report their own findings) and
        // at DFX_COLD callees (the audited escape hatch).
        const bool opaque = cs.hot || cs.cold;
        if (opaque || !cs.locks_writer) {
          all_writer = false;
        } else if (writer_wit == npos) {
          writer_wit = t;
        }
        if (opaque || !cs.allocates) {
          all_alloc = false;
        } else if (alloc_wit == npos) {
          alloc_wit = t;
        }
        if (opaque || !cs.throws) {
          all_throw = false;
        } else if (throw_wit == npos) {
          throw_wit = t;
        }
      }
      s.locks_held_any.insert(lock_isect.begin(), lock_isect.end());
      if (all_lock) s.locks = true;
      if (all_alloc && !s.allocates) {
        s.allocates = true;
        s.alloc_witness = "via " + g.nodes()[alloc_wit].qualified() + ": " +
                          pa.summaries[alloc_wit].alloc_witness;
      }
      if (all_throw && !s.throws) {
        s.throws = true;
        s.throw_witness = "via " + g.nodes()[throw_wit].qualified() + ": " +
                          pa.summaries[throw_wit].throw_witness;
      }
      if (all_writer && !s.locks_writer) {
        s.locks_writer = true;
        s.locks = true;
        s.lock_witness = "via " + g.nodes()[writer_wit].qualified() + ": " +
                         pa.summaries[writer_wit].lock_witness;
      }
    }
    // Taint transfer by differential runs: a baseline pass with the
    // enriched config, then one pass per parameter seeded kTainted; any
    // finding or tainted return the baseline lacks is attributed to that
    // parameter.
    const std::vector<Token>& toks = g.files()[n.file_index]->tokens;
    const Cfg& cfg = g.cfg_of(n);
    const TaintConfig ecfg = enriched_taint_config(pa, i);
    const TaintAnalysis base = analyze_taint(cfg, toks, ecfg, sc.holes);
    s.returns_taint = base.returns_tainted ||
                      pa.base_taint.source_calls.count(n.name) != 0;
    s.param_to_sink.assign(s.params.size(), false);
    s.param_to_return.assign(s.params.size(), false);
    bool body_has_sink = sc.has_sink_tokens;
    for (const CgCall& call : n.calls) {
      if (body_has_sink) break;
      if (ecfg.sink_params.count(call.name) != 0) body_has_sink = true;
    }
    if (s.params.size() <= 8 && (body_has_sink || sc.has_return)) {
      std::set<std::size_t> base_tokens;
      for (const TaintFinding& f : base.findings) base_tokens.insert(f.token);
      for (std::size_t p = 0; p < s.params.size(); ++p) {
        if (sc.param_used[p] == 0) continue;
        TaintConfig seeded = ecfg;
        seeded.seed_params = {s.params[p]};
        const TaintAnalysis run = analyze_taint(cfg, toks, seeded, sc.holes);
        for (const TaintFinding& f : run.findings) {
          if (base_tokens.count(f.token) == 0) {
            s.param_to_sink[p] = true;
            break;
          }
        }
        if (run.returns_tainted && !base.returns_tainted) {
          s.param_to_return[p] = true;
        }
      }
    }
  };
  for (const std::vector<std::size_t>& comp : g.sccs()) {
    bool recursive = comp.size() > 1;
    if (!recursive) {
      for (const CgCall& call : g.nodes()[comp[0]].calls) {
        if (std::find(call.callees.begin(), call.callees.end(), comp[0]) !=
            call.callees.end()) {
          recursive = true;
          break;
        }
      }
    }
    const int iters = recursive ? 3 : 1;
    for (int it = 0; it < iters; ++it) {
      bool changed = false;
      for (const std::size_t i : comp) {
        const auto before = fingerprint(pa.summaries[i]);
        compute(i);
        if (fingerprint(pa.summaries[i]) != before) changed = true;
      }
      if (!changed) break;
    }
  }

  // Call-induced lock-order edges, now that locks_held_any is final:
  // holding H while calling something that may acquire L orders H before L.
  // Self-edges via calls are dropped — with name-based resolution a
  // `map.insert(...)` under a lock aliases any same-named method and would
  // fabricate re-entrancy; clang's thread-safety analysis (DFX_EXCLUDES,
  // double acquire) owns that class of bug.
  // The callee lock set takes the same candidate consensus as summary
  // propagation: an ambiguous name only contributes locks every candidate
  // agrees on, so a `.find()` that aliases both a locked registry accessor
  // and a plain map helper fabricates no edge.
  for (const CallCtx& c : ctxs) {
    std::set<std::string> locks;
    bool first = true;
    for (const std::size_t t : c.callees) {
      const std::set<std::string>& cand = pa.summaries[t].locks_held_any;
      if (first) {
        locks = cand;
        first = false;
        continue;
      }
      std::set<std::string> keep;
      for (const std::string& l : cand) {
        if (locks.count(l) != 0) keep.insert(l);
      }
      locks = std::move(keep);
    }
    for (const std::string& l : locks) {
      for (const std::string& h : c.held) {
        if (h == l) continue;
        pa.lock_edges.push_back({h, l, c.file, c.line, true});
      }
    }
  }
  std::set<std::pair<std::string, std::string>> seen_edges;
  std::vector<LockEdge> dedup;
  for (LockEdge& e : pa.lock_edges) {
    if (seen_edges.emplace(e.from, e.to).second) {
      dedup.push_back(std::move(e));
    }
  }
  pa.lock_edges = std::move(dedup);
  std::sort(pa.lock_edges.begin(), pa.lock_edges.end());

  // Cycle detection over the lock-id graph (self-loops included: a direct
  // re-acquisition edge is a one-node cycle).
  std::map<std::string, std::vector<std::string>> adj;
  std::map<std::string, int> color;  // 0 white, 1 on path, 2 done
  for (const LockEdge& e : pa.lock_edges) {
    adj[e.from].push_back(e.to);
    color[e.from] = 0;
    color[e.to] = 0;
  }
  std::set<std::string> cycle_keys;
  for (const auto& [start, c0] : color) {
    if (color[start] != 0) continue;
    struct Frame {
      std::string node;
      std::size_t next = 0;
    };
    std::vector<Frame> st;
    std::vector<std::string> path;
    st.push_back({start, 0});
    path.push_back(start);
    color[start] = 1;
    while (!st.empty()) {
      Frame& f = st.back();
      const std::vector<std::string>& nbrs = adj[f.node];
      if (f.next < nbrs.size()) {
        const std::string w = nbrs[f.next++];
        if (color[w] == 0) {
          color[w] = 1;
          path.push_back(w);
          st.push_back({w, 0});
        } else if (color[w] == 1) {
          const auto it = std::find(path.begin(), path.end(), w);
          std::vector<std::string> cyc(it, path.end());
          const auto min_it = std::min_element(cyc.begin(), cyc.end());
          std::rotate(cyc.begin(), min_it, cyc.end());
          std::string key;
          for (const std::string& id : cyc) key += id + "\x1f";
          if (cycle_keys.insert(key).second) {
            pa.lock_cycles.push_back(std::move(cyc));
          }
        }
      } else {
        color[f.node] = 2;
        path.pop_back();
        st.pop_back();
      }
    }
  }
  return pa;
}

std::vector<Violation> lint_interprocedural(const ProgramAnalysis& pa) {
  std::vector<Violation> out;
  const CallGraph& g = pa.graph;
  std::map<std::string_view, const FileAnalysis*> by_path;
  for (const FileAnalysis* fa : g.files()) by_path[fa->path] = fa;

  const auto emit = [&](const std::string& file, std::size_t line,
                        const char* rule, std::string msg) {
    const auto it = by_path.find(file);
    const FileAnalysis* fa = it == by_path.end() ? nullptr : it->second;
    const std::size_t li = line > 0 ? line - 1 : 0;
    if (fa != nullptr && line_suppressed(*fa, li, rule)) return;
    Violation v;
    v.file = file;
    v.line = line;
    v.rule = rule;
    v.severity = severity_of(rule);
    v.message = std::move(msg);
    if (fa != nullptr && li < fa->raw_lines.size()) {
      v.excerpt = trim(fa->raw_lines[li]);
    }
    out.push_back(std::move(v));
  };

  // hot-path-cost: one finding per (function, effect kind) at the
  // definition line, so a single reasoned allow-comment waives a function.
  for (std::size_t i = 0; i < g.nodes().size(); ++i) {
    const CgNode& n = g.nodes()[i];
    const FnSummary& s = pa.summaries[i];
    if (s.cold && s.cold_missing_reason) {
      emit(n.file, n.line, "hot-path-cost",
           "DFX_COLD on '" + n.qualified() +
               "' has no reason string; write DFX_COLD(\"why\")");
    }
    if (!s.hot) continue;
    if (s.allocates) {
      emit(n.file, n.line, "hot-path-cost",
           "DFX_HOT_PATH function '" + n.qualified() +
               "' may allocate: " + s.alloc_witness);
    }
    if (s.locks_writer) {
      emit(n.file, n.line, "hot-path-cost",
           "DFX_HOT_PATH function '" + n.qualified() +
               "' may acquire a writer mutex: " + s.lock_witness);
    }
    if (s.throws) {
      emit(n.file, n.line, "hot-path-cost",
           "DFX_HOT_PATH function '" + n.qualified() +
               "' may throw: " + s.throw_witness);
    }
  }

  // interprocedural-taint-flow: findings the enriched config produces that
  // the annotation-only config does not — flows that exist only because a
  // helper's summary carried taint across a call boundary.
  for (std::size_t i = 0; i < g.nodes().size(); ++i) {
    const CgNode& n = g.nodes()[i];
    if (!in_taint_scope(n.file)) continue;
    const std::vector<Token>& toks = g.files()[n.file_index]->tokens;
    const Cfg& cfg = g.cfg_of(n);
    const auto holes = holes_for(g.cfgs_for(n.file_index), cfg);
    const TaintConfig ecfg = enriched_taint_config(pa, i);
    if (ecfg.source_calls.size() == pa.base_taint.source_calls.size() &&
        ecfg.passthrough_calls.size() ==
            pa.base_taint.passthrough_calls.size() &&
        ecfg.sink_params.empty()) {
      continue;  // nothing interprocedural reaches this function
    }
    std::set<std::pair<std::size_t, std::string>> base_keys;
    for (const TaintFinding& f :
         analyze_taint(cfg, toks, pa.base_taint, holes).findings) {
      base_keys.emplace(f.token, f.sink);
    }
    std::set<std::pair<std::size_t, std::string>> reported;  // line+sink dedup
    for (const TaintFinding& f :
         analyze_taint(cfg, toks, ecfg, holes).findings) {
      if (base_keys.count({f.token, f.sink}) != 0) continue;
      const std::size_t line = toks[f.token].line;
      if (!reported.emplace(line, f.sink).second) continue;
      std::string msg;
      if (f.sink.starts_with("call-arg:")) {
        msg = "tainted value(s) '" + f.vars + "' passed to '" +
              f.sink.substr(9) +
              "()' in a parameter that reaches an unchecked sink inside "
              "the callee";
      } else {
        msg = "tainted value(s) '" + f.vars + "' reach a " + f.sink +
              " sink via a helper call (interprocedural flow); add a "
              "DFX_CHECK before the call boundary";
      }
      emit(n.file, line, "interprocedural-taint-flow", std::move(msg));
    }
  }

  // static-lock-cycle: one finding per distinct cycle, anchored at the
  // first edge's acquisition site.
  std::map<std::pair<std::string, std::string>,
           std::pair<std::string, std::size_t>>
      witness;
  for (const LockEdge& e : pa.lock_edges) {
    witness.emplace(std::make_pair(e.from, e.to),
                    std::make_pair(e.file, e.line));
  }
  for (const std::vector<std::string>& cyc : pa.lock_cycles) {
    if (cyc.empty()) continue;
    std::string shape;
    for (const std::string& id : cyc) shape += id + " -> ";
    shape += cyc.front();
    const auto wit =
        witness.find({cyc.front(), cyc[cyc.size() > 1 ? 1 : 0]});
    std::string file = wit != witness.end() ? wit->second.first : "";
    std::size_t line = wit != witness.end() ? wit->second.second : 0;
    emit(file, line, "static-lock-cycle",
         "static lock-order cycle: " + shape +
             " (consistent acquisition order required; see "
             "docs/STATIC_ANALYSIS.md)");
  }

  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    return a.file != b.file ? a.file < b.file : a.line < b.line;
  });
  return out;
}

}  // namespace dfx::lint
