#include "dfixer_lint/lint_core.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "dfixer_lint/cfg.h"
#include "dfixer_lint/dataflow.h"

namespace dfx::lint {
namespace {

// ---------------------------------------------------------------------------
// Layer table (low → high) for the `layering-violation` rule. A file under
// src/<module>/ may include its own module and any *strictly lower* layer;
// including a higher layer — or a different module on the same layer — is a
// violation. Keep this table in dependency order when adding modules:
//
//   json(0) ← util(1) ← crypto(2) ← dnscore(3) ← zone(4) ← authserver(5)
//   ← server(6) ← analyzer(7) ← {dataset, dfixer, zonelint}(8) ←
//   {zreplicator, measure}(9)
//
// In particular: dnscore/crypto can never include measure/dfixer/
// zreplicator, and util includes nothing above it (json only).
// Files outside src/ (tools, tests, bench, examples) sit above every layer
// and are exempt.
struct Layer {
  const char* module;
  int rank;
};
// NOTE: "authserver" must precede "server" — check_layering() takes the
// first path match, and "authserver/" contains the substring "server/".
constexpr Layer kLayers[] = {
    {"json", 0},        {"util", 1},    {"crypto", 2},
    {"dnscore", 3},     {"zone", 4},    {"authserver", 5},
    {"server", 6},      {"analyzer", 7},
    {"dataset", 8},     {"dfixer", 8}, {"zonelint", 8},
    {"zreplicator", 9}, {"measure", 9},
};
// ---------------------------------------------------------------------------

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Split stripped content into lines (newlines excluded).
std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Whole-word occurrence of `word` in `line`.
bool contains_word(std::string_view line, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = line.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !is_ident_char(line[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

bool path_contains(const std::string& path, std::string_view dir) {
  return path.find(dir) != std::string::npos;
}

std::string trimmed(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return std::string(s);
}

/// Lines carrying a `dfx-lint: allow(<rule>)` marker, collected from the
/// ORIGINAL source (the marker lives in a comment, which stripping erases).
/// A marker suppresses the line it sits on and, like NOLINTNEXTLINE, the
/// line directly below it — for flagged expressions that had to wrap.
struct Suppressions {
  const std::vector<std::string>& lines;  // original source lines

  bool allows(std::size_t line_index, std::string_view rule) const {
    const std::string needle = "dfx-lint: allow(" + std::string(rule) + ")";
    for (std::size_t k = line_index >= 1 ? line_index - 1 : 0;
         k <= line_index && k < lines.size(); ++k) {
      if (lines[k].find(needle) != std::string::npos) return true;
    }
    return false;
  }
};

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

class Linter {
 public:
  Linter(const FileAnalysis& fa, const Options& options)
      : path_(fa.path),
        options_(options),
        lines_(fa.lines),
        tokens_(fa.tokens),
        suppressions_{fa.raw_lines},
        cfgs_(build_cfgs(tokens_)) {
    local_symbols_.index_source(path_, tokens_);
  }

  std::vector<Violation> run() {
    check_banned_tokens();
    check_front_back();
    check_missing_nodiscard();
    check_raw_mutex();
    check_unguarded_mutable();
    check_lock_across_wait();
    check_layering();
    check_dead_status_stores();
    check_narrowing_cast();
    check_view_into_temporary();
    check_taint_flows();
    std::sort(violations_.begin(), violations_.end(),
              [](const Violation& a, const Violation& b) {
                return a.line < b.line;
              });
    return std::move(violations_);
  }

 private:
  void report(std::size_t line_index, std::string rule, std::string message) {
    if (suppressions_.allows(line_index, rule)) return;
    Violation v;
    v.file = path_;
    v.line = line_index + 1;
    v.severity = severity_of(rule);
    v.rule = std::move(rule);
    v.message = std::move(message);
    if (line_index < suppressions_.lines.size()) {
      v.excerpt = trimmed(suppressions_.lines[line_index]);
    }
    violations_.push_back(std::move(v));
  }

  // ------------------------------------------------------------------
  // Token-stream helpers.
  // ------------------------------------------------------------------

  std::string_view tok(std::size_t i) const {
    return i < tokens_.size() ? tokens_[i].text : std::string_view{};
  }

  bool tok_is(std::size_t i, std::string_view s) const { return tok(i) == s; }

  bool tok_ident(std::size_t i) const {
    return i < tokens_.size() && tokens_[i].kind == Tok::kIdent;
  }

  std::size_t tok_line_index(std::size_t i) const {
    return tokens_[i].line > 0 ? tokens_[i].line - 1 : 0;
  }

  /// Index of the ')' matching the '(' at `open`, or kNpos.
  std::size_t match_paren(std::size_t open) const {
    int depth = 0;
    for (std::size_t j = open; j < tokens_.size(); ++j) {
      if (tokens_[j].text == "(") ++depth;
      if (tokens_[j].text == ")" && --depth == 0) return j;
    }
    return kNpos;
  }

  /// Index of the '}' matching the '{' at `open`, or kNpos.
  std::size_t match_brace(std::size_t open) const {
    int depth = 0;
    for (std::size_t j = open; j < tokens_.size(); ++j) {
      if (tokens_[j].text == "{") ++depth;
      if (tokens_[j].text == "}" && --depth == 0) return j;
    }
    return kNpos;
  }

  /// Is token `i` a guard call: an identifier from `names` followed by '('?
  bool is_guard_call(std::size_t i,
                     const std::set<std::string_view>& names) const {
    return tok_ident(i) && names.contains(tokens_[i].text) &&
           tok_is(i + 1, "(");
  }

  bool guard_in_token_range(std::size_t lo, std::size_t hi,
                            const std::set<std::string_view>& names) const {
    for (std::size_t j = lo; j < hi && j < tokens_.size(); ++j) {
      if (is_guard_call(j, names)) return true;
    }
    return false;
  }

  /// Guard within the same statement, or in the controlling text of any
  /// *enclosing* block (`if (!v.empty()) { ... v.back() ... }`), however
  /// many lines up the opening brace sits. Walking outward skips already-
  /// closed sibling blocks, so a guard inside an earlier, closed `if` does
  /// not vouch for code after it.
  bool stmt_or_enclosing_guard(std::size_t idx,
                               const std::set<std::string_view>& names) const {
    const auto is_boundary = [&](std::size_t j) {
      const std::string_view t = tok(j);
      return t == ";" || t == "{" || t == "}";
    };
    // Same statement: back to the previous ;/{/}.
    std::size_t stmt_begin = idx;
    while (stmt_begin > 0 && !is_boundary(stmt_begin - 1)) --stmt_begin;
    if (guard_in_token_range(stmt_begin, idx, names)) return true;
    // Enclosing blocks: scan back, brace-balanced; every '{' at depth 0
    // opens a block we are inside of — test its controlling text.
    int depth = 0;
    for (std::size_t p = stmt_begin; p-- > 0;) {
      const std::string_view t = tokens_[p].text;
      if (t == "}") {
        ++depth;
      } else if (t == "{") {
        if (depth > 0) {
          --depth;
          continue;
        }
        std::size_t head_begin = p;
        while (head_begin > 0 && !is_boundary(head_begin - 1)) --head_begin;
        if (guard_in_token_range(head_begin, p, names)) return true;
      }
    }
    return false;
  }

  /// Does any of stripped lines [i-window, i] contain one of the tokens?
  bool guarded_nearby(std::size_t i, std::size_t window,
                      const std::vector<std::string_view>& tokens) const {
    const std::size_t lo = i >= window ? i - window : 0;
    for (std::size_t k = lo; k <= i && k < lines_.size(); ++k) {
      for (const auto token : tokens) {
        if (lines_[k].find(token) != std::string::npos) return true;
      }
    }
    return false;
  }

  // ------------------------------------------------------------------
  // Line-based rules (operate on the stripped lines).
  // ------------------------------------------------------------------

  void check_banned_tokens() {
    struct Banned {
      const char* token;
      const char* rule;
      const char* message;
    };
    static const Banned kBanned[] = {
        {"atoi", "banned-atoi",
         "atoi has no error reporting; use a checked parser"},
        {"sprintf", "banned-sprintf",
         "sprintf is unbounded; use snprintf or std::format"},
    };
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      for (const auto& b : kBanned) {
        if (contains_word(lines_[i], b.token)) {
          report(i, b.rule, b.message);
        }
      }
      if (has_raw_new(lines_[i])) {
        report(i, "banned-raw-new",
               "raw new: own allocations with containers or smart pointers");
      }
    }
  }

  static bool has_raw_new(std::string_view line) {
    std::size_t pos = 0;
    while ((pos = line.find("new", pos)) != std::string_view::npos) {
      const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
      const std::size_t end = pos + 3;
      // `new Foo`, `new(nothrow) Foo`: allocation follows the keyword.
      const bool followed = end < line.size() &&
                            (line[end] == ' ' || line[end] == '(');
      if (left_ok && followed) {
        // Skip `new` inside identifiers handled by left/right checks; also
        // skip `operator new` declarations.
        const std::string_view before = line.substr(0, pos);
        if (before.find("operator") == std::string_view::npos) return true;
      }
      pos = end;
    }
    return false;
  }

  /// Every declaration the symbol index classifies as must-use (ErrorCode,
  /// std::optional, std::variant or status-named bool returns) carries
  /// [[nodiscard]], so the compiler's -Werror=unused-result rejects each
  /// call that drops the status. Definitions included: a .cpp-local helper
  /// has no other declaration to carry the attribute.
  void check_missing_nodiscard() {
    for (const FunctionDecl& decl : local_symbols_.functions()) {
      if (decl.nodiscard || !is_must_use_decl(decl)) continue;
      report(decl.line - 1, "missing-nodiscard",
             "'" + decl.name + "' returns " + decl.return_type +
                 ", a status callers must consume: declare it [[nodiscard]]");
    }
  }

  /// A class that owns a Mutex locks in const methods, so its mutable
  /// fields are (almost always) shared state — they need DFX_GUARDED_BY.
  /// `mutable Mutex`/`mutable std::atomic` are the guard/lock themselves.
  void check_unguarded_mutable() {
    bool owns_mutex = false;
    for (const auto& line : lines_) {
      if (contains_word(line, "Mutex") &&
          line.find("MutexLock") == std::string::npos &&
          line.find(';') != std::string::npos) {
        owns_mutex = true;
        break;
      }
    }
    if (!owns_mutex) return;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const auto& line = lines_[i];
      if (!contains_word(line, "mutable")) continue;
      if (line.find("Mutex") != std::string::npos ||
          line.find("std::atomic") != std::string::npos ||
          line.find("DFX_GUARDED_BY") != std::string::npos) {
        continue;
      }
      report(i, "unguarded-mutable-field",
             "mutable field in a Mutex-owning class without "
             "DFX_GUARDED_BY(<its mutex>)");
    }
  }

  /// Waiting on a condition variable must pass the very mutex the
  /// enclosing MutexLock holds — waiting with a different lockable keeps
  /// the real lock held across the block, a latent deadlock.
  void check_lock_across_wait() {
    static constexpr std::size_t kLookback = 30;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const auto& line = lines_[i];
      std::size_t wait_pos = std::string::npos;
      for (const std::string_view token : {".wait_for(", ".wait_until(",
                                           ".wait("}) {
        const std::size_t p = line.find(token);
        if (p != std::string::npos) {
          wait_pos = p + token.size();
          break;
        }
      }
      if (wait_pos == std::string::npos) continue;
      const std::string arg = first_argument(line, wait_pos);
      if (arg.empty()) continue;  // e.g. future.wait() — no lock involved
      // Nearest preceding MutexLock declaration wins.
      std::string lock_name;
      std::string lock_mutex;
      const std::size_t lo = i >= kLookback ? i - kLookback : 0;
      for (std::size_t k = lo; k <= i; ++k) {
        parse_mutexlock_decl(lines_[k], lock_name, lock_mutex);
      }
      if (lock_name.empty()) continue;  // no annotated lock in scope
      if (arg == lock_name || arg == lock_mutex) continue;
      report(i, "lock-across-wait",
             "wait on '" + arg + "' while MutexLock '" + lock_name +
                 "' holds '" + lock_mutex +
                 "' — pass the held mutex to the wait");
    }
  }

  /// First argument of a call, starting right after its '(': the text up
  /// to the first top-level ',' or ')'.
  static std::string first_argument(std::string_view line, std::size_t pos) {
    int depth = 0;
    std::size_t end = pos;
    for (; end < line.size(); ++end) {
      const char c = line[end];
      if (c == '(') ++depth;
      if ((c == ',' || c == ')') && depth == 0) break;
      if (c == ')') --depth;
    }
    std::string arg(line.substr(pos, end - pos));
    while (!arg.empty() && std::isspace(static_cast<unsigned char>(
                               arg.front())) != 0) {
      arg.erase(arg.begin());
    }
    while (!arg.empty() && std::isspace(static_cast<unsigned char>(
                               arg.back())) != 0) {
      arg.pop_back();
    }
    return arg;
  }

  /// If `line` declares `[const] MutexLock name(mutex_expr)`, fill in the
  /// two out-params (leaving them untouched otherwise).
  static void parse_mutexlock_decl(std::string_view line, std::string& name,
                                   std::string& mutex_expr) {
    const std::size_t kw = line.find("MutexLock");
    if (kw == std::string_view::npos) return;
    std::size_t p = kw + 9;  // past "MutexLock"
    while (p < line.size() &&
           std::isspace(static_cast<unsigned char>(line[p])) != 0) {
      ++p;
    }
    const std::size_t name_start = p;
    while (p < line.size() && is_ident_char(line[p])) ++p;
    if (p == name_start) return;  // e.g. "MutexLock&" parameter — not a decl
    const std::string candidate(line.substr(name_start, p - name_start));
    while (p < line.size() &&
           std::isspace(static_cast<unsigned char>(line[p])) != 0) {
      ++p;
    }
    if (p >= line.size() || (line[p] != '(' && line[p] != '{')) return;
    name = candidate;
    mutex_expr = first_argument(line, p + 1);
  }

  /// Include-graph layering: see the kLayers table at the top of this file.
  void check_layering() {
    const Layer* self = nullptr;
    for (const auto& layer : kLayers) {
      if (path_contains(path_, std::string(layer.module) + "/")) {
        self = &layer;
        break;
      }
    }
    if (self == nullptr) return;  // tools/tests/bench/examples: exempt
    // Includes are parsed from the ORIGINAL lines — stripping blanks the
    // quoted path (it is a string literal) and the lexer drops directives.
    const auto& raw_lines = suppressions_.lines;
    for (std::size_t i = 0; i < raw_lines.size(); ++i) {
      const auto& line = raw_lines[i];
      const std::size_t inc = line.find("#include \"");
      if (inc == std::string::npos) continue;
      const std::size_t open = inc + 10;
      const std::size_t slash = line.find('/', open);
      const std::size_t close = line.find('"', open);
      if (slash == std::string::npos || close == std::string::npos ||
          slash > close) {
        continue;
      }
      const std::string target = line.substr(open, slash - open);
      for (const auto& layer : kLayers) {
        if (target != layer.module) continue;
        const bool allowed =
            target == self->module || layer.rank < self->rank;
        if (!allowed) {
          report(i, "layering-violation",
                 std::string(self->module) + " (layer " +
                     std::to_string(self->rank) + ") must not include " +
                     target + " (layer " + std::to_string(layer.rank) +
                     ") — see the layer table in lint_core.cpp");
        }
        break;
      }
    }
  }

  // ------------------------------------------------------------------
  // Token-based rules. These see statements whole, across line breaks —
  // `return v.back(\n);` and `std::\nmutex m;` are single token runs.
  // ------------------------------------------------------------------

  void check_front_back() {
    static const std::set<std::string_view> kGuardCalls = {
        "empty", "size", "DFX_CHECK", "DFX_DCHECK", "count", "length"};
    static const std::vector<std::string_view> kGuardLines = {
        "empty(", "size(", "DFX_CHECK", "DFX_DCHECK", "count(", "length("};
    for (std::size_t i = 0; i + 3 < tokens_.size(); ++i) {
      if (!tok_is(i, ".")) continue;
      if (!tok_ident(i + 1) ||
          (tokens_[i + 1].text != "front" && tokens_[i + 1].text != "back")) {
        continue;
      }
      if (!tok_is(i + 2, "(") || !tok_is(i + 3, ")")) continue;
      const std::size_t li = tok_line_index(i + 1);
      if (guarded_nearby(li, 6, kGuardLines)) continue;
      if (stmt_or_enclosing_guard(i, kGuardCalls)) continue;
      report(li, "unchecked-front-back",
             ".front()/.back() without a nearby emptiness check "
             "(guard it, or annotate with dfx-lint: allow)");
    }
  }

  /// Concurrency rule: shared state must use the annotated wrappers from
  /// util/thread_annotations.h so clang's capability analysis and the
  /// static-lock-cycle pass see every lock. Raw primitives are legal only
  /// under util/ (where the wrappers themselves live).
  void check_raw_mutex() {
    if (path_contains(path_, "util/")) return;
    static const std::set<std::string_view> kRaw = {
        "mutex", "recursive_mutex", "timed_mutex",
        "lock_guard", "unique_lock", "scoped_lock"};
    std::size_t last_line = kNpos;
    for (std::size_t i = 0; i + 2 < tokens_.size(); ++i) {
      if (!tok_is(i, "std") || !tok_is(i + 1, "::")) continue;
      if (!tok_ident(i + 2) || !kRaw.contains(tokens_[i + 2].text)) continue;
      const std::size_t li = tok_line_index(i);
      if (li == last_line) continue;  // one report per line, as before
      last_line = li;
      report(li, "raw-std-mutex",
             "std::" + std::string(tokens_[i + 2].text) +
                 " outside util/: use the annotated dfx::Mutex/"
                 "MutexLock (util/thread_annotations.h)");
    }
  }

  /// discarded-error-return: a must-use call whose result is bound to a
  /// fresh local that no reachable statement ever reads discards the
  /// status just as surely as a bare call (which the compiler rejects, see
  /// check_missing_nodiscard); gcc's -Wunused-variable misses the store
  /// when the local has a non-trivial type such as std::optional. A plain
  /// reassignment (`st = next();`) is a write, not a read; reads inside
  /// DFX_CHECK/DFX_DCHECK count (that is the intended consumption).
  void check_dead_status_stores() {
    if (options_.symbols == nullptr) return;
    for (const Cfg& cfg : cfgs_) {
      for (std::size_t bi = 0; bi < cfg.blocks.size(); ++bi) {
        const std::vector<CfgStmt>& stmts = cfg.blocks[bi].stmts;
        for (std::size_t si = 0; si < stmts.size(); ++si) {
          check_dead_store_stmt(cfg, bi, si);
        }
      }
    }
  }

  void check_dead_store_stmt(const Cfg& cfg, std::size_t bi, std::size_t si) {
    const CfgStmt& st = cfg.blocks[bi].stmts[si];
    if (st.kind != StmtKind::kPlain) return;
    const std::size_t e = std::min(st.end, tokens_.size());
    // LHS must be a declaration: `Type name = call();` — at least a type
    // token plus the name, no references/bindings/members/multi-decls.
    std::size_t op = kNpos;
    int depth = 0;
    for (std::size_t j = st.begin; j < e; ++j) {
      const std::string_view t = tok(j);
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (depth == 0 && t == "=" && tokens_[j].kind == Tok::kPunct) {
        op = j;
        break;
      }
    }
    if (op == kNpos || op < st.begin + 2) return;
    std::size_t name_tok = kNpos;
    for (std::size_t j = st.begin; j < op; ++j) {
      const std::string_view t = tok(j);
      if (t == "&" || t == "&&" || t == "[" || t == "." || t == "->" ||
          t == "," || t == "(" || t == "maybe_unused") {
        return;  // reference / binding / member write / multi-decl / cast
      }
      if (tok_ident(j)) name_tok = j;
    }
    if (name_tok != op - 1 || !tok_ident(op - 2)) return;
    const std::string_view var = tok(name_tok);
    // RHS must be exactly one call: `[chain::]callee(args);`.
    std::size_t p = op + 1;
    std::size_t callee = kNpos;
    while (p < e && tok_ident(p)) {
      callee = p;
      if (tok_is(p + 1, "::") || tok_is(p + 1, ".") || tok_is(p + 1, "->")) {
        p += 2;
      } else {
        ++p;
        break;
      }
    }
    if (callee == kNpos || !tok_is(p, "(")) return;
    if (!options_.symbols->must_use(tok(callee))) return;
    const std::size_t close = match_paren(p);
    if (close == kNpos || close >= e) return;
    for (std::size_t j = close + 1; j < e; ++j) {
      if (!tok_is(j, ";")) return;  // trailing `.value_or(...)` etc: consumed
    }
    if (dead_store_is_read(cfg, bi, si, name_tok, var)) return;
    report(tok_line_index(name_tok), "discarded-error-return",
           "status of '" + std::string(tok(callee)) + "' is stored in '" +
               std::string(var) +
               "' but never read on any path — a dead store discards the "
               "error exactly like a bare call");
  }

  /// Is `var` read in any statement reachable after its declaration? The
  /// walk covers the rest of the declaring block plus everything reachable
  /// from its successors (so a loop back into the block re-scans it).
  bool dead_store_is_read(const Cfg& cfg, std::size_t bi, std::size_t si,
                          std::size_t decl_tok, std::string_view var) const {
    std::vector<char> reach(cfg.blocks.size(), 0);
    std::vector<std::size_t> work;
    for (const CfgEdge& edge : cfg.blocks[bi].succs) {
      if (reach[edge.to] == 0) {
        reach[edge.to] = 1;
        work.push_back(edge.to);
      }
    }
    while (!work.empty()) {
      const std::size_t b = work.back();
      work.pop_back();
      for (const CfgEdge& edge : cfg.blocks[b].succs) {
        if (reach[edge.to] == 0) {
          reach[edge.to] = 1;
          work.push_back(edge.to);
        }
      }
    }
    const auto stmt_reads = [&](const CfgStmt& st) {
      const std::size_t e = std::min(st.end, tokens_.size());
      for (std::size_t j = st.begin; j < e; ++j) {
        if (!tok_ident(j) || tok(j) != var || j == decl_tok) continue;
        // A statement-initial `var = ...` overwrites without reading.
        const bool plain_write = j == st.begin && tok_is(j + 1, "=");
        if (!plain_write) return true;
      }
      return false;
    };
    const std::vector<CfgStmt>& own = cfg.blocks[bi].stmts;
    for (std::size_t k = si + 1; k < own.size(); ++k) {
      if (stmt_reads(own[k])) return true;
    }
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      if (reach[b] == 0) continue;
      for (const CfgStmt& st : cfg.blocks[b].stmts) {
        if (stmt_reads(st)) return true;
      }
    }
    return false;
  }

  /// The taint pack: wire-derived values (DFX_TAINTED sources, fields and
  /// parameters — see src/util/check.hpp) must pass a bound check on every
  /// CFG path before indexing, sizing, memcpy'ing or bounding a loop.
  /// Scoped to the wire-handling layers, like the other parser rules.
  void check_taint_flows() {
    static const char* const kScope[] = {"dnscore/",    "crypto/", "zone/",
                                         "authserver/", "server/", "dataflow/"};
    if (std::none_of(std::begin(kScope), std::end(kScope),
                     [&](const char* s) { return path_contains(path_, s); })) {
      return;
    }
    // Marker declarations in the file itself always count, so fixtures and
    // headers are self-contained; the cross-TU index layers on top.
    TaintConfig config;
    const auto merge = [&config](const SymbolIndex& idx) {
      config.source_calls.insert(idx.taint_source_calls().begin(),
                                 idx.taint_source_calls().end());
      config.tainted_fields.insert(idx.taint_fields().begin(),
                                   idx.taint_fields().end());
      config.passthrough_calls.insert(idx.taint_passthrough_calls().begin(),
                                      idx.taint_passthrough_calls().end());
    };
    merge(local_symbols_);
    if (options_.symbols != nullptr) merge(*options_.symbols);
    std::set<std::size_t> reported_lines;
    for (const Cfg& cfg : cfgs_) {
      // Nested lambdas get their own Cfg; skip their bodies here.
      std::vector<std::pair<std::size_t, std::size_t>> holes;
      for (const Cfg& inner : cfgs_) {
        if (&inner != &cfg && inner.body_open > cfg.body_open &&
            inner.body_close < cfg.body_close) {
          holes.emplace_back(inner.body_open, inner.body_close + 1);
        }
      }
      for (const TaintFinding& f :
           find_taint_flows(cfg, tokens_, config, holes)) {
        const std::size_t li = tok_line_index(f.token);
        if (!reported_lines.insert(li).second) continue;
        std::string what;
        if (f.sink == "index") {
          what = "indexes a buffer";
        } else if (f.sink == "resize" || f.sink == "reserve") {
          what = "sizes an allocation (." + f.sink + ")";
        } else if (f.sink == "memcpy-length") {
          what = "is a memcpy/memmove/memset length";
        } else {
          what = "bounds a loop (wrap it in DFX_BOUNDED_LOOP)";
        }
        report(li, "unchecked-taint-flow",
               "wire-tainted value " +
                   (f.vars.empty() ? std::string() : "'" + f.vars + "' ") +
                   what + " without a dominating DFX_CHECK/bound test on "
                   "every path");
      }
    }
  }

  /// static_cast to a narrower integer on the wire-handling layers must sit
  /// under a DFX_CHECK/DFX_DCHECK bound: unchecked truncation of lengths
  /// and counts is exactly how parser blowups start. Byte-extraction idioms
  /// (`>> 8`, `& 0xFF`) and value-preserving casts of a bare variable
  /// (enum→underlying, char promotions) are exempt.
  void check_narrowing_cast() {
    if (!path_contains(path_, "dnscore/") &&
        !path_contains(path_, "crypto/") && !path_contains(path_, "zone/")) {
      return;
    }
    static const std::set<std::string> kNarrow = {
        "uint8_t",  "int8_t",       "uint16_t",  "int16_t",
        "short",    "unsigned short", "short int", "signed short"};
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (!tok_is(i, "static_cast") || !tok_is(i + 1, "<")) continue;
      // Collect the target type up to the matching '>'.
      std::string type;
      int depth = 1;
      std::size_t j = i + 2;
      for (; j < tokens_.size() && depth > 0; ++j) {
        const std::string_view t = tokens_[j].text;
        if (t == "<") {
          ++depth;
        } else if (t == ">") {
          if (--depth == 0) break;
        } else if (t != "std" && t != "::" && t != "const") {
          if (!type.empty()) type += ' ';
          type += std::string(t);
        }
      }
      if (j >= tokens_.size() || !kNarrow.contains(type)) continue;
      if (!tok_is(j + 1, "(")) continue;
      const std::size_t close = match_paren(j + 1);
      if (close == kNpos) continue;
      bool masked = false;
      bool simple = true;
      for (std::size_t p = j + 2; p < close; ++p) {
        const std::string_view t = tokens_[p].text;
        if (t == "&" || t == ">>") masked = true;
        const bool chain_tok =
            tokens_[p].kind == Tok::kIdent || tokens_[p].kind == Tok::kNumber ||
            t == "::" || t == "." || t == "->" || t == "~";
        if (!chain_tok) simple = false;
      }
      // `x >> 8` / `x & 0xFF` deliberately select bits; a bare variable or
      // member chain is a width-safe conversion the types already prove.
      if (masked || simple) continue;
      // The guard must dominate the cast — a check in one branch only, or
      // textually after the cast on the same line, does not vouch for it
      // (tests/lint_fixtures/dnscore/bad_multipath.cpp pins both). Outside
      // any function body (a namespace-scope initializer) no DFX_CHECK can
      // run first, so such a cast is always reported.
      const Cfg* cfg = enclosing_cfg(cfgs_, i);
      if (cfg != nullptr) {
        GuardSpec spec;
        for (std::size_t p = j + 2; p < close; ++p) {
          if (tokens_[p].kind == Tok::kIdent) {
            spec.subjects.insert(std::string(tokens_[p].text));
          }
        }
        if (has_dominating_guard(*cfg, tokens_, i, spec)) continue;
      }
      report(tok_line_index(i), "unguarded-narrowing-cast",
             "static_cast<" + type +
                 "> of a computed value without a DFX_CHECK/DFX_DCHECK "
                 "bound — truncation here corrupts wire data");
    }
  }

  /// A function returning string_view/span must not return a view of one of
  /// its own locals — the storage dies with the frame.
  void check_view_into_temporary() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (!tok_ident(i) ||
          (tokens_[i].text != "string_view" && tokens_[i].text != "span")) {
        continue;
      }
      std::size_t j = i + 1;
      if (tok_is(j, "<")) {  // span<const uint8_t>
        int depth = 1;
        ++j;
        for (; j < tokens_.size() && depth > 0; ++j) {
          if (tok(j) == "<") ++depth;
          if (tok(j) == ">") --depth;
        }
      }
      // Function name: [Qual::]name followed by '('.
      if (!tok_ident(j)) continue;
      while (tok_is(j + 1, "::") && tok_ident(j + 2)) j += 2;
      if (!tok_is(j + 1, "(")) continue;
      const std::size_t close = match_paren(j + 1);
      if (close == kNpos) continue;
      std::size_t k = close + 1;
      while (tok_is(k, "const") || tok_is(k, "noexcept") ||
             tok_is(k, "override") || tok_is(k, "final")) {
        if (tok_is(k, "noexcept") && tok_is(k + 1, "(")) {
          const std::size_t ne = match_paren(k + 1);
          if (ne == kNpos) break;
          k = ne + 1;
        } else {
          ++k;
        }
      }
      if (!tok_is(k, "{")) continue;  // declaration, not a definition
      const std::size_t body_open = k;
      const std::size_t body_close = match_brace(body_open);
      if (body_close == kNpos) continue;
      scan_view_body(body_open, body_close);
      i = body_close;
    }
  }

  void scan_view_body(std::size_t body_open, std::size_t body_close) {
    static const std::set<std::string_view> kOwners = {
        "string", "vector", "array", "basic_string", "ostringstream", "deque"};
    // Arena-style owners: unqualified types whose accessors hand out views
    // that die with the owner (a local WireArena dies with the frame just
    // like a local std::string; see dnscore/arena.h).
    static const std::set<std::string_view> kArenaOwners = {"WireArena"};
    std::set<std::string_view> locals;
    const auto collect_local = [&](std::size_t q) {
      if (tok(q) == "&" || tok(q) == "*") return;  // not an owning local
      if (tok_ident(q) &&
          (tok(q + 1) == "=" || tok(q + 1) == "(" || tok(q + 1) == ";" ||
           tok(q + 1) == "{" || tok(q + 1) == ",")) {
        locals.insert(tokens_[q].text);
      }
    };
    for (std::size_t p = body_open + 1; p + 2 < body_close; ++p) {
      if (tok_ident(p) && kArenaOwners.contains(tokens_[p].text) &&
          tok(p - 1) != "::" && tok(p - 1) != "static") {
        collect_local(p + 1);
        continue;
      }
      if (!tok_is(p, "std") || !tok_is(p + 1, "::")) continue;
      if (!tok_ident(p + 2) || !kOwners.contains(tokens_[p + 2].text)) continue;
      if (tok(p - 1) == "static" ||
          (tok(p - 1) == "const" && tok(p - 2) == "static")) {
        continue;  // statics outlive the frame
      }
      std::size_t q = p + 3;
      if (tok_is(q, "<")) {
        int depth = 1;
        ++q;
        for (; q < body_close && depth > 0; ++q) {
          if (tok(q) == "<") ++depth;
          if (tok(q) == ">") --depth;
        }
      }
      collect_local(q);
    }
    if (locals.empty()) return;
    for (std::size_t p = body_open + 1; p + 1 < body_close; ++p) {
      if (!tok_is(p, "return") || !tok_ident(p + 1) ||
          !locals.contains(tokens_[p + 1].text)) {
        continue;
      }
      const bool direct = tok_is(p + 2, ";");
      // Member calls that return views of the owner's storage.
      static const std::set<std::string_view> kViewCalls = {"substr", "copy"};
      const bool via_call = tok_is(p + 2, ".") && tok_ident(p + 3) &&
                            kViewCalls.contains(tokens_[p + 3].text) &&
                            tok_is(p + 4, "(");
      if (!direct && !via_call) continue;
      report(tok_line_index(p), "view-into-temporary",
             "returning a view of local '" + std::string(tokens_[p + 1].text) +
                 "' — the buffer dies with this frame; return an owning "
                 "string or take an out-param");
    }
  }

  const std::string& path_;
  const Options& options_;
  const std::vector<std::string>& lines_;
  const std::vector<Token>& tokens_;
  Suppressions suppressions_;
  const std::vector<Cfg> cfgs_;  // built once per file
  SymbolIndex local_symbols_;    // this file's own declarations
  std::vector<Violation> violations_;
};

}  // namespace

bool line_suppressed(const FileAnalysis& fa, std::size_t line_index,
                     std::string_view rule) {
  return Suppressions{fa.raw_lines}.allows(line_index, rule);
}

namespace {

/// Is the quote at `src[i]` a C++14 digit separator rather than the start
/// of a character literal? True when it continues a pp-number: the run of
/// ident chars ending right before it starts with a digit (so `1'000` and
/// `0x1F'u` qualify, while the prefixes in `L'a'` / `u8'a'` do not).
bool quote_is_digit_separator(std::string_view src, std::size_t i) {
  if (i == 0 || !is_ident_char(src[i - 1])) return false;
  std::size_t run_start = i;
  while (run_start > 0 && (is_ident_char(src[run_start - 1]) ||
                           src[run_start - 1] == '.' ||
                           src[run_start - 1] == '\'')) {
    --run_start;
  }
  return std::isdigit(static_cast<unsigned char>(src[run_start])) != 0;
}

}  // namespace

std::string strip_comments_and_strings(std::string_view src) {
  std::string out;
  out.reserve(src.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  bool raw_string = false;       // inside R"delim( ... )delim"
  std::string raw_delim;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          // Raw string literal? Look back for R / u8R / LR etc.
          raw_string = i > 0 && src[i - 1] == 'R';
          if (raw_string) {
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < src.size() && src[j] != '(') {
              raw_delim.push_back(src[j]);
              ++j;
            }
          }
          state = State::kString;
          out += '"';
        } else if (c == '\'') {
          if (quote_is_digit_separator(src, i)) {
            out += '\'';  // `1'000'000` stays a literal, not a char state
          } else {
            state = State::kChar;
            out += '\'';
          }
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (raw_string) {
          const std::string terminator = ")" + raw_delim + "\"";
          if (src.compare(i, terminator.size(), terminator) == 0) {
            state = State::kCode;
            raw_string = false;
            out += '"';
            i += terminator.size() - 1;
          } else {
            out += c == '\n' ? '\n' : ' ';
          }
        } else if (c == '\\') {
          out += ' ';
          if (next != '\0') {
            out += next == '\n' ? '\n' : ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
          out += '"';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += ' ';
          if (next != '\0') {
            out += ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
          out += '\'';
        } else {
          out += ' ';
        }
        break;
    }
  }
  return out;
}

const char* severity_of(std::string_view rule) {
  static const std::set<std::string_view> kWarnings = {
      "missing-nodiscard", "raw-std-mutex", "unguarded-mutable-field"};
  return kWarnings.contains(rule) ? "warning" : "error";
}

FileAnalysis analyze_file(std::string path, std::string content) {
  FileAnalysis fa;
  fa.path = std::move(path);
  fa.content = std::make_unique<const std::string>(std::move(content));
  fa.lines = split_lines(strip_comments_and_strings(*fa.content));
  fa.raw_lines = split_lines(*fa.content);
  fa.tokens = lex(*fa.content);
  return fa;
}

std::vector<std::string> collect_lintable_files(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const char* sub : {"src", "tools", "bench", "examples", "tests"}) {
    const fs::path dir = fs::path(root) / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file()) continue;
      const fs::path& p = it->path();
      const std::string ext = p.extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cpp") continue;
      const std::string s = p.generic_string();
      // Fixtures violate the rules on purpose.
      if (s.find("lint_fixtures") != std::string::npos) continue;
      files.push_back(s);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<Violation> lint_file(const FileAnalysis& fa,
                                 const Options& options) {
  return Linter(fa, options).run();
}

std::vector<Violation> lint_file(const std::string& path,
                                 std::string_view content,
                                 const Options& options) {
  const FileAnalysis fa = analyze_file(path, std::string(content));
  return lint_file(fa, options);
}

}  // namespace dfx::lint
