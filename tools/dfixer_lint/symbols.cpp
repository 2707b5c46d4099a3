#include "dfixer_lint/symbols.h"

#include <algorithm>
#include <set>

namespace dfx::lint {
namespace {

bool tok_is(const std::vector<Token>& t, std::size_t i, std::string_view s) {
  return i < t.size() && t[i].text == s;
}

bool is_ident(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() && t[i].kind == Tok::kIdent;
}

// Chunk-leading keywords that can never start a function declaration we
// want to index (control flow, type/namespace intros, jump statements).
bool is_decl_stopper(std::string_view word) {
  static const std::set<std::string_view> kStoppers = {
      "if",      "for",     "while",   "switch",  "return", "case",
      "do",      "else",    "goto",    "delete",  "throw",  "using",
      "typedef", "namespace", "struct", "class",  "enum",   "union",
      "public",  "private", "protected", "new",   "break",  "continue",
      "default", "operator", "sizeof", "static_assert", "template",
      "co_return", "co_await", "co_yield", "try", "catch", "concept",
      "requires"};
  return kStoppers.contains(word);
}

bool is_specifier(std::string_view word) {
  static const std::set<std::string_view> kSpecifiers = {
      "static", "inline", "constexpr", "consteval", "constinit",
      "friend", "virtual", "explicit", "extern",    "mutable",
      "typename"};
  return kSpecifiers.contains(word);
}

// Tokens allowed between a declaration's closing ')' and its ;/{ boundary.
bool is_decl_trailer(std::string_view word) {
  static const std::set<std::string_view> kTrailers = {
      "const", "noexcept", "override", "final", "&",
      "&&",    "=",        "0",        "default", "delete"};
  return kTrailers.contains(word);
}

}  // namespace

bool is_status_function_name(std::string_view name) {
  for (const char* prefix : {"parse", "validate", "verify", "decode"}) {
    if (name.starts_with(prefix)) return true;
  }
  for (const char* infix :
       {"_parse", "_validate", "_verify", "_decode", "from_wire"}) {
    if (name.find(infix) != std::string_view::npos) return true;
  }
  return false;
}

bool is_must_use_decl(const FunctionDecl& decl) {
  if (decl.nodiscard) return true;
  switch (decl.cls) {
    case ReturnClass::kErrorCode:
    case ReturnClass::kOptional:
    case ReturnClass::kVariant:
    case ReturnClass::kBoolStatus:
      return true;
    case ReturnClass::kOther:
    case ReturnClass::kVoid:
    case ReturnClass::kBool:
      return false;
  }
  return false;
}

void SymbolIndex::index_source(const std::string& path,
                               const std::vector<Token>& tokens) {
  ++file_count_;
  index_functions(path, tokens);
  index_taints(tokens);
  index_hot_cold(tokens);
}

/// Classify DFX_HOT_PATH / DFX_COLD(reason) markers the same way
/// index_taints() does: scan forward to the nearest declaration boundary
/// and record the `name(` the annotation sits on. DFX_COLD's argument list
/// is consumed first; the reason must be a string literal.
void SymbolIndex::index_hot_cold(const std::vector<Token>& tokens) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  const std::size_t n = tokens.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (tokens[i].kind != Tok::kIdent) continue;
    const std::string_view w = tokens[i].text;
    const bool cold = w == "DFX_COLD";
    if (w != "DFX_HOT_PATH" && !cold) continue;
    std::size_t scan_from = i + 1;
    bool has_reason = false;
    if (cold) {
      if (i + 1 >= n || tokens[i + 1].text != "(") continue;
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < n; ++j) {
        if (tokens[j].text == "(") ++depth;
        if (tokens[j].kind == Tok::kString) has_reason = true;
        if (tokens[j].text == ")" && --depth == 0) break;
      }
      scan_from = j + 1;
    }
    std::size_t last_ident = npos;
    std::size_t fn_ident = npos;
    for (std::size_t j = scan_from; j < n; ++j) {
      const std::string_view s = tokens[j].text;
      if (tokens[j].kind == Tok::kIdent) {
        last_ident = j;
        continue;
      }
      if (s == "<") {  // template arguments in the return type
        int angle = 1;
        while (++j < n && angle > 0) {
          if (tokens[j].text == "<") ++angle;
          if (tokens[j].text == ">") --angle;
          if (tokens[j].text == ";" || tokens[j].text == "{") break;
        }
        --j;
        continue;
      }
      if (s == "(") {
        if (last_ident == j - 1) fn_ident = last_ident;
        break;
      }
      if (s == ";" || s == "=" || s == "{" || s == ")" || s == ",") break;
      // "::", "&", "*", ":" — part of the declared type, keep going.
    }
    if (fn_ident == npos) continue;
    std::string name(tokens[fn_ident].text);
    if (cold) {
      const auto [it, inserted] = cold_fns_.try_emplace(name, has_reason);
      // Several declarations of one function: the reason requirement is
      // satisfied as soon as any of them carries it.
      if (!inserted && has_reason) it->second = true;
    } else {
      hot_fns_.insert(std::move(name));
    }
  }
}

/// Classify every DFX_TAINTED / DFX_TAINT_PASSTHROUGH marker by scanning to
/// the nearest declaration boundary: `name(` before a boundary is a function
/// annotation, `;`/`=`/`{` closes a field, and `)`/`,` means the marker sat
/// on a parameter (seeded locally by the CFG builder, not indexed here).
void SymbolIndex::index_taints(const std::vector<Token>& tokens) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  const std::size_t n = tokens.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (tokens[i].kind != Tok::kIdent) continue;
    const std::string_view w = tokens[i].text;
    const bool passthrough = w == "DFX_TAINT_PASSTHROUGH";
    if (w != "DFX_TAINTED" && !passthrough) continue;
    std::size_t last_ident = npos;
    std::size_t fn_ident = npos;
    bool field = false;
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::string_view s = tokens[j].text;
      if (tokens[j].kind == Tok::kIdent) {
        last_ident = j;
        continue;
      }
      if (s == "<") {  // template arguments: skip to the matching '>'
        int angle = 1;
        while (++j < n && angle > 0) {
          if (tokens[j].text == "<") ++angle;
          if (tokens[j].text == ">") --angle;
          if (tokens[j].text == ";" || tokens[j].text == "{") break;
        }
        --j;  // the outer loop's ++j lands past the '>'
        continue;
      }
      if (s == "(") {
        if (last_ident == j - 1) fn_ident = last_ident;
        break;
      }
      if (s == ";" || s == "=" || s == "{") {
        field = true;
        break;
      }
      if (s == ")" || s == ",") break;  // parameter annotation
      // "::", "&", "*", ":", ">" — part of the declared type, keep going.
    }
    if (fn_ident != npos) {
      (passthrough ? taint_passthrough_ : taint_sources_)
          .insert(std::string(tokens[fn_ident].text));
    } else if (field && last_ident != npos && !passthrough) {
      taint_fields_.insert(std::string(tokens[last_ident].text));
    }
  }
}

void SymbolIndex::index_functions(const std::string& path,
                                  const std::vector<Token>& tokens) {
  std::size_t chunk_begin = 0;
  for (std::size_t i = 0; i <= tokens.size(); ++i) {
    const bool boundary =
        i == tokens.size() || tokens[i].text == ";" ||
        tokens[i].text == "{" || tokens[i].text == "}";
    if (!boundary) continue;
    analyze_chunk(path, tokens, chunk_begin, i);
    chunk_begin = i + 1;
  }
}

/// One declaration-shaped chunk: the tokens between two of ; { }. Records a
/// FunctionDecl when the chunk parses as `ret-type [Qual::]name(params)`
/// optionally followed by trailing qualifiers. Statements inside bodies fall
/// through the same path; a local variable with a parenthesized initializer
/// indexes as a kOther "function", which the must-use aggregation renders
/// harmless (see the header comment).
void SymbolIndex::analyze_chunk(const std::string& path,
                                const std::vector<Token>& tokens,
                                std::size_t begin, std::size_t end) {
  std::size_t b = begin;
  bool nodiscard = false;
  // Leading attributes and specifiers.
  while (b < end) {
    if (tok_is(tokens, b, "[") && tok_is(tokens, b + 1, "[")) {
      std::size_t j = b + 2;
      while (j + 1 < end &&
             !(tokens[j].text == "]" && tokens[j + 1].text == "]")) {
        if (tokens[j].text == "nodiscard") nodiscard = true;
        ++j;
      }
      if (j + 1 >= end) return;
      b = j + 2;
      continue;
    }
    if (is_ident(tokens, b) && is_specifier(tokens[b].text)) {
      ++b;
      continue;
    }
    break;
  }
  if (b >= end) return;
  if (tokens[b].kind == Tok::kIdent && is_decl_stopper(tokens[b].text)) return;
  // First identifier directly followed by '(' is the candidate name; any
  // top-level '=' before it means this chunk is a statement, not a decl.
  std::size_t candidate = end;
  int depth = 0;
  for (std::size_t j = b; j < end; ++j) {
    const std::string_view t = tokens[j].text;
    if (t == "(" || t == "[") {
      ++depth;
    } else if (t == ")" || t == "]") {
      --depth;
    } else if (depth == 0) {
      if (t == "=") return;
      if (tokens[j].kind == Tok::kIdent && tok_is(tokens, j + 1, "(")) {
        if (j > b && (tokens[j - 1].text == "." || tokens[j - 1].text == "->")) {
          return;  // member call, not a declaration
        }
        if (is_decl_stopper(t) || t == "operator") return;
        candidate = j;
        break;
      }
    }
  }
  if (candidate >= end) return;
  // Walk the qualifier chain back (`Grok::classify` → name_start at Grok).
  std::size_t name_start = candidate;
  while (name_start >= b + 2 && tokens[name_start - 1].text == "::" &&
         tokens[name_start - 2].kind == Tok::kIdent) {
    name_start -= 2;
  }
  if (name_start == b) return;  // no return type: constructor or plain call
  // Match the parameter list and require only trailer tokens after it.
  std::size_t r = candidate + 1;
  int pdepth = 0;
  for (; r < end; ++r) {
    if (tokens[r].text == "(") ++pdepth;
    if (tokens[r].text == ")" && --pdepth == 0) break;
  }
  if (r >= end) return;
  for (std::size_t j = r + 1; j < end; ++j) {
    if (tok_is(tokens, j, "noexcept") && tok_is(tokens, j + 1, "(")) {
      int nd = 0;
      ++j;
      for (; j < end; ++j) {
        if (tokens[j].text == "(") ++nd;
        if (tokens[j].text == ")" && --nd == 0) break;
      }
      continue;
    }
    if (tokens[j].text == "->") return;  // trailing return type: skip
    if (!is_decl_trailer(tokens[j].text)) return;
  }
  // Classify the return type tokens [b, name_start).
  FunctionDecl decl;
  decl.nodiscard = nodiscard;
  decl.name = std::string(tokens[candidate].text);
  decl.file = path;
  decl.line = tokens[candidate].line;
  bool saw_optional = false, saw_variant = false, saw_errorcode = false;
  bool saw_pointer = false;
  for (std::size_t j = b; j < name_start; ++j) {
    if (!decl.return_type.empty()) decl.return_type += ' ';
    decl.return_type += std::string(tokens[j].text.empty()
                                        ? std::string_view("<literal>")
                                        : tokens[j].text);
    if (tokens[j].text == "optional") saw_optional = true;
    if (tokens[j].text == "variant") saw_variant = true;
    if (tokens[j].text == "ErrorCode") saw_errorcode = true;
    if (tokens[j].text == "*") saw_pointer = true;
  }
  const std::string_view first = tokens[b].text;
  if (tokens[b].kind != Tok::kIdent && first != "::") return;
  if (saw_optional) {
    decl.cls = ReturnClass::kOptional;
  } else if (saw_variant) {
    decl.cls = ReturnClass::kVariant;
  } else if (saw_errorcode && !saw_pointer) {
    decl.cls = ReturnClass::kErrorCode;
  } else if (decl.return_type == "bool") {
    decl.cls = is_status_function_name(decl.name) ? ReturnClass::kBoolStatus
                                                  : ReturnClass::kBool;
  } else if (decl.return_type == "void") {
    decl.cls = ReturnClass::kVoid;
  } else {
    decl.cls = ReturnClass::kOther;
  }
  fn_by_name_[decl.name].push_back(functions_.size());
  functions_.push_back(std::move(decl));
}

std::vector<const FunctionDecl*> SymbolIndex::find_functions(
    std::string_view name) const {
  std::vector<const FunctionDecl*> out;
  const auto it = fn_by_name_.find(name);
  if (it == fn_by_name_.end()) return out;
  out.reserve(it->second.size());
  for (const std::size_t idx : it->second) out.push_back(&functions_[idx]);
  return out;
}

bool SymbolIndex::must_use(std::string_view name) const {
  const auto it = fn_by_name_.find(name);
  if (it == fn_by_name_.end() || it->second.empty()) return false;
  return std::all_of(it->second.begin(), it->second.end(),
                     [&](std::size_t idx) {
                       return is_must_use_decl(functions_[idx]);
                     });
}

}  // namespace dfx::lint
