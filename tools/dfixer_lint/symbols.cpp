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

/// End of the parenthesized group opening at `open` (one past its ')'), or
/// `end` when it does not close before `end`.
std::size_t skip_parens(const std::vector<Token>& t, std::size_t open,
                        std::size_t end) {
  int depth = 0;
  for (std::size_t j = open; j < end; ++j) {
    if (t[j].text == "(") ++depth;
    if (t[j].text == ")" && --depth == 0) return j + 1;
  }
  return end;
}

/// One past a `public:`/`private:`/`protected:` label at `b`, or `b`.
std::size_t skip_access_label(const std::vector<Token>& t, std::size_t b) {
  const bool label = is_ident(t, b) && tok_is(t, b + 1, ":") &&
                     (t[b].text == "public" || t[b].text == "private" ||
                      t[b].text == "protected");
  return label ? b + 2 : b;
}

/// A project annotation macro (DFX_HOT_PATH, DFX_COLD("why"),
/// DFX_EXCLUDES(mu), ...) at `i`: index one past it and its argument list,
/// or `i` itself when the token is no such macro.
std::size_t skip_annotation(const std::vector<Token>& t, std::size_t i,
                            std::size_t end) {
  if (!is_ident(t, i) || !t[i].text.starts_with("DFX_")) return i;
  return tok_is(t, i + 1, "(") ? skip_parens(t, i + 1, end) : i + 1;
}

/// Does the chunk [b, end) before a '{' open a scope that holds
/// declarations (namespace, class, struct, union, enum, extern "C")? Any
/// other brace is a function body, initializer or block, whose statements
/// are not declarations the index wants.
bool opens_declaration_scope(const std::vector<Token>& t, std::size_t b,
                             std::size_t end) {
  b = skip_access_label(t, b);
  if (tok_is(t, b, "template") && tok_is(t, b + 1, "<")) {
    int angle = 0;
    for (; b < end; ++b) {
      if (t[b].text == "<") ++angle;
      if (t[b].text == ">" && --angle == 0) break;
    }
    ++b;
  }
  while (b < end && (t[b].text == "inline" || t[b].text == "export")) ++b;
  if (b >= end) return false;
  static const std::set<std::string_view> kScopes = {
      "namespace", "class", "struct", "union", "enum"};
  return kScopes.contains(t[b].text) ||
         (t[b].text == "extern" && b + 1 < end &&
          t[b + 1].kind == Tok::kString);
}

/// Status class of a return type spelled by tokens [b, e): decided by the
/// outermost type alone, so `std::set<ErrorCode>` or
/// `std::vector<std::optional<T>>` are containers, not statuses. A pointer
/// or reference at the outer level is never a status.
ReturnClass classify_return(const std::vector<Token>& t, std::size_t b,
                            std::size_t e, std::string_view name) {
  std::string_view outer;
  bool indirect = false;
  int angle = 0;
  for (std::size_t j = b; j < e; ++j) {
    const std::string_view s = t[j].text;
    if (s == "<") ++angle;
    if (s == ">") --angle;
    if (angle != 0) continue;
    if (s == "*" || s == "&" || s == "&&") indirect = true;
    if (t[j].kind == Tok::kIdent && s != "const" && s != "volatile") outer = s;
  }
  if (indirect) return ReturnClass::kOther;
  if (outer == "optional") return ReturnClass::kOptional;
  if (outer == "variant") return ReturnClass::kVariant;
  if (outer == "ErrorCode") return ReturnClass::kErrorCode;
  if (outer == "void") return ReturnClass::kVoid;
  if (outer == "bool") {
    return is_status_function_name(name) ? ReturnClass::kBoolStatus
                                         : ReturnClass::kBool;
  }
  return ReturnClass::kOther;
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
  index_annotations(tokens);
}

/// Classify every annotation marker by scanning forward to the nearest
/// declaration boundary: `name(` before a boundary is a function
/// annotation, `;`/`=`/`{` closes a field, and `)`/`,` means the marker sat
/// on a parameter (seeded locally by the CFG builder, not indexed here).
/// DFX_COLD's argument list is consumed first; its reason must be a string
/// literal.
void SymbolIndex::index_annotations(const std::vector<Token>& tokens) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  const std::size_t n = tokens.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (tokens[i].kind != Tok::kIdent) continue;
    const std::string_view w = tokens[i].text;
    if (w != "DFX_TAINTED" && w != "DFX_TAINT_PASSTHROUGH" &&
        w != "DFX_HOT_PATH" && w != "DFX_COLD") {
      continue;
    }
    std::size_t scan_from = i + 1;
    bool has_reason = false;
    if (w == "DFX_COLD") {
      if (!tok_is(tokens, i + 1, "(")) continue;
      scan_from = skip_parens(tokens, i + 1, n);
      for (std::size_t j = i + 1; j < scan_from; ++j) {
        if (tokens[j].kind == Tok::kString) has_reason = true;
      }
    }
    std::size_t last_ident = npos;
    std::size_t fn_ident = npos;
    bool field = false;
    for (std::size_t j = scan_from; j < n; ++j) {
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
    if (fn_ident == npos) {
      if (field && last_ident != npos && w == "DFX_TAINTED") {
        taint_fields_.insert(std::string(tokens[last_ident].text));
      }
      continue;
    }
    std::string name(tokens[fn_ident].text);
    if (w == "DFX_COLD") {
      const auto [it, inserted] = cold_fns_.try_emplace(name, has_reason);
      // Several declarations of one function: the reason requirement is
      // satisfied as soon as any of them carries it.
      if (!inserted && has_reason) it->second = true;
    } else if (w == "DFX_HOT_PATH") {
      hot_fns_.insert(std::move(name));
    } else {
      (w == "DFX_TAINTED" ? taint_sources_ : taint_passthrough_)
          .insert(std::move(name));
    }
  }
}

void SymbolIndex::index_functions(const std::string& path,
                                  const std::vector<Token>& tokens) {
  // One entry per open brace: does it hold declarations? The file scope
  // does; a chunk is only analyzed while the innermost scope does, so
  // statements in function bodies (`std::optional<int> o(3);`) never
  // index as functions, while a class declared inside one still does.
  std::vector<bool> decl_scope = {true};
  std::size_t chunk_begin = 0;
  for (std::size_t i = 0; i <= tokens.size(); ++i) {
    const std::string_view t =
        i == tokens.size() ? std::string_view(";") : tokens[i].text;
    if (t != ";" && t != "{" && t != "}") continue;
    if (decl_scope.back()) analyze_chunk(path, tokens, chunk_begin, i);
    if (t == "{") {
      decl_scope.push_back(opens_declaration_scope(tokens, chunk_begin, i));
    } else if (t == "}" && decl_scope.size() > 1) {
      decl_scope.pop_back();
    }
    chunk_begin = i + 1;
  }
}

/// One declaration-shaped chunk: the tokens between two of ; { } in a
/// declaration scope. Records a FunctionDecl when the chunk parses as
/// `ret-type [Qual::]name(params)` optionally followed by trailing
/// qualifiers and annotation macros.
void SymbolIndex::analyze_chunk(const std::string& path,
                                const std::vector<Token>& tokens,
                                std::size_t begin, std::size_t end) {
  std::size_t b = begin;
  bool nodiscard = false;
  // Leading access labels, attributes, annotation macros and specifiers.
  while (b < end) {
    if (const std::size_t next = skip_annotation(tokens, b, end); next != b) {
      b = next;
      continue;
    }
    if (const std::size_t next = skip_access_label(tokens, b); next != b) {
      b = next;
      continue;
    }
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
  for (std::size_t j = r + 1; j < end;) {
    if (tok_is(tokens, j, "noexcept") && tok_is(tokens, j + 1, "(")) {
      j = skip_parens(tokens, j + 1, end);
    } else if (const std::size_t next = skip_annotation(tokens, j, end);
               next != j) {
      j = next;  // DFX_REQUIRES(mu_) and the other thread annotations
    } else if (is_decl_trailer(tokens[j].text)) {
      ++j;
    } else {
      return;  // trailing return type, initializer list, or not a decl
    }
  }
  if (tokens[b].kind != Tok::kIdent && tokens[b].text != "::") return;
  FunctionDecl decl;
  decl.nodiscard = nodiscard;
  decl.name = std::string(tokens[candidate].text);
  decl.file = path;
  decl.line = tokens[candidate].line;
  for (std::size_t j = b; j < name_start; ++j) {
    if (!decl.return_type.empty()) decl.return_type += ' ';
    decl.return_type += std::string(tokens[j].text.empty()
                                        ? std::string_view("<literal>")
                                        : tokens[j].text);
  }
  decl.cls = classify_return(tokens, b, name_start, decl.name);
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
