// Symbol index for dfixer_lint: function declarations (in namespace and
// class scopes, never statements in function bodies) with the status class
// of their outermost return type, plus the taint and hot-path annotations.
// is_must_use_decl() is the project's one definition of "must-use":
// missing-nodiscard demands [[nodiscard]] on every such declaration of the
// linted file (the compiler then rejects bare discarded calls), and
// discarded-error-return's dead-store check asks the src/-wide index
// whether a called name is must-use.
//
// Cross-file lookups are name-based (unqualified), deliberately: there is
// no overload resolution. A name is only treated as must-use when *every*
// indexed declaration of it is must-use, so a collision with an unrelated
// void function makes the rule go quiet rather than wrong.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dfixer_lint/lexer.h"

namespace dfx::lint {

enum class ReturnClass : std::uint8_t {
  kOther,
  kVoid,
  kBool,        // plain bool (not status-named)
  kBoolStatus,  // bool + parse/validate/verify/decode-style name
  kErrorCode,   // ErrorCode by value
  kOptional,    // std::optional<...> by value
  kVariant,     // std::variant<...> by value
};

struct FunctionDecl {
  std::string name;         // unqualified (last component)
  std::string return_type;  // normalized, space-joined token text
  ReturnClass cls = ReturnClass::kOther;
  bool nodiscard = false;
  std::string file;
  std::size_t line = 0;  // 1-based, of the declared name
};

/// Names that must not silently drop their status result (parse_*,
/// validate_*, *_decode, from_wire, ...).
bool is_status_function_name(std::string_view name);

/// Must the result of a declaration with this shape be consumed? True for
/// [[nodiscard]] and for the status classes (ErrorCode, optional, variant,
/// status-named bool).
bool is_must_use_decl(const FunctionDecl& decl);

class SymbolIndex {
 public:
  /// Record every function declaration and annotation found in one
  /// already-lexed file. Safe to call once per file; later calls append.
  void index_source(const std::string& path, const std::vector<Token>& tokens);

  const std::vector<FunctionDecl>& functions() const { return functions_; }
  std::size_t indexed_file_count() const { return file_count_; }

  std::vector<const FunctionDecl*> find_functions(std::string_view name) const;

  /// True when `name` is indexed and every declaration of it is must-use
  /// (ErrorCode / optional / variant / status-named bool / [[nodiscard]]).
  bool must_use(std::string_view name) const;

  /// Taint annotations (src/util/check.hpp) collected across every indexed
  /// file, feeding the taint pack's TaintConfig. A DFX_TAINTED marker on a
  /// function declaration makes its name a source call; on a struct field it
  /// makes the field name tainted wherever it is read; DFX_TAINT_PASSTHROUGH
  /// marks calls that forward taint from arguments to result. Markers on
  /// parameters are NOT indexed — the CFG builder seeds those locally.
  const std::set<std::string, std::less<>>& taint_source_calls() const {
    return taint_sources_;
  }
  const std::set<std::string, std::less<>>& taint_fields() const {
    return taint_fields_;
  }
  const std::set<std::string, std::less<>>& taint_passthrough_calls() const {
    return taint_passthrough_;
  }

  /// Hot-path annotations (src/util/check.hpp), unqualified function names.
  /// DFX_HOT_PATH marks a function as fast-path; DFX_COLD(reason) exempts
  /// one from hot-path cost accounting. `cold_fns()` maps the name to
  /// whether the annotation carried the mandatory reason string.
  const std::set<std::string, std::less<>>& hot_path_fns() const {
    return hot_fns_;
  }
  const std::map<std::string, bool, std::less<>>& cold_fns() const {
    return cold_fns_;
  }

 private:
  void index_functions(const std::string& path,
                       const std::vector<Token>& tokens);
  void index_annotations(const std::vector<Token>& tokens);
  void analyze_chunk(const std::string& path, const std::vector<Token>& tokens,
                     std::size_t begin, std::size_t end);

  std::vector<FunctionDecl> functions_;
  std::map<std::string, std::vector<std::size_t>, std::less<>> fn_by_name_;
  std::set<std::string, std::less<>> taint_sources_;
  std::set<std::string, std::less<>> taint_fields_;
  std::set<std::string, std::less<>> taint_passthrough_;
  std::set<std::string, std::less<>> hot_fns_;
  std::map<std::string, bool, std::less<>> cold_fns_;  // name -> has reason
  std::size_t file_count_ = 0;
};

}  // namespace dfx::lint
