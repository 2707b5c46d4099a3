// Fixture: discarded-error-return (dead stores of must-use results, per the
// symbol index built from symbols/status_decls.h). Bare calls are rejected by
// the compiler (negative_compile/unused_result_must_fail.cpp), not the lint.

namespace fixture {

void exercise(int v) {
  apply_fix(v);        // compiler: ErrorCode dropped
  parse_record("a");   // compiler: bool status dropped
  decode_blob("b");    // compiler: optional dropped
  tagged_token();      // compiler: [[nodiscard]] dropped
  if (v > 0) decode_blob("c");  // compiler: controlled stmt still discards
}

void consumed(int v) {
  (void)apply_fix(v);  // cast to void: deliberate discard, ok
  if (parse_record("x")) {
    log_note(1);  // void return: ok to ignore
  }
  const auto rc = decode_blob("y");  // consumed: ok
  (void)rc;
  plain_sum(1, 2);  // plain int return: not a status, ok
  looks_ready(v);   // bool but not status-named: ok
  // dfx-lint: allow(discarded-error-return): fire-and-forget by design
  const auto fired = apply_fix(v);
}

void stored_but_dead(int v) {
  const auto st = parse_record("p");  // line 29: stored, never read on any path
  if (v > 0) {
    log_note(v);
  }
  auto ok = decode_blob("q");  // read in the branch below: ok
  if (v > 1) {
    log_note(ok ? 1 : 0);
  }
  auto later = apply_fix(v);  // reassigned before the read: conservatively ok
  later = apply_fix(v + 1);
  (void)later;
  [[maybe_unused]] auto tagged = tagged_token();  // annotated: ok
}

}  // namespace fixture
