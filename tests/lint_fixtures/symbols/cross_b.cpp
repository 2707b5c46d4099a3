// Fixture: out-of-line qualified definition, indexed under the same name
// as the declaration in cross_a.h.

namespace outer {

ErrorCode inner::refresh_cache(int generation) {
  (void)generation;
  return {};
}

}  // namespace outer
