// Fixture: nested namespaces, forward declarations, and an unscoped enum —
// the shapes the symbol index must survive. cross_b.cpp defines one of
// these functions out of line.
#pragma once

namespace outer {
namespace inner {

class Cache;  // forward class declaration: must not be indexed as anything

enum Flavor { kSweet, kSour, kBitter };

ErrorCode refresh_cache(int generation);
bool validate_entry(const Cache& c);

}  // namespace inner
}  // namespace outer
