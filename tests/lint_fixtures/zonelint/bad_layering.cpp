// Fixture: the zonelint module (layer 8) may include analyzer (7), server
// (6) and anything below, but not its rank-8 siblings (dfixer, dataset) or
// the layer-9 modules. See kLayers in lint_core.cpp.
#include "analyzer/grok.h"          // lower layer: ok
#include "zonelint/costmodel.h"     // same module: ok
#include "dfixer/dresolver.h"       // line 6: layering-violation (same rank)
#include "zreplicator/replicate.h"  // line 7: layering-violation (rank 9)

int zonelint_layering_fixture_dummy() { return 0; }
