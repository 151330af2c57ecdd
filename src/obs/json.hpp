// Compatibility alias: the JSON writer lives in common/json.hpp. This header
// stays only because perfbench/perfbench.cpp includes it and names
// obs::JsonWriter; everything else includes common/json.hpp directly.
#pragma once

#include "common/json.hpp"

namespace rltherm::obs {
using rltherm::JsonWriter;
}  // namespace rltherm::obs
