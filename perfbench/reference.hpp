// A fixed reference computation timed next to every measured sample.
//
// On a shared host the speed of one core can move by up to 2x for minutes
// at a time (steal time stays near zero). Timing a fixed piece of
// work just before each sample and reporting the sample's rate per
// reference unit cancels most of that. The reference lives in the
// benchmark, compiled with fixed options (see CMakeLists.txt), so no change
// to the simulator or its build moves it.
//
// Of four candidates tried against lumped_inter (a plain dense product, a
// pointer chase over 512 KiB, unpredictable branches, and the product below,
// whose vector decays through the subnormal range), the last tracked the
// simulation best: over 40-simulation windows it cut the spread of the
// median rate from a coefficient of variation of 0.22 to 0.07.
#pragma once

namespace perfbench {

/// One reference unit: 600 products of a fixed dense 66x66 matrix with a
/// vector that decays through the subnormal range to zero. Subnormal
/// arithmetic is kept on for the call whatever the build selects. Returns
/// host seconds.
[[nodiscard]] double referenceSeconds();

}  // namespace perfbench
