//===- RunLoopCounting.cpp - The counting run loop -----------------------------===//
//
// The counting instantiation of Interpreter::runLoop (DESIGN.md §6), in a
// translation unit of its own; Interp.cpp says why.
//
//===----------------------------------------------------------------------===//

#include "vm/Interp.h"

using namespace cfed;

#include "vm/RunLoop.inc"

template StopInfo Interpreter::runLoop<false, false, true>(uint64_t);
