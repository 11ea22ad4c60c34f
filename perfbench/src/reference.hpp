// A fixed reference computation for the host's current speed.
//
// The benchmark runs on shared virtual machines whose speed drifts by
// 15-25% between minutes-long states (other guests' load, the host's
// clock). The single-threaded solve workload follows that drift
// whole-run by whole-run, so a best-of-passes figure cannot remove it.
// The reference is a frozen copy of the work an OS-ELM step does at
// N = 64: a sigmoid hidden layer, a Q estimate and a Sherman-Morrison
// rank-1 update of the 64x64 P matrix. It is compiled apart from the
// core library, with fixed flags, so no change to the program can change
// its speed; timed beside the workload on the same thread, it tells how
// fast the host ran meanwhile.
#pragma once

namespace perfbench {

/// Wall seconds the reference takes on the reference host: its typical
/// time on the 4-vCPU Xeon (Sapphire Rapids) VM the benchmark was tuned
/// on. A host state in which it takes longer is that much slower.
inline constexpr double kReferenceSeconds = 5.0e-4;

/// Runs the reference once on the calling thread and returns its wall
/// seconds.
double time_reference();

}  // namespace perfbench
