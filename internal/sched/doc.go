// Package sched implements PMRace's interleaving exploration (paper §4.2.2):
// a PM-aware strategy that drives executions towards reading non-persisted
// data by injecting conditional waits before selected load instructions
// ("sync points") and condition signals after the corresponding stores,
// ending each wait on events recorded in a run-state Ledger rather than on
// timeouts; plus the random delay-injection baseline ("Delay Inj" in the
// evaluation) and a priority queue of shared PM data accesses from which
// sync points are drawn.
package sched
