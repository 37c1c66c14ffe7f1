// Package repro is a Go reproduction of "Reclaiming Memory for Lock-Free
// Data Structures: There has to be a Better Way" (Trevor Brown, PODC 2015):
// DEBRA, DEBRA+, the Record Manager abstraction, the competing reclamation
// schemes the paper evaluates against (hazard pointers, EBR, QSBR, and the
// leaking baseline none) and the data structures of its evaluation, plus a
// split-ordered hash map and a TCP key-value service built on the same
// stack.
//
// Where to read on:
//
//   - docs/ARCHITECTURE.md — the layer map, the epoch schemes, the life of a
//     request, the two contracts every layer relies on (a retire is tagged
//     after the unlink, quiescent release), the hot-path cost model and
//     the static analyzers that enforce the contracts.
//   - docs/PROTOCOL.md — the KV service's wire protocol.
//   - docs/OPERATIONS.md — running cmd/kvserver and cmd/kvload, choosing a
//     scheme, fault tolerance.
//   - benchmark/README.md — the repository's benchmark (`go run
//     ./benchmark`): its workloads and its end-to-end and per-layer metrics.
//
// cmd/reclaimbench regenerates the paper's figures (Experiments 1–3, the
// Figure 9 memory footprint, the stalled-thread claim); cmd/schemes prints
// Figure 2; cmd/reclaimvet runs the analyzers. The Example in
// internal/recordmgr runs one workload under every scheme by changing a
// single line. CI (.github/workflows/ci.yml) and local development share the
// Makefile targets, each described there in one line.
package repro
