#!/usr/bin/env bash
# Sanitizer gate for the transport and transaction layers: builds the
# tests under ThreadSanitizer (or the sanitizer given as $1) in a side
# build directory and runs the suites that exercise the HttpServer
# worker-pool / keep-alive threading paths, the parallel Bulk RPC
# dispatch paths, concurrent query workers (ParallelExecTest), the
# concurrent WAL / 2PC crash-recovery paths, the
# sharded-collection scatter-gather paths (whose per-shard Bulk RPCs ride
# the parallel dispatch pool), plus the `failover` lane (replica failover,
# catalog epoch fencing, circuit-breaker probe races; DESIGN.md §14), the
# `workload` lane (the open-loop multi-tenant driver and the chaos
# explorer's no-lost-shard sabotage; DESIGN.md §14, §16), and the `repair`
# lane (replicated writes: all-copies 2PC, fragment data versioning, the
# StaleReplica fence and anti-entropy resync; DESIGN.md §17), plus the SOAP
# codec and XML suites (Marshal, Message, XmlParser, XmlNode, XmlSerializer,
# EdgeCases): decoding moves parsed value subtrees out of the envelope's
# shared_ptr tree instead of copying them, which is what the address lane
# watches. PathIndexTest runs concurrent readers through one service's
# shared path index. The relational engine's suites (the table kernels of
# algebra_test, LoopLiftTest and its engine-equivalence corpora, CoreTest,
# DifferentialCorpusTest) run here too: its iter|pos|item tables move
# items, and the node anchors they own, from table to table.
# ParserNegativeTest and the XmlParser suite hold the parsers' depth
# guards: the deepest input each parser accepts must fit the stack with
# sanitizer frames, and deeper input must be a clean error.
# DocumentResolverTest and QueryScopeTest hold the per-query scope every
# request builds (server/query_scope.h); HTTP workers build one per request
# concurrently, over one shared catalog, registry and metrics.
#
# Usage: tools/check_sanitize.sh [thread|address]
set -euo pipefail

SANITIZER="${1:-thread}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-$SANITIZER-san"

cmake -B "$BUILD" -S "$ROOT" -DXRPC_SANITIZE="$SANITIZER" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j
cd "$BUILD"
ctest --output-on-failure -j"$(nproc)" \
      -R 'HttpServer|HttpTransport|HttpPost|HttpIntegrationTest|Retry|FaultInjection|SimulatedNetwork|RpcMetrics|LatencyHistogram|Uri|BulkRetry|TxnLog|PulSerialization|TxnRecovery|ThreadPool|ParallelGroup|ParallelDispatch|RetryJitter|CancellationToken|CircuitBreaker|RetryingTransportDeadline|RetryingTransportBreaker|DeadlineChain|CatalogTest|ShardExecTest|ParallelExecTest|Marshal|Message|XmlParser|XmlNode|XmlSerializer|EdgeCases|PathIndexTest|TableTest|DisjointUnionTest|SortByTest|ScatterGatherMergeTest|LoopLiftTest|EngineEquivalence|EngineErrorEquivalence|CoreTest|DifferentialCorpusTest|ParserNegativeTest|DocumentResolverTest|QueryScopeTest'
# The failover lane by label: replica failover + epoch fencing
# (failover_test) and the half-open probe races (circuit_breaker_test).
ctest --output-on-failure -j"$(nproc)" -L failover
# The workload lane by label: open-loop driver determinism (the SLO
# report must stay byte-identical under TSan's scheduling perturbation)
# and the chaos explorer's no-lost-shard sabotage self-test (DESIGN.md §14).
ctest --output-on-failure -j"$(nproc)" -L workload
# The repair lane by label: the WAL-delta chain / fragment-digest units
# (repair_test), the lagging-copy fences and resync end-to-ends
# (failover_test) and the partition-heals-via-repair 2PC recovery paths
# (txn_recovery_test) — all of which race commit apply against reads
# (DESIGN.md §17).
ctest --output-on-failure -j"$(nproc)" -L repair
echo "sanitize($SANITIZER): OK"
