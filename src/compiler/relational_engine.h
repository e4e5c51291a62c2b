#ifndef XRPC_COMPILER_RELATIONAL_ENGINE_H_
#define XRPC_COMPILER_RELATIONAL_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "compiler/loop_lift.h"
#include "server/engine.h"
#include "server/module_registry.h"
#include "shred/shredded_doc.h"

namespace xrpc::compiler {

/// The loop-lifted evaluator configuration that evaluates over `context`
/// (the engine's request path and p0 alike).
LoopLiftConfig LoopLiftConfigFor(const server::CallContext& context);

/// The MonetDB/XQuery-style execution engine: serves XRPC requests through
/// the loop-lifted relational evaluator, executing ALL calls of a Bulk RPC
/// request in one set-oriented pass (the request's calls become the loop
/// relation, Section 3.2).
///
/// The function cache (Section 3.3) is the prepared-plan cache: with the
/// cache ON, the pre-parsed module from the registry is reused and a
/// request needs no query translation; with the cache OFF, the module
/// source is re-parsed on every request, modeling the 130 ms translation
/// overhead column of Table 2.
///
/// Updating requests run loop-lifted too: each call's pending update list
/// comes back separately and joins the request's list as one update
/// source, exactly as on the interpreter, so both engines stage the same
/// primitives in the same order for the isolation layer (Section 2.3).
class RelationalEngine : public server::ExecutionEngine {
 public:
  struct Options {
    bool use_function_cache = true;
    /// Required when use_function_cache is false (source of truth for
    /// recompilation).
    server::ModuleRegistry* registry = nullptr;
  };

  RelationalEngine() = default;
  explicit RelationalEngine(const Options& options) : options_(options) {}

  std::string name() const override {
    return options_.use_function_cache ? "relational" : "relational-nocache";
  }

  StatusOr<std::vector<xdm::Sequence>> ExecuteRequest(
      const soap::XrpcRequest& request, const server::CallContext& context,
      xquery::PendingUpdateList* pul) override;

  int64_t bulk_requests() const { return bulk_requests_.load(); }
  /// Always empty (shred/shredded_doc.h); readable for tools that report
  /// its size.
  shred::ShredCache& shred_cache() { return shreds_; }

 private:
  Options options_;
  shred::ShredCache shreds_;
  // One engine serves concurrent HTTP workers, so the counter is an
  // atomic — a plain ++ here is a data race under load (TSan-verified).
  std::atomic<int64_t> bulk_requests_{0};
};

}  // namespace xrpc::compiler

#endif  // XRPC_COMPILER_RELATIONAL_ENGINE_H_
