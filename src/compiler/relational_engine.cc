#include "compiler/relational_engine.h"

namespace xrpc::compiler {

LoopLiftConfig LoopLiftConfigFor(const server::CallContext& c) {
  return {.documents = c.documents, .modules = c.modules, .rpc = c.rpc,
          .cancel = c.cancel, .path_index = c.path_index,
          .index_counters = c.index_counters};
}

StatusOr<std::vector<xdm::Sequence>> RelationalEngine::ExecuteRequest(
    const soap::XrpcRequest& request, const server::CallContext& context,
    xquery::PendingUpdateList* pul) {
  ++bulk_requests_;
  XRPC_ASSIGN_OR_RETURN(
      server::RequestFunction f,
      server::ResolveRequestFunction(request, context,
                                     !options_.use_function_cache,
                                     options_.registry));

  // Shred the request parameters into loop-lifted tables: call i becomes
  // iteration i+1.
  std::vector<algebra::Table> args(request.arity);
  PollGate gate(context.cancel);
  for (size_t call = 0; call < request.calls.size(); ++call) {
    if (gate.Tick()) return gate.status();
    const std::vector<xdm::Sequence>& params = request.calls[call];
    for (size_t p = 0; p < request.arity; ++p) {
      const xdm::Sequence& param = params[p];
      for (size_t k = 0; k < param.size(); ++k) {
        args[p].AppendIPI(static_cast<int64_t>(call + 1),
                          static_cast<int64_t>(k + 1), param[k]);
      }
    }
  }

  LoopLiftConfig config = LoopLiftConfigFor(context);
  // A re-parsed module's expressions are not the index's keys.
  if (f.reparsed != nullptr) config.path_index = nullptr;
  LoopLiftedEvaluator evaluator(config);
  XRPC_ASSIGN_OR_RETURN(
      std::vector<xquery::QueryResult> results,
      evaluator.EvaluateFunctionBulk(
          *f.module, *f.def, std::move(args),
          static_cast<int64_t>(request.calls.size())));
  return server::MergeCallResults(std::move(results), pul);
}

}  // namespace xrpc::compiler
