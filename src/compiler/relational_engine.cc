#include "compiler/relational_engine.h"

namespace xrpc::compiler {

StatusOr<std::vector<xdm::Sequence>> RelationalEngine::ExecuteRequest(
    const soap::XrpcRequest& request, const server::CallContext& context,
    xquery::PendingUpdateList* pul) {
  ++bulk_requests_;

  // Updates run on the separate update path (the interpreter), exactly as
  // MonetDB/XQuery routes XQUF updates outside the loop-lifted plans.
  if (request.updating) {
    ++interpreter_fallbacks_;
    server::InterpreterEngine fallback;
    return fallback.ExecuteRequest(request, context, pul);
  }

  XRPC_ASSIGN_OR_RETURN(
      server::RequestFunction f,
      server::ResolveRequestFunction(request, context,
                                     !options_.use_function_cache,
                                     options_.registry));
  auto relational = ExecuteRelational(request, context, *f.module, *f.def);
  if (relational.ok() ||
      relational.status().code() != StatusCode::kUnsupported) {
    return relational;
  }
  // Outside the relational subset: interpret instead.
  ++interpreter_fallbacks_;
  server::InterpreterEngine::Options iopts;
  iopts.reparse_per_request = !options_.use_function_cache;
  iopts.registry = options_.registry;
  server::InterpreterEngine fallback(iopts);
  return fallback.ExecuteRequest(request, context, pul);
}

StatusOr<std::vector<xdm::Sequence>> RelationalEngine::ExecuteRelational(
    const soap::XrpcRequest& request, const server::CallContext& context,
    const xquery::LibraryModule& module, const xquery::FunctionDef& def) {
  // Shred the request parameters into loop-lifted tables: call i becomes
  // iteration i+1.
  int64_t num_calls = static_cast<int64_t>(request.calls.size());
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

  LoopLiftConfig config;
  config.documents = context.documents;
  config.modules = context.modules;
  config.rpc = context.rpc;
  config.cancel = context.cancel;
  LoopLiftedEvaluator evaluator(config);
  XRPC_ASSIGN_OR_RETURN(
      algebra::Table result,
      evaluator.EvaluateFunctionBulk(module, def, std::move(args), num_calls));

  std::vector<xdm::Sequence> out(static_cast<size_t>(num_calls));
  for (size_t i = 0; i < result.NumRows(); ++i) {
    int64_t iter = result.Iter(i);
    if (iter < 1 || iter > num_calls) {
      return Status::Internal("bulk result iteration out of range");
    }
    out[static_cast<size_t>(iter - 1)].push_back(result.TakeItemAt(i));
  }
  return out;
}

}  // namespace xrpc::compiler
