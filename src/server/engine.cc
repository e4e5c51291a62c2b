#include "server/engine.h"

#include "server/rpc_client.h"
#include "xquery/interpreter.h"
#include "xquery/parser.h"

namespace xrpc::server {

StatusOr<std::vector<xdm::Sequence>> InterpreterEngine::ExecuteRequest(
    const soap::XrpcRequest& request, const CallContext& context,
    xquery::PendingUpdateList* pul) {
  // Locate the module: either re-parse its source (cache-less) or use the
  // resolver's pre-parsed representation (function cache).
  const xquery::LibraryModule* module = nullptr;
  xquery::LibraryModule reparsed;
  if (options_.reparse_per_request) {
    if (options_.registry == nullptr) {
      return Status::Internal("reparse_per_request requires a registry");
    }
    XRPC_ASSIGN_OR_RETURN(const std::string* source,
                          options_.registry->SourceOf(request.module_ns));
    XRPC_ASSIGN_OR_RETURN(reparsed, xquery::ParseLibraryModule(*source));
    module = &reparsed;
  } else {
    if (context.modules == nullptr) {
      return Status::Internal("no module resolver configured");
    }
    XRPC_ASSIGN_OR_RETURN(
        module, context.modules->Resolve(request.module_ns, request.location));
  }

  const xquery::FunctionDef* def = nullptr;
  for (const xquery::FunctionDef& f : module->prolog.functions) {
    if (f.name.local == request.method && f.arity() == request.arity) {
      def = &f;
      break;
    }
  }
  if (def == nullptr) {
    return Status::NotFound("function " + request.method + "#" +
                            std::to_string(request.arity) +
                            " not found in module " + request.module_ns);
  }
  xquery::Interpreter::Config config;
  config.documents = context.documents;
  config.modules = context.modules;
  config.rpc = context.rpc;
  config.cancel = context.cancel;
  xquery::Interpreter interp(config);
  XRPC_ASSIGN_OR_RETURN(
      std::vector<xquery::QueryResult> call_results,
      interp.CallModuleFunction(*module, *def, request.calls));

  std::vector<xdm::Sequence> results;
  results.reserve(call_results.size());
  for (xquery::QueryResult& result : call_results) {
    if (pul != nullptr && !result.updates.empty()) {
      pul->BeginCall();
      pul->Merge(std::move(result.updates));
    }
    results.push_back(std::move(result.sequence));
  }
  return results;
}

}  // namespace xrpc::server
