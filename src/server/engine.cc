#include "server/engine.h"

#include "server/rpc_client.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace xrpc::server {

StatusOr<RequestFunction> ResolveRequestFunction(
    const soap::XrpcRequest& request, const CallContext& context, bool reparse,
    ModuleRegistry* registry) {
  RequestFunction out;
  if (reparse) {
    if (registry == nullptr) {
      return Status::Internal("re-parsing modules requires a registry");
    }
    XRPC_ASSIGN_OR_RETURN(const std::string* source,
                          registry->SourceOf(request.module_ns));
    XRPC_ASSIGN_OR_RETURN(xquery::LibraryModule parsed,
                          xquery::ParseLibraryModule(*source));
    xquery::NormalizePaths(&parsed);
    out.reparsed =
        std::make_unique<xquery::LibraryModule>(std::move(parsed));
    out.module = out.reparsed.get();
  } else {
    if (context.modules == nullptr) {
      return Status::Internal("no module resolver configured");
    }
    XRPC_ASSIGN_OR_RETURN(
        out.module,
        context.modules->Resolve(request.module_ns, request.location));
  }
  out.def = out.module->FindFunction(
      xml::QName(request.module_ns, request.method), request.arity);
  if (out.def == nullptr) {
    return Status::NotFound("function " + request.method + "#" +
                            std::to_string(request.arity) +
                            " not found in module " + request.module_ns);
  }
  return out;
}

xquery::Interpreter::Config InterpreterConfig(const CallContext& c) {
  return {.documents = c.documents, .rpc = c.rpc, .modules = c.modules,
          .cancel = c.cancel, .path_index = c.path_index,
          .index_counters = c.index_counters};
}

std::vector<xdm::Sequence> MergeCallResults(
    std::vector<xquery::QueryResult> calls, xquery::PendingUpdateList* pul) {
  std::vector<xdm::Sequence> results;
  results.reserve(calls.size());
  for (xquery::QueryResult& call : calls) {
    if (pul != nullptr && !call.updates.empty()) {
      pul->BeginCall();
      pul->Merge(std::move(call.updates));
    }
    results.push_back(std::move(call.sequence));
  }
  return results;
}

StatusOr<std::vector<xdm::Sequence>> InterpreterEngine::ExecuteRequest(
    const soap::XrpcRequest& request, const CallContext& context,
    xquery::PendingUpdateList* pul) {
  XRPC_ASSIGN_OR_RETURN(RequestFunction f,
                        ResolveRequestFunction(request, context));
  xquery::Interpreter interp(InterpreterConfig(context));
  XRPC_ASSIGN_OR_RETURN(
      std::vector<xquery::QueryResult> call_results,
      interp.CallModuleFunction(*f.module, *f.def, request.calls));
  return MergeCallResults(std::move(call_results), pul);
}

}  // namespace xrpc::server
