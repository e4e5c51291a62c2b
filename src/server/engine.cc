#include "server/engine.h"

#include "server/rpc_client.h"
#include "xquery/interpreter.h"
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

StatusOr<std::vector<xdm::Sequence>> InterpreterEngine::ExecuteRequest(
    const soap::XrpcRequest& request, const CallContext& context,
    xquery::PendingUpdateList* pul) {
  XRPC_ASSIGN_OR_RETURN(
      RequestFunction f,
      ResolveRequestFunction(request, context, options_.reparse_per_request,
                             options_.registry));
  xquery::Interpreter::Config config;
  config.documents = context.documents;
  config.modules = context.modules;
  config.rpc = context.rpc;
  config.cancel = context.cancel;
  xquery::Interpreter interp(config);
  XRPC_ASSIGN_OR_RETURN(
      std::vector<xquery::QueryResult> call_results,
      interp.CallModuleFunction(*f.module, *f.def, request.calls));

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
