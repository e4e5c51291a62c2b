#include "wrapper/wrapper_engine.h"

#include "base/clock.h"
#include "soap/message.h"
#include "wrapper/codegen.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/interpreter.h"
#include "xquery/parser.h"

namespace xrpc::wrapper {

namespace {

/// Serves the stored request document on top of the peer's database view.
class LayeredProvider : public xquery::DocumentProvider {
 public:
  LayeredProvider(xml::NodePtr request_doc, xquery::DocumentProvider* base)
      : request_doc_(std::move(request_doc)), base_(base) {}

  StatusOr<xml::NodePtr> GetDocument(const std::string& uri) override {
    if (uri == kRequestDocName) return request_doc_;
    if (base_ == nullptr) {
      return Status::NotFound("document not found: " + uri);
    }
    return base_->GetDocument(uri);
  }

 private:
  xml::NodePtr request_doc_;
  xquery::DocumentProvider* base_;
};

}  // namespace

StatusOr<std::vector<xdm::Sequence>> WrapperEngine::ExecuteRequest(
    const soap::XrpcRequest& request, const server::CallContext& context,
    xquery::PendingUpdateList* pul) {
  if (request.updating) {
    // The wrapper cannot channel pending update lists through its
    // generated query; route updates through the direct interpreter.
    server::InterpreterEngine fallback;
    return fallback.ExecuteRequest(request, context, pul);
  }
  StopWatch total;

  // The wrapper needs the function signature to generate marshaling code.
  XRPC_ASSIGN_OR_RETURN(server::RequestFunction f,
                        server::ResolveRequestFunction(request, context));

  // (i) treebuild: store the SOAP request as a temporary document the
  // generated query can read ("/tmp/requestXXX.xml" in the paper).
  StopWatch treebuild;
  std::string request_text = soap::SerializeRequest(request);
  XRPC_ASSIGN_OR_RETURN(xml::NodePtr request_doc,
                        xml::ParseXml(request_text));
  last_timings_.treebuild_us = treebuild.ElapsedMicros();

  // (ii) compile: generate and parse the Figure-3 query.
  StopWatch compile;
  XRPC_ASSIGN_OR_RETURN(last_query_, GenerateWrapperQuery(request, *f.def));
  XRPC_ASSIGN_OR_RETURN(xquery::MainModule generated,
                        xquery::ParseMainModule(last_query_));
  last_timings_.compile_us = compile.ElapsedMicros();

  // (iii) exec: evaluate; the result is the SOAP response envelope.
  StopWatch exec;
  LayeredProvider docs(request_doc, context.documents);
  xquery::Interpreter::Config config;
  config.documents = &docs;
  config.modules = context.modules;
  config.rpc = nullptr;  // wrapped engines cannot make outgoing XRPC calls
  xquery::Interpreter interp(config);
  XRPC_ASSIGN_OR_RETURN(xquery::QueryResult result,
                        interp.EvaluateQuery(generated));
  if (result.sequence.size() != 1 || !result.sequence[0].IsNode()) {
    return Status::Internal("wrapper query did not yield one envelope");
  }
  std::string response_text = xml::SerializeNode(*result.sequence[0].node());
  XRPC_ASSIGN_OR_RETURN(soap::XrpcResponse response,
                        soap::ParseResponse(response_text));
  last_timings_.exec_us = exec.ElapsedMicros();
  last_timings_.total_us = total.ElapsedMicros();
  total_timings_.treebuild_us += last_timings_.treebuild_us;
  total_timings_.compile_us += last_timings_.compile_us;
  total_timings_.exec_us += last_timings_.exec_us;
  total_timings_.total_us += last_timings_.total_us;
  return std::move(response.results);
}

}  // namespace xrpc::wrapper
