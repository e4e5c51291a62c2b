#ifndef XRPC_TESTS_TEST_UTIL_H_
#define XRPC_TESTS_TEST_UTIL_H_

// Shared in-memory fakes used across the test suites: document providers,
// module resolvers and RPC recorders for exercising the XQuery engines
// without a network.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "xml/parser.h"
#include "xquery/context.h"
#include "xquery/interpreter.h"
#include "xquery/parser.h"

namespace xrpc::testing {

/// Collision-free scratch file path: <TempDir>/<name>.<pid>.<seq>.
/// ::testing::TempDir() is shared across test binaries, so fixed names
/// ("roundtrip.wal") collide when `ctest -j` runs suites in parallel or a
/// binary is sharded; the pid + per-process sequence make every call
/// unique. Callers still remove the file themselves.
inline std::string UniqueTempPath(const std::string& name) {
  static std::atomic<int> seq{0};
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid()) + "." +
         std::to_string(seq.fetch_add(1));
}

/// Document provider backed by a name -> XML text map.
class MapDocumentProvider : public xquery::DocumentProvider {
 public:
  void AddDocument(const std::string& uri, const std::string& xml_text) {
    auto doc = xml::ParseXml(xml_text);
    if (doc.ok()) docs_[uri] = doc.value();
  }
  void AddDocumentNode(const std::string& uri, xml::NodePtr doc) {
    docs_[uri] = std::move(doc);
  }

  StatusOr<xml::NodePtr> GetDocument(const std::string& uri) override {
    auto it = docs_.find(uri);
    if (it == docs_.end()) {
      return Status::NotFound("document not found: " + uri);
    }
    return it->second;
  }

  const std::map<std::string, xml::NodePtr>& docs() const { return docs_; }

 private:
  std::map<std::string, xml::NodePtr> docs_;
};

/// Module resolver backed by parsed library modules keyed by namespace.
class MapModuleResolver : public xquery::ModuleResolver {
 public:
  /// Parses and registers a module; returns the parse status.
  Status AddModule(const std::string& text) {
    auto mod = xquery::ParseLibraryModule(text);
    XRPC_RETURN_IF_ERROR(mod.status());
    auto owned = std::make_unique<xquery::LibraryModule>(std::move(mod).value());
    modules_[owned->target_ns] = std::move(owned);
    return Status::OK();
  }

  StatusOr<const xquery::LibraryModule*> Resolve(
      const std::string& target_ns, const std::string& location) override {
    (void)location;
    auto it = modules_.find(target_ns);
    if (it == modules_.end()) {
      return Status::NotFound("module not found: " + target_ns);
    }
    return static_cast<const xquery::LibraryModule*>(it->second.get());
  }

 private:
  std::map<std::string, std::unique_ptr<xquery::LibraryModule>> modules_;
};

/// RPC handler that records calls and executes them locally against a
/// registered module resolver + document provider (a loopback "peer").
class LoopbackRpcHandler : public xquery::RpcHandler {
 public:
  LoopbackRpcHandler(MapModuleResolver* modules,
                     MapDocumentProvider* documents)
      : modules_(modules), documents_(documents) {}

  StatusOr<xdm::Sequence> Execute(const xquery::RpcCall& call) override {
    calls_.push_back(call);
    XRPC_ASSIGN_OR_RETURN(const xquery::LibraryModule* mod,
                          modules_->Resolve(call.module_ns,
                                            call.module_location));
    const xquery::FunctionDef* def =
        mod->FindFunction(call.function, call.args.size());
    if (def == nullptr) {
      return Status::NotFound("function not found: " + call.function.Clark());
    }
    xquery::Interpreter::Config config;
    config.documents = documents_;
    config.modules = modules_;
    config.rpc = this;
    xquery::Interpreter interp(config);
    XRPC_ASSIGN_OR_RETURN(std::vector<xquery::QueryResult> results,
                          interp.CallModuleFunction(*mod, *def, {call.args}));
    return std::move(results[0].sequence);
  }

  const std::vector<xquery::RpcCall>& calls() const { return calls_; }

 private:
  MapModuleResolver* modules_;
  MapDocumentProvider* documents_;
  std::vector<xquery::RpcCall> calls_;
};

/// Parses and evaluates a main-module query, returning the rendered result
/// ("ERROR: ..." on failure), with optional providers.
inline std::string EvalToString(const std::string& query,
                                xquery::DocumentProvider* docs = nullptr,
                                xquery::ModuleResolver* modules = nullptr,
                                xquery::RpcHandler* rpc = nullptr) {
  auto parsed = xquery::ParseMainModule(query);
  if (!parsed.ok()) return "ERROR: " + parsed.status().ToString();
  xquery::Interpreter::Config config;
  config.documents = docs;
  config.modules = modules;
  config.rpc = rpc;
  xquery::Interpreter interp(config);
  auto result = interp.EvaluateQuery(parsed.value());
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  return xdm::SequenceToString(result.value().sequence);
}

}  // namespace xrpc::testing

#endif  // XRPC_TESTS_TEST_UTIL_H_
