#ifndef XRPC_SERVER_MODULE_REGISTRY_H_
#define XRPC_SERVER_MODULE_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "xquery/context.h"
#include "xquery/module.h"

namespace xrpc::server {

/// Holds the XQuery modules a peer can execute XRPC requests against,
/// keyed by target namespace (the `module` attribute of xrpc:request).
///
/// The registry keeps the original module source text so that execution
/// engines without a cache can measure genuine recompilation cost — the
/// "No Function Cache" configuration of Table 2 reparses from here on
/// every request.
class ModuleRegistry : public xquery::ModuleResolver {
 public:
  ModuleRegistry() = default;
  ModuleRegistry(const ModuleRegistry&) = delete;
  ModuleRegistry& operator=(const ModuleRegistry&) = delete;

  /// Parses and registers a library module; `location` is the URL the
  /// module is nominally served from (matched against at-hints). A module
  /// of the same namespace is superseded: later requests resolve the new
  /// one, and the old one stays alive as long as the registry, because
  /// requests in flight run it through the pointer Resolve() gave them and
  /// path indexes are keyed by its expressions.
  Status RegisterModule(std::string_view source_text,
                        const std::string& location = "");

  /// ModuleResolver: find by target namespace (location is advisory).
  StatusOr<const xquery::LibraryModule*> Resolve(
      const std::string& target_ns, const std::string& location) override;

  /// Source text of a module (for cache-less recompilation).
  StatusOr<const std::string*> SourceOf(const std::string& target_ns) const;

  std::vector<std::string> Namespaces() const;

 private:
  struct Entry {
    std::unique_ptr<xquery::LibraryModule> module;
    std::string source;
    std::string location;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> modules_;
  std::vector<std::unique_ptr<xquery::LibraryModule>> superseded_;
};

}  // namespace xrpc::server

#endif  // XRPC_SERVER_MODULE_REGISTRY_H_
