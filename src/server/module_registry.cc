#include "server/module_registry.h"

#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace xrpc::server {

Status ModuleRegistry::RegisterModule(std::string_view source_text,
                                      const std::string& location) {
  XRPC_ASSIGN_OR_RETURN(xquery::LibraryModule parsed,
                        xquery::ParseLibraryModule(source_text));
  xquery::NormalizePaths(&parsed);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = modules_[parsed.target_ns];
  if (e.module != nullptr) superseded_.push_back(std::move(e.module));
  e.module = std::make_unique<xquery::LibraryModule>(std::move(parsed));
  e.source = std::string(source_text);
  e.location = location;
  return Status::OK();
}

StatusOr<const xquery::LibraryModule*> ModuleRegistry::Resolve(
    const std::string& target_ns, const std::string& location) {
  (void)location;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = modules_.find(target_ns);
  if (it == modules_.end()) {
    return Status::NotFound("could not load module: " + target_ns);
  }
  return static_cast<const xquery::LibraryModule*>(it->second.module.get());
}

StatusOr<const std::string*> ModuleRegistry::SourceOf(
    const std::string& target_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = modules_.find(target_ns);
  if (it == modules_.end()) {
    return Status::NotFound("could not load module: " + target_ns);
  }
  return &it->second.source;
}

std::vector<std::string> ModuleRegistry::Namespaces() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [ns, entry] : modules_) out.push_back(ns);
  return out;
}

}  // namespace xrpc::server
