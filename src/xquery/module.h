#ifndef XRPC_XQUERY_MODULE_H_
#define XRPC_XQUERY_MODULE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "xquery/ast.h"

namespace xrpc::xquery {

/// Namespace URI assumed for unprefixed function calls (fn:).
inline constexpr char kFnNs[] = "http://www.w3.org/2005/xpath-functions";
/// Namespace for local functions in a main module.
inline constexpr char kLocalNs[] =
    "http://www.w3.org/2005/xquery-local-functions";

/// A function parameter declaration.
struct Param {
  xml::QName name;
  SequenceType type;
};

/// A user-defined function (XQuery Module function or main-module local).
struct FunctionDef {
  xml::QName name;
  std::vector<Param> params;
  SequenceType return_type;
  ExprPtr body;
  bool updating = false;

  size_t arity() const { return params.size(); }
};

/// `import module namespace p = "uri" at "location";`
struct ModuleImport {
  std::string prefix;
  std::string target_ns;
  std::string location;  ///< at-hint (may be empty)
};

/// Common prolog contents of main and library modules.
struct Prolog {
  /// Declared prefix -> URI bindings (in declaration order).
  std::vector<std::pair<std::string, std::string>> namespaces;
  /// declare option name "value"; keyed by Clark name of the option QName.
  std::map<std::string, std::string> options;
  std::vector<ModuleImport> imports;
  std::vector<FunctionDef> functions;
  /// declare variable $name := expr;
  std::vector<std::pair<xml::QName, ExprPtr>> variables;

  /// Finds a function by expanded name and arity; nullptr if absent.
  const FunctionDef* FindFunction(const xml::QName& name, size_t arity) const {
    for (const FunctionDef& f : functions) {
      if (f.name == name && f.arity() == arity) return &f;
    }
    return nullptr;
  }

  /// Looks up an option by Clark name; nullptr if absent.
  const std::string* FindOption(const std::string& clark) const {
    auto it = options.find(clark);
    return it == options.end() ? nullptr : &it->second;
  }
};

/// A parsed XQuery library module (`module namespace p = "uri";`).
struct LibraryModule {
  std::string prefix;
  std::string target_ns;
  Prolog prolog;

  const FunctionDef* FindFunction(const xml::QName& name, size_t arity) const {
    return prolog.FindFunction(name, arity);
  }
};

/// A parsed XQuery main module: prolog plus query body.
struct MainModule {
  Prolog prolog;
  ExprPtr body;
};

}  // namespace xrpc::xquery

#endif  // XRPC_XQUERY_MODULE_H_
