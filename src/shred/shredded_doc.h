#ifndef XRPC_SHRED_SHREDDED_DOC_H_
#define XRPC_SHRED_SHREDDED_DOC_H_

#include <cstddef>

namespace xrpc::shred {

/// Always empty: no engine shreds documents into a pre/size/level store.
/// Both engines walk the DOM and answer repeated paths from the path index
/// (DESIGN.md §6). Kept only for tools that still report its size.
class ShredCache {
 public:
  size_t size() const { return 0; }
  void Clear() {}
};

}  // namespace xrpc::shred

#endif  // XRPC_SHRED_SHREDDED_DOC_H_
