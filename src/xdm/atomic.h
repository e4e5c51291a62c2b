#ifndef XRPC_XDM_ATOMIC_H_
#define XRPC_XDM_ATOMIC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "base/statusor.h"

namespace xrpc::xdm {

/// The atomic types of the XQuery Data Model subset XRPC marshals.
///
/// Decimals are represented as doubles (sufficient for the paper's
/// workloads; documented restriction). Dates and dateTimes keep their
/// lexical form, which CastTo validates, and compare as the instants they
/// denote.
enum class AtomicType {
  kUntypedAtomic,
  kString,
  kBoolean,
  kInteger,
  kDecimal,
  kDouble,
  kQName,
  kDate,
  kDateTime,
  kAnyUri,
};

/// XML Schema name ("xs:integer") for a type, as used in xsi:type.
const char* AtomicTypeName(AtomicType type);

/// Parses an "xs:NNN" (or bare "NNN") schema type name.
StatusOr<AtomicType> AtomicTypeFromName(std::string_view name);

/// True for integer/decimal/double.
bool IsNumericType(AtomicType type);

/// An atomic value: a typed XDM scalar.
///
/// Value semantics; cheap to copy for non-string payloads.
class AtomicValue {
 public:
  /// Default: empty xs:string.
  AtomicValue() : type_(AtomicType::kString), value_(std::string()) {}

  static AtomicValue Untyped(std::string v);
  static AtomicValue String(std::string v);
  static AtomicValue Boolean(bool v);
  static AtomicValue Integer(int64_t v);
  static AtomicValue Decimal(double v);
  static AtomicValue Double(double v);
  static AtomicValue QNameValue(std::string lexical);
  static AtomicValue Date(std::string lexical);
  static AtomicValue DateTime(std::string lexical);
  static AtomicValue AnyUri(std::string v);

  AtomicType type() const { return type_; }

  /// Lexical (string) form of the value, XQuery serialization rules.
  std::string ToString() const;

  /// Casts to the target type; error on invalid lexical form or
  /// unsupported cast (XPTY0004-style).
  StatusOr<AtomicValue> CastTo(AtomicType target) const;

  /// Numeric value for numeric types (integer widened to double).
  double AsDouble() const;
  int64_t AsInteger() const;
  bool AsBoolean() const;

  bool IsNumeric() const { return IsNumericType(type_); }

  /// Deep equality: same type and same value, dates and dateTimes by
  /// instant (used by tests; query-level comparison goes through
  /// CompareAtomic).
  friend bool operator==(const AtomicValue& a, const AtomicValue& b);

 private:
  AtomicType type_;
  std::variant<std::string, bool, int64_t, double> value_;
};

/// Three-way comparison following XQuery value-comparison semantics after
/// type promotion:
///  - untypedAtomic is compared as string with strings, as double with
///    numerics, and cast for the remaining types;
///  - numeric types promote to the wider of the two;
///  - strings/URIs compare by codepoint; booleans false<true;
///  - date/dateTime compare by their timezone-normalized instant, a value
///    without a timezone read as UTC (so 12:00:00+02:00 eq 10:00:00Z).
/// Returns -1/0/1, or error for incomparable types (XPTY0004).
StatusOr<int> CompareAtomic(const AtomicValue& a, const AtomicValue& b);

/// The instant an xs:date or xs:dateTime denotes, the one CompareAtomic
/// orders by: seconds since 1970-01-01T00:00:00Z plus the fractional-second
/// digits without trailing zeros. Nullopt for other types and for invalid
/// lexical forms.
std::optional<std::pair<int64_t, std::string>> InstantOf(const AtomicValue& v);

}  // namespace xrpc::xdm

#endif  // XRPC_XDM_ATOMIC_H_
