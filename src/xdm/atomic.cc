#include "xdm/atomic.h"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "base/string_util.h"

namespace xrpc::xdm {

namespace {

/// An xs:date or xs:dateTime as the instant it denotes: seconds since
/// 1970-01-01T00:00:00Z plus the fractional-second digits without trailing
/// zeros (so digit strings order like the fractions they spell). A value
/// without a timezone reads as UTC; an xs:date is its first instant.
using Instant = std::pair<int64_t, std::string>;

/// Days since 1970-01-01 of a proleptic Gregorian date (y = 0 is 1 BCE).
int64_t DaysFromCivil(int64_t y, int64_t m, int64_t d) {
  y -= m <= 2 ? 1 : 0;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  return era * 146097 + yoe * 365 + yoe / 4 - yoe / 100 + doy - 719468;
}

/// Parses the XML Schema lexical form of an xs:date (`with_time` false)
/// or xs:dateTime: -?YYYY-MM-DD, then THH:MM:SS(.S+)? for a dateTime,
/// then an optional Z or +HH:MM / -HH:MM timezone. Nullopt if invalid.
std::optional<Instant> ParseInstant(std::string_view s, bool with_time) {
  size_t i = 0;
  auto number = [&](size_t min_len, size_t max_len) -> std::optional<int64_t> {
    size_t start = i;
    while (i < s.size() && i - start < max_len && s[i] >= '0' && s[i] <= '9') {
      ++i;
    }
    if (i - start < min_len || (i < s.size() && s[i] >= '0' && s[i] <= '9')) {
      return std::nullopt;
    }
    return std::stoll(std::string(s.substr(start, i - start)));
  };
  auto skip = [&](char c) {
    if (i >= s.size() || s[i] != c) return false;
    ++i;
    return true;
  };
  const bool bce = skip('-');
  const size_t year_start = i;
  auto year = number(4, 9);
  if (!year || *year == 0 ||
      (i - year_start > 4 && s[year_start] == '0')) {
    return std::nullopt;
  }
  std::optional<int64_t> month, day;
  if (!skip('-') || !(month = number(2, 2)) || !skip('-') ||
      !(day = number(2, 2))) {
    return std::nullopt;
  }
  const int64_t y = bce ? 1 - *year : *year;
  const bool leap = y % 4 == 0 && (y % 100 != 0 || y % 400 == 0);
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30,
                                  31, 31, 30, 31, 30, 31};
  if (*month < 1 || *month > 12 || *day < 1 ||
      *day > kDays[*month - 1] + (*month == 2 && leap ? 1 : 0)) {
    return std::nullopt;
  }
  Instant instant{DaysFromCivil(y, *month, *day) * 86400, ""};
  if (with_time) {
    std::optional<int64_t> hh, mm, ss;
    if (!skip('T') || !(hh = number(2, 2)) || !skip(':') ||
        !(mm = number(2, 2)) || !skip(':') || !(ss = number(2, 2))) {
      return std::nullopt;
    }
    if (skip('.')) {
      size_t start = i;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
      if (i == start) return std::nullopt;
      instant.second = std::string(s.substr(start, i - start));
      while (!instant.second.empty() && instant.second.back() == '0') {
        instant.second.pop_back();
      }
    }
    const bool midnight = *hh == 24 && *mm == 0 && *ss == 0 &&
                          instant.second.empty();
    if ((*hh > 23 && !midnight) || *mm > 59 || *ss > 59) return std::nullopt;
    instant.first += *hh * 3600 + *mm * 60 + *ss;
  }
  if (!skip('Z') && i < s.size()) {
    const int64_t sign = s[i] == '-' ? -1 : 1;
    std::optional<int64_t> tzh, tzm;
    if (!(skip('+') || skip('-')) || !(tzh = number(2, 2)) || !skip(':') ||
        !(tzm = number(2, 2)) || *tzm > 59 || *tzh > 14 ||
        (*tzh == 14 && *tzm != 0)) {
      return std::nullopt;
    }
    instant.first -= sign * (*tzh * 3600 + *tzm * 60);
  }
  if (i != s.size()) return std::nullopt;
  return instant;
}

/// Orders two date or dateTime values of one type by their instants.
/// Values built without validation (AtomicValue::Date on a bad lexical
/// form) fall back to lexical order.
int CompareInstants(const std::string& a, const std::string& b,
                    bool with_time) {
  auto ia = ParseInstant(a, with_time);
  auto ib = ParseInstant(b, with_time);
  if (!ia || !ib) return a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
  return *ia < *ib ? -1 : (*ib < *ia ? 1 : 0);
}

}  // namespace

const char* AtomicTypeName(AtomicType type) {
  switch (type) {
    case AtomicType::kUntypedAtomic:
      return "xs:untypedAtomic";
    case AtomicType::kString:
      return "xs:string";
    case AtomicType::kBoolean:
      return "xs:boolean";
    case AtomicType::kInteger:
      return "xs:integer";
    case AtomicType::kDecimal:
      return "xs:decimal";
    case AtomicType::kDouble:
      return "xs:double";
    case AtomicType::kQName:
      return "xs:QName";
    case AtomicType::kDate:
      return "xs:date";
    case AtomicType::kDateTime:
      return "xs:dateTime";
    case AtomicType::kAnyUri:
      return "xs:anyURI";
  }
  return "xs:string";
}

StatusOr<AtomicType> AtomicTypeFromName(std::string_view name) {
  std::string_view n = name;
  if (StartsWith(n, "xs:")) n = n.substr(3);
  if (n == "untypedAtomic") return AtomicType::kUntypedAtomic;
  if (n == "string") return AtomicType::kString;
  if (n == "boolean") return AtomicType::kBoolean;
  if (n == "integer" || n == "int" || n == "long" || n == "short" ||
      n == "byte" || n == "nonNegativeInteger" || n == "positiveInteger" ||
      n == "unsignedInt" || n == "unsignedLong") {
    return AtomicType::kInteger;
  }
  if (n == "decimal") return AtomicType::kDecimal;
  if (n == "double" || n == "float") return AtomicType::kDouble;
  if (n == "QName") return AtomicType::kQName;
  if (n == "date") return AtomicType::kDate;
  if (n == "dateTime") return AtomicType::kDateTime;
  if (n == "anyURI") return AtomicType::kAnyUri;
  return Status::TypeError("unknown atomic type: " + std::string(name));
}

bool IsNumericType(AtomicType type) {
  return type == AtomicType::kInteger || type == AtomicType::kDecimal ||
         type == AtomicType::kDouble;
}

AtomicValue AtomicValue::Untyped(std::string v) {
  AtomicValue a;
  a.type_ = AtomicType::kUntypedAtomic;
  a.value_ = std::move(v);
  return a;
}

AtomicValue AtomicValue::String(std::string v) {
  AtomicValue a;
  a.type_ = AtomicType::kString;
  a.value_ = std::move(v);
  return a;
}

AtomicValue AtomicValue::Boolean(bool v) {
  AtomicValue a;
  a.type_ = AtomicType::kBoolean;
  a.value_ = v;
  return a;
}

AtomicValue AtomicValue::Integer(int64_t v) {
  AtomicValue a;
  a.type_ = AtomicType::kInteger;
  a.value_ = v;
  return a;
}

AtomicValue AtomicValue::Decimal(double v) {
  AtomicValue a;
  a.type_ = AtomicType::kDecimal;
  a.value_ = v;
  return a;
}

AtomicValue AtomicValue::Double(double v) {
  AtomicValue a;
  a.type_ = AtomicType::kDouble;
  a.value_ = v;
  return a;
}

AtomicValue AtomicValue::QNameValue(std::string lexical) {
  AtomicValue a;
  a.type_ = AtomicType::kQName;
  a.value_ = std::move(lexical);
  return a;
}

AtomicValue AtomicValue::Date(std::string lexical) {
  AtomicValue a;
  a.type_ = AtomicType::kDate;
  a.value_ = std::move(lexical);
  return a;
}

AtomicValue AtomicValue::DateTime(std::string lexical) {
  AtomicValue a;
  a.type_ = AtomicType::kDateTime;
  a.value_ = std::move(lexical);
  return a;
}

AtomicValue AtomicValue::AnyUri(std::string v) {
  AtomicValue a;
  a.type_ = AtomicType::kAnyUri;
  a.value_ = std::move(v);
  return a;
}

std::string AtomicValue::ToString() const {
  switch (type_) {
    case AtomicType::kBoolean:
      return std::get<bool>(value_) ? "true" : "false";
    case AtomicType::kInteger:
      return std::to_string(std::get<int64_t>(value_));
    case AtomicType::kDecimal:
    case AtomicType::kDouble:
      return FormatDouble(std::get<double>(value_));
    default:
      return std::get<std::string>(value_);
  }
}

double AtomicValue::AsDouble() const {
  switch (type_) {
    case AtomicType::kInteger:
      return static_cast<double>(std::get<int64_t>(value_));
    case AtomicType::kDecimal:
    case AtomicType::kDouble:
      return std::get<double>(value_);
    case AtomicType::kBoolean:
      return std::get<bool>(value_) ? 1.0 : 0.0;
    default: {
      auto parsed = ParseDouble(std::get<std::string>(value_));
      return parsed.ok() ? parsed.value()
                         : std::numeric_limits<double>::quiet_NaN();
    }
  }
}

int64_t AtomicValue::AsInteger() const {
  switch (type_) {
    case AtomicType::kInteger:
      return std::get<int64_t>(value_);
    case AtomicType::kDecimal:
    case AtomicType::kDouble:
      return static_cast<int64_t>(std::get<double>(value_));
    case AtomicType::kBoolean:
      return std::get<bool>(value_) ? 1 : 0;
    default: {
      auto parsed = ParseInt64(std::get<std::string>(value_));
      return parsed.ok() ? parsed.value() : 0;
    }
  }
}

bool AtomicValue::AsBoolean() const {
  if (type_ == AtomicType::kBoolean) return std::get<bool>(value_);
  return false;
}

StatusOr<AtomicValue> AtomicValue::CastTo(AtomicType target) const {
  if (target == type_) return *this;
  const std::string lex = ToString();
  switch (target) {
    case AtomicType::kString:
      return String(lex);
    case AtomicType::kUntypedAtomic:
      return Untyped(lex);
    case AtomicType::kAnyUri:
      return AnyUri(std::string(TrimWhitespace(lex)));
    case AtomicType::kBoolean: {
      if (IsNumeric()) {
        double d = AsDouble();
        return Boolean(d != 0 && !std::isnan(d));
      }
      std::string_view t = TrimWhitespace(lex);
      if (t == "true" || t == "1") return Boolean(true);
      if (t == "false" || t == "0") return Boolean(false);
      return Status::TypeError("cannot cast '" + lex + "' to xs:boolean");
    }
    case AtomicType::kInteger: {
      if (type_ == AtomicType::kDouble || type_ == AtomicType::kDecimal) {
        double d = std::get<double>(value_);
        if (std::isnan(d) || std::isinf(d)) {
          return Status::TypeError("cannot cast non-finite value to integer");
        }
        return Integer(static_cast<int64_t>(std::trunc(d)));
      }
      if (type_ == AtomicType::kBoolean) {
        return Integer(std::get<bool>(value_) ? 1 : 0);
      }
      auto parsed = ParseInt64(lex);
      if (!parsed.ok()) {
        return Status::TypeError("cannot cast '" + lex + "' to xs:integer");
      }
      return Integer(parsed.value());
    }
    case AtomicType::kDecimal:
    case AtomicType::kDouble: {
      if (type_ == AtomicType::kBoolean) {
        double d = std::get<bool>(value_) ? 1.0 : 0.0;
        return target == AtomicType::kDouble ? Double(d) : Decimal(d);
      }
      if (IsNumeric()) {
        double d = AsDouble();
        return target == AtomicType::kDouble ? Double(d) : Decimal(d);
      }
      auto parsed = ParseDouble(lex);
      if (!parsed.ok()) {
        return Status::TypeError("cannot cast '" + lex + "' to " +
                                 std::string(AtomicTypeName(target)));
      }
      return target == AtomicType::kDouble ? Double(parsed.value())
                                           : Decimal(parsed.value());
    }
    case AtomicType::kQName:
      if (type_ == AtomicType::kString || type_ == AtomicType::kUntypedAtomic) {
        return QNameValue(std::string(TrimWhitespace(lex)));
      }
      return Status::TypeError("cannot cast to xs:QName");
    case AtomicType::kDate:
    case AtomicType::kDateTime: {
      const bool with_time = target == AtomicType::kDateTime;
      if (type_ != AtomicType::kString && type_ != AtomicType::kUntypedAtomic) {
        return Status::TypeError(std::string("cannot cast to ") +
                                 AtomicTypeName(target));
      }
      std::string trimmed(TrimWhitespace(lex));
      if (!ParseInstant(trimmed, with_time)) {
        return Status::TypeError("cannot cast '" + lex + "' to " +
                                 AtomicTypeName(target) + " (FORG0001)");
      }
      return with_time ? DateTime(std::move(trimmed))
                       : Date(std::move(trimmed));
    }
  }
  return Status::TypeError("unsupported cast");
}

bool operator==(const AtomicValue& a, const AtomicValue& b) {
  if (a.type_ != b.type_) return false;
  if (a.type_ == AtomicType::kDate || a.type_ == AtomicType::kDateTime) {
    return CompareInstants(std::get<std::string>(a.value_),
                           std::get<std::string>(b.value_),
                           a.type_ == AtomicType::kDateTime) == 0;
  }
  return a.value_ == b.value_;
}

namespace {

int CompareDoubles(double x, double y) {
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

int CompareStrings(const std::string& x, const std::string& y) {
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

}  // namespace

std::optional<std::pair<int64_t, std::string>> InstantOf(const AtomicValue& v) {
  if (v.type() != AtomicType::kDate && v.type() != AtomicType::kDateTime) {
    return std::nullopt;
  }
  return ParseInstant(v.ToString(), v.type() == AtomicType::kDateTime);
}

StatusOr<int> CompareAtomic(const AtomicValue& a, const AtomicValue& b) {
  AtomicType ta = a.type();
  AtomicType tb = b.type();

  // untypedAtomic adapts to the other operand.
  if (ta == AtomicType::kUntypedAtomic && tb == AtomicType::kUntypedAtomic) {
    return CompareStrings(a.ToString(), b.ToString());
  }
  if (ta == AtomicType::kUntypedAtomic) {
    AtomicType as = IsNumericType(tb) ? AtomicType::kDouble : tb;
    XRPC_ASSIGN_OR_RETURN(AtomicValue ca, a.CastTo(as));
    return CompareAtomic(ca, b);
  }
  if (tb == AtomicType::kUntypedAtomic) {
    AtomicType as = IsNumericType(ta) ? AtomicType::kDouble : ta;
    XRPC_ASSIGN_OR_RETURN(AtomicValue cb, b.CastTo(as));
    return CompareAtomic(a, cb);
  }

  if (IsNumericType(ta) && IsNumericType(tb)) {
    if (ta == AtomicType::kInteger && tb == AtomicType::kInteger) {
      int64_t x = a.AsInteger(), y = b.AsInteger();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    return CompareDoubles(a.AsDouble(), b.AsDouble());
  }

  auto string_like = [](AtomicType t) {
    return t == AtomicType::kString || t == AtomicType::kAnyUri;
  };
  if (string_like(ta) && string_like(tb)) {
    return CompareStrings(a.ToString(), b.ToString());
  }

  if (ta != tb) {
    return Status::TypeError(std::string("cannot compare ") +
                             AtomicTypeName(ta) + " with " +
                             AtomicTypeName(tb));
  }
  switch (ta) {
    case AtomicType::kBoolean: {
      int x = a.AsBoolean() ? 1 : 0, y = b.AsBoolean() ? 1 : 0;
      return x - y;
    }
    case AtomicType::kDate:
    case AtomicType::kDateTime:
      return CompareInstants(a.ToString(), b.ToString(),
                             ta == AtomicType::kDateTime);
    case AtomicType::kQName:
      return CompareStrings(a.ToString(), b.ToString());
    default:
      return Status::TypeError(std::string("cannot compare values of type ") +
                               AtomicTypeName(ta));
  }
}

}  // namespace xrpc::xdm
