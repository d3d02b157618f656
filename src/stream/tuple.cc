#include "stream/tuple.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"
#include "common/types.h"

namespace rtrec::stream {

std::uint64_t HashValue(const Value& v) {
  struct Hasher {
    std::uint64_t operator()(std::monostate) const { return kNullValueHash; }
    std::uint64_t operator()(std::int64_t x) const {
      return MixHash64(static_cast<std::uint64_t>(x));
    }
    std::uint64_t operator()(double x) const {
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(x));
      std::memcpy(&bits, &x, sizeof(bits));
      return MixHash64(bits);
    }
    std::uint64_t operator()(const std::vector<float>& v) const {
      std::uint64_t h = 0xCBF29CE484222325ull;
      for (float f : v) {
        std::uint32_t bits;
        std::memcpy(&bits, &f, sizeof(bits));
        h ^= bits;
        h *= 0x100000001B3ull;
      }
      return MixHash64(h);
    }
    std::uint64_t operator()(const std::vector<std::int64_t>& v) const {
      std::uint64_t h = 0xCBF29CE484222325ull;
      for (std::int64_t x : v) {
        h ^= static_cast<std::uint64_t>(x);
        h *= 0x100000001B3ull;
      }
      return MixHash64(h);
    }
  };
  return std::visit(Hasher{}, v);
}

std::string ValueToString(const Value& v) {
  struct Printer {
    std::string operator()(std::monostate) const { return "null"; }
    std::string operator()(std::int64_t x) const { return std::to_string(x); }
    std::string operator()(double x) const {
      return StringPrintf("%.6g", x);
    }
    std::string operator()(const std::vector<float>& v) const {
      return StringPrintf("float[%zu]", v.size());
    }
    std::string operator()(const std::vector<std::int64_t>& v) const {
      return StringPrintf("int64[%zu]", v.size());
    }
  };
  return std::visit(Printer{}, v);
}

namespace {

[[noreturn]] void TooManyFields(std::size_t n) {
  std::fprintf(stderr, "stream schema with %zu fields exceeds the %zu cap\n",
               n, kMaxTupleFields);
  std::abort();
}

}  // namespace

Schema::Schema(std::vector<std::string> field_names)
    : names_(std::move(field_names)) {
  if (names_.size() > kMaxTupleFields) TooManyFields(names_.size());
}

Schema::Schema(std::initializer_list<const char*> field_names) {
  if (field_names.size() > kMaxTupleFields) TooManyFields(field_names.size());
  names_.reserve(field_names.size());
  for (const char* name : field_names) names_.emplace_back(name);
}

int Schema::IndexOf(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (std::size_t i = 0; i < size_; ++i) {
    if (i > 0) out += ", ";
    if (schema_ != nullptr && i < schema_->size()) {
      out += schema_->names()[i];
      out += "=";
    }
    out += ValueToString(values_[i]);
  }
  out += ")";
  return out;
}

}  // namespace rtrec::stream
