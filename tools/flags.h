#ifndef MIP_TOOLS_FLAGS_H_
#define MIP_TOOLS_FLAGS_H_

// Shared "--name=value" flag parsing for mip_worker / mip_gateway /
// mip_query. Numbers parse strictly: an empty value, trailing garbage, a
// sign on an unsigned flag or a value out of the field's range is an
// InvalidArgument naming the flag — never a silent prefix (atoi("12x") is
// 12) or zero.

#include <charconv>
#include <string>
#include <system_error>

#include "common/status.h"

namespace mip::tools {

// True when `arg` is "--<name>=<value>"; stores the value.
inline bool ParseFlag(const std::string& arg, const char* name,
                      std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// Parses all of `text` as a T (signed or unsigned integer, or double) into
// `*out`. `what` names the flag in the error, e.g. "--port".
template <typename T>
Status ParseNumber(const std::string& what, const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("invalid " + what + " value '" + text +
                                   "'");
  }
  return Status::OK();
}

}  // namespace mip::tools

#endif  // MIP_TOOLS_FLAGS_H_
