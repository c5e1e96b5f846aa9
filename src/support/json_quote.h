// The one JSON string escaper shared by every JSON writer in the tree
// (campaign reports, lint diagnostics, telemetry traces, service replies).
#pragma once

#include <string>
#include <string_view>

namespace dlp::support {

/// `s` as an RFC 8259 string literal, quotes included: `"` and `\` are
/// backslash-escaped, \b \f \n \r \t use their short forms, and every
/// other control character below 0x20 becomes \u00XX.  Bytes >= 0x20
/// pass through unchanged, so printable ASCII and UTF-8 text is copied
/// as-is.
std::string json_quote(std::string_view s);

}  // namespace dlp::support
