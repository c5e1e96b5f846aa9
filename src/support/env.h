// Hardened integer parsing for environment knobs and command-line flags.
//
// Every DLPROJ_* knob and numeric tool flag goes through parse_int: a
// well-formed value in range is returned, and *anything else* — garbage
// text, trailing junk, negative values where the setting is a count,
// overflow — throws EnvError with a diagnostic naming the setting, the
// offending value, and the accepted range.  Silent defaulting on a typo
// ("DLPROJ_THREADS=1O") is exactly how a production deployment ends up
// running single-threaded for a month.
//
// Thread-safety: getenv() is safe against concurrent getenv(); callers
// must not setenv() concurrently with a run (the same contract the rest of
// the codebase already assumes).
#pragma once

#include <stdexcept>
#include <string>

namespace dlp::support {

/// A malformed setting.  what() is a complete diagnostic:
///   DLPROJ_THREADS: invalid value "1O" (expected an integer in [0, 256])
class EnvError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Parses `text` as the value of setting `name` (an environment variable
/// or a flag such as "--workers").  A value that is not a plain base-10
/// integer, has trailing junk, overflows long long, or falls outside
/// [min, max] throws EnvError.
long long parse_int(const char* name, const std::string& text, long long min,
                    long long max);

/// Reads integer knob `name`.  Unset or empty -> `fallback`; otherwise
/// parse_int.
long long env_int(const char* name, long long fallback, long long min,
                  long long max);

}  // namespace dlp::support
