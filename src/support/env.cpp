#include "support/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace dlp::support {

long long parse_int(const char* name, const std::string& text, long long min,
                    long long max) {
    const char* raw = text.c_str();
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(raw, &end, 10);
    // Reject trailing junk ("100ms"), a bare sign, and leading whitespace
    // oddities strtoll tolerates but a config file should not.
    if (end == raw || *end != '\0' ||
        std::isspace(static_cast<unsigned char>(raw[0])) || errno == ERANGE ||
        v < min || v > max)
        throw EnvError(std::string(name) + ": invalid value \"" + text +
                       "\" (expected an integer in [" + std::to_string(min) +
                       ", " + std::to_string(max) + "])");
    return v;
}

long long env_int(const char* name, long long fallback, long long min,
                  long long max) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return fallback;
    return parse_int(name, raw, min, max);
}

}  // namespace dlp::support
