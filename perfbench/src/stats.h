// Order statistics and failure accounting for the benchmark's reports.
//
// Every timing the benchmark prints is a median or a tail percentile of
// per-op samples, always together with the sample count it came from.
// quartiles() reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method) so the spread the benchmark reports about
// itself is the spread an outside check computes from the same values.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
    if (v.empty()) throw std::invalid_argument("median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Quartiles {
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};

/// statistics.quantiles(v, n=4, method="exclusive"); needs >= 2 samples.
inline Quartiles quartiles(std::vector<double> v) {
    if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    double cut[3];
    for (long i = 1; i <= 3; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                          static_cast<double>(4 - delta) +
                      v[static_cast<std::size_t>(j)] *
                          static_cast<double>(delta)) /
                     4.0;
    }
    return {cut[0], cut[1], cut[2]};
}

/// A tail latency: the highest of p99 / p90 / p50 that still has at least
/// kMinBeyond samples above it.  With fewer than 2 * kMinBeyond samples
/// (runs of a handful of long ops) no tail can be resolved and the median
/// stands in for it, with `beyond` telling how few samples lie above.
struct Tail {
    double percentile = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;  ///< samples ranked above the reported one
};

inline constexpr std::size_t kMinBeyond = 10;

inline Tail tail_percentile(std::vector<double> v) {
    if (v.empty()) throw std::invalid_argument("tail of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    for (const double p : {99.0, 90.0, 50.0}) {
        // Nearest rank: the smallest sample with at least p% at or below.
        std::size_t rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
        rank = std::clamp<std::size_t>(rank, 1, n);
        if (n - rank >= kMinBeyond) return {p, v[rank - 1], n, n - rank};
    }
    return {50.0, median(v), n, n / 2};
}

/// Ops attempted and failed (errors, sheds, cancellations and wrong
/// outputs alike).  Thread-safe: client threads record concurrently.
class FailureCount {
public:
    void record(bool ok) {
        attempted_.fetch_add(1, std::memory_order_relaxed);
        if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
    }
    /// A later verdict on an op already counted as attempted and ok.
    void fail_verified() { failed_.fetch_add(1, std::memory_order_relaxed); }
    std::size_t attempted() const { return attempted_.load(); }
    std::size_t failed() const { return failed_.load(); }
    double failed_frac() const {
        const std::size_t a = attempted();
        return a == 0 ? 1.0 : static_cast<double>(failed()) /
                                  static_cast<double>(a);
    }
    bool correct() const { return attempted() > 0 && failed() == 0; }

private:
    std::atomic<std::size_t> attempted_{0};
    std::atomic<std::size_t> failed_{0};
};

/// Metric names are [A-Za-z0-9_.-]+, starting with a letter or digit.
inline bool valid_metric_name(std::string_view name) {
    if (name.empty() || name.size() > 64) return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front())) return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

}  // namespace perfbench
