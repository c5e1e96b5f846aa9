// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its calls into the program's
// layers (never inside the program): each has a name, start, end, its
// parent span and the id of the op it belongs to.  Counts are recorded at
// the same boundaries.  Everything stays in memory until write_chrome_json()
// at the end of the run.  A disabled tracer records nothing and reads no
// clock, which is how the untraced (timed) runs use the same code paths.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< since the tracer was created
    std::int64_t end_ns = 0;
    int id = 0;
    int parent = -1;  ///< -1 for an op's root span
    std::uint64_t op = 0;
    int thread = 0;
    double seconds() const {
        return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
};

struct CountRecord {
    std::string name;
    std::uint64_t op = 0;
    double value = 0.0;
};

class Tracer {
public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /// RAII span; nests under the innermost open span of the same thread.
    class Scope {
    public:
        Scope(Tracer& tracer, std::string_view name, std::uint64_t op);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& tracer_;
        int index_ = -1;
    };

    void count(std::string_view name, std::uint64_t op, double value);

    std::vector<Span> spans() const;
    std::vector<CountRecord> counts() const;

    /// Self seconds of `op`'s spans, summed per span name: each span's
    /// duration minus the part its children cover.
    std::map<std::string, double> self_seconds(std::uint64_t op) const;
    /// Duration of `op`'s root span named `root` (0 when absent).
    double root_seconds(std::uint64_t op, std::string_view root) const;

    /// Chrome trace_event JSON (complete "X" events plus counter events);
    /// args carry op, id and parent.
    void write_chrome_json(const std::string& path) const;

private:
    int open(std::string_view name, std::uint64_t op);
    void close(int index);
    std::int64_t now_ns() const;

    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<CountRecord> counts_;
};

}  // namespace perfbench
