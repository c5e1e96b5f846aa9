#include "trace.h"

#include <atomic>
#include <fstream>
#include <stdexcept>

#include "service/json.h"

namespace perfbench {

namespace {

/// Open spans of the current thread (indices into Tracer::spans_).
thread_local std::vector<int> t_open;

int thread_number() {
    static std::atomic<int> next{0};
    thread_local const int mine = next.fetch_add(1);
    return mine;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int Tracer::open(std::string_view name, std::uint64_t op) {
    Span s;
    s.name = std::string(name);
    s.op = op;
    s.thread = thread_number();
    s.parent = t_open.empty() ? -1 : t_open.back();
    std::lock_guard<std::mutex> lock(mu_);
    s.id = static_cast<int>(spans_.size());
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    t_open.push_back(spans_.back().id);
    return spans_.back().id;
}

void Tracer::close(int index) {
    const std::int64_t end = now_ns();
    t_open.pop_back();  // Scopes nest, so `index` is the innermost span
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name, std::uint64_t op)
    : tracer_(tracer) {
    if (tracer_.enabled_) index_ = tracer_.open(name, op);
}

Tracer::Scope::~Scope() {
    if (index_ >= 0) tracer_.close(index_);
}

void Tracer::count(std::string_view name, std::uint64_t op, double value) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    counts_.push_back({std::string(name), op, value});
}

std::vector<Span> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<CountRecord> Tracer::counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
}

std::map<std::string, double> Tracer::self_seconds(std::uint64_t op) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.op == op && s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.seconds();
    std::map<std::string, double> out;
    for (const Span& s : spans_)
        if (s.op == op)
            out[s.name] += s.seconds() - child[static_cast<std::size_t>(s.id)];
    return out;
}

double Tracer::root_seconds(std::uint64_t op, std::string_view root) const {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const Span& s : spans_)
        if (s.op == op && s.parent < 0 && s.name == root) total += s.seconds();
    return total;
}

void Tracer::write_chrome_json(const std::string& path) const {
    using dlp::service::Json;
    Json events = Json::array();
    for (const Span& s : spans()) {
        Json e = Json::object();
        e.set("name", Json::string(s.name));
        e.set("ph", Json::string("X"));
        e.set("ts", Json::number(static_cast<double>(s.start_ns) / 1e3));
        e.set("dur",
              Json::number(static_cast<double>(s.end_ns - s.start_ns) / 1e3));
        e.set("pid", Json::number(1LL));
        e.set("tid", Json::number(static_cast<long long>(s.thread)));
        Json args = Json::object();
        args.set("op", Json::number(static_cast<long long>(s.op)));
        args.set("id", Json::number(static_cast<long long>(s.id)));
        args.set("parent", Json::number(static_cast<long long>(s.parent)));
        e.set("args", std::move(args));
        events.push_back(std::move(e));
    }
    for (const CountRecord& c : counts()) {
        Json e = Json::object();
        e.set("name", Json::string(c.name));
        e.set("ph", Json::string("C"));
        e.set("ts", Json::number(0.0));
        e.set("pid", Json::number(1LL));
        Json args = Json::object();
        args.set("op", Json::number(static_cast<long long>(c.op)));
        args.set("value", Json::number(c.value));
        e.set("args", std::move(args));
        events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << dlp::service::write_json(doc) << "\n";
}

}  // namespace perfbench
