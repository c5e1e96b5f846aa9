// dlproj_served: the campaign projection service daemon.  Binds a unix
// socket, recovers the artifact store from any crashed predecessor, and
// serves projection/campaign requests until SIGINT/SIGTERM or a
// `shutdown` op — then drains gracefully (src/service/server.h).
//
//   dlproj_served [options]
//
//   --socket=PATH       listen socket (default: $DLPROJ_SERVE_SOCKET)
//   --workers=N         executor threads, 1..64 (default 2)
//   --queue-max=N       admission-queue bound, 1..4096 (default 16)
//   --drain-ms=N        shutdown grace period, >= 0 (default 2000)
//   --deadline-ms=N     per-request deadline: the default for requests
//                       without one and the clamp on the rest, >= 0
//                       (default 0 = none)
//   --retry-after-ms=N  backpressure hint in shed replies, >= 0
//   --cache-dir=PATH    artifact cache root (default: $DLPROJ_CACHE)
//   --engine=NAME       default fault-sim engine for requests without one
//   --threads=N         per-run worker threads, 0..256 (0 = library default)
//   --quiet             suppress startup/shutdown stderr lines
//
// A numeric flag that is not a plain integer in its range exits 2 with a
// message naming the flag and the range.
//
// Exit status: 0 clean shutdown, 2 usage or startup failure.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "campaign/store.h"
#include "gatesim/engine.h"
#include "service/server.h"
#include "support/env.h"

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--socket=PATH] [--workers=N] [--queue-max=N]"
                 " [--drain-ms=N] [--deadline-ms=N] [--retry-after-ms=N]"
                 " [--cache-dir=PATH] [--engine=NAME] [--threads=N]"
                 " [--quiet]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace dlp;

    service::ServiceConfig config;
    if (const char* sock = std::getenv("DLPROJ_SERVE_SOCKET"))
        config.socket_path = sock;
    config.cache_dir = campaign::env_cache_dir();
    bool quiet = false;

    // Millisecond settings stop at 2^40 (~35 years), far below where
    // steady_clock arithmetic could overflow.
    constexpr long long kMaxMs = 1ll << 40;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto flag = [&](const char* name) {
            return arg.rfind(name, 0) == 0 && arg[std::strlen(name)] == '=';
        };
        const auto value = [&] { return arg.substr(arg.find('=') + 1); };
        const auto number = [&](long long min, long long max) {
            return support::parse_int(arg.substr(0, arg.find('=')).c_str(),
                                      value(), min, max);
        };
        try {
            if (flag("--socket"))
                config.socket_path = value();
            else if (flag("--workers"))
                config.workers = static_cast<int>(number(1, 64));
            else if (flag("--queue-max"))
                config.queue_max = static_cast<std::size_t>(number(1, 4096));
            else if (flag("--drain-ms"))
                config.drain_ms = number(0, kMaxMs);
            else if (flag("--deadline-ms"))
                config.deadline_ms = number(0, kMaxMs);
            else if (flag("--retry-after-ms"))
                config.retry_after_ms = number(0, kMaxMs);
            else if (flag("--cache-dir"))
                config.cache_dir = value();
            else if (flag("--engine"))
                config.engine = value();
            else if (flag("--threads"))
                config.cell_threads = static_cast<int>(number(0, 256));
            else if (arg == "--quiet")
                quiet = true;
            else {
                std::cerr << argv[0] << ": unknown option " << arg << "\n";
                return usage(argv[0]);
            }
        } catch (const support::EnvError& e) {
            std::cerr << argv[0] << ": " << e.what() << "\n";
            return 2;
        }
    }
    if (config.socket_path.empty()) {
        std::cerr << argv[0]
                  << ": no socket path (--socket= or DLPROJ_SERVE_SOCKET)\n";
        return usage(argv[0]);
    }
    if (!config.engine.empty() && !sim::find_engine(config.engine)) {
        std::cerr << argv[0] << ": unknown engine '" << config.engine << "'\n";
        return 2;
    }

    // Block SIGINT/SIGTERM in every thread (service threads inherit the
    // mask); a dedicated sigwait thread turns them into a graceful
    // shutdown request.  No async-signal-safety gymnastics required.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    service::Service service(config);
    try {
        service.start();
    } catch (const std::exception& e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
    }
    if (!quiet) {
        const auto& rec = service.recovery();
        if (rec.intents || rec.quarantined || rec.stale_tmps)
            std::cerr << argv[0] << ": store recovery: "
                      << campaign::recovery_summary(rec) << "\n";
        std::cerr << argv[0] << ": listening on " << config.socket_path
                  << " (" << config.workers << " workers, queue "
                  << config.queue_max << ")\n";
    }

    std::atomic<bool> sig_thread_done{false};
    std::thread sig_thread([&] {
        while (true) {
            int sig = 0;
            if (sigwait(&sigs, &sig) != 0) continue;
            if (sig_thread_done.load(std::memory_order_relaxed)) return;
            service.request_shutdown();
        }
    });

    service.wait_shutdown_requested();
    if (!quiet) std::cerr << argv[0] << ": draining...\n";
    service.stop();

    sig_thread_done.store(true, std::memory_order_relaxed);
    kill(getpid(), SIGTERM);  // blocked: consumed by sigwait, wakes the thread
    sig_thread.join();

    if (!quiet) {
        const service::ServiceStats s = service.stats();
        std::cerr << argv[0] << ": served " << s.completed << " request(s), "
                  << s.shed << " shed, " << s.errors << " error(s)\n";
    }
    return 0;
}
