#include "support/cancel.h"

namespace dlp::support {

std::string_view stop_reason_name(StopReason reason) {
    switch (reason) {
        case StopReason::None: return "none";
        case StopReason::Cancelled: return "cancelled";
        case StopReason::DeadlineExpired: return "deadline-expired";
        case StopReason::VectorBudget: return "vector-budget";
        case StopReason::LintFailed: return "lint-failed";
    }
    return "unknown";
}

}  // namespace dlp::support
